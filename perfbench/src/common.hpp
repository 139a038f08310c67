// Shared pieces of the perfbench program: run options, the per-run record
// (metrics, correctness counters, determinism checks), sample statistics,
// and the input generators every workload draws from its seed.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "gen/rmat.hpp"
#include "gen/rng.hpp"
#include "matrix/csr.hpp"
#include "matrix/ops.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

using IT = msp::index_t;
using VT = double;
using Graph = msp::CsrMatrix<IT, VT>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: every workload on a tiny graph, same code paths.
  bool tiny = false;
  /// Self-test hook: corrupt the first timed result before it is checked,
  /// so the failure accounting can be shown to count it.
  bool inject_fault = false;
  /// Set-up repetitions per run; setup_s is their median.
  int setup_reps = 3;
  /// Chrome trace-event output of the traced phase (empty: not written).
  std::string trace_out;
};

/// Everything one run reports. Metric names and units are the contract
/// in BENCHMARK.json; run.py checks them against it.
struct Record {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> meta;
  /// Determinism probes for the self-test (same seed => same values).
  std::map<std::string, std::string> checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }
};

inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}
inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}

/// Peak resident set of this process (and, with `children`, of the
/// largest reaped child) in MiB.
inline double peak_rss_mib(bool children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, kids.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

inline std::string hex64(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// Seeded R-MAT adjacency (symmetric, no self loops, unit values).
inline Graph make_graph(int scale, double edge_factor, std::uint64_t seed) {
  msp::RmatParams params;
  params.seed = seed;
  return msp::rmat_graph<IT, VT>(scale, edge_factor, params);
}

/// The read shape stream and serve share: each read is one batch of
/// kMasksPerRead fresh row-subset masks, each keeping ~1/kMaskRowsOneIn of
/// the rows.
constexpr int kMasksPerRead = 4;
constexpr std::uint64_t kMaskRowsOneIn = 256;

/// Row-subset query mask over `g`: each row is kept whole with probability
/// 1/`one_in`, drawn from stream `stream` of the run seed.
inline Graph row_subset_mask(const Graph& g, std::uint64_t seed,
                             std::uint64_t stream, std::uint64_t one_in) {
  msp::Xoshiro256 rng(seed, stream);
  std::vector<char> keep(static_cast<std::size_t>(g.nrows));
  for (char& k : keep) k = rng.next_below(one_in) == 0 ? 1 : 0;
  return msp::select(g, [&keep](IT i, IT, const VT&) {
    return keep[static_cast<std::size_t>(i)] != 0;
  });
}

/// flops of M ⊙ (A·B) counted over the rows the mask selects: the
/// multiply-adds the masked product actually has to consider.
inline std::int64_t masked_flops(const Graph& a, const Graph& b,
                                 const Graph& m) {
  std::int64_t f = 0;
  for (IT i = 0; i < a.nrows; ++i) {
    if (m.rowptr[i] == m.rowptr[i + 1]) continue;
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const IT k = a.colids[p];
      f += b.rowptr[k + 1] - b.rowptr[k];
    }
  }
  return f;
}

inline bool same(const Graph& x, const Graph& y) {
  return x.nrows == y.nrows && x.ncols == y.ncols && x.rowptr == y.rowptr &&
         x.colids == y.colids && x.values == y.values;
}

/// gflops of reads whose flops vary from read to read: 2 x the median
/// read's flops over the median read's seconds, the per-product
/// convention of the paper's Fig. 10 applied to a typical read.
inline double read_gflops(const std::vector<double>& flops,
                          const std::vector<double>& secs) {
  const double s = median(secs);
  return s > 0 ? 2.0 * median(flops) / s / 1e9 : 0.0;
}

/// Flip one stored value (or, for an empty result, widen it by a column)
/// so a correct result no longer matches its reference.
inline void corrupt(Graph& x) {
  if (!x.values.empty()) {
    x.values[0] += 1.0;
  } else {
    x.ncols += 1;
  }
}

/// Closed loop: runs `op` until the timed operations add up to
/// `seconds` (verification is outside the timing), with a wall-clock cap
/// so a pathological slowdown still ends the run.
/// `op(i)` returns the seconds of its timed region, or a negative value
/// when the operation failed.
inline void closed_loop(double seconds, const std::function<double(int)>& op,
                        Record& rec) {
  msp::Timer wall;
  const double wall_cap = 4.0 * seconds + 60.0;
  double timed = 0;
  for (int i = 0; timed < seconds && wall.seconds() < wall_cap; ++i) {
    ++rec.attempted;
    const double s = op(i);
    if (s < 0) {
      ++rec.failed;
    } else {
      timed += s;
    }
  }
}

/// Closed-loop throughput at the median latency of each operation kind,
/// weighted by how many of each kind the loop completed. Medians keep one
/// slow stretch of a run from moving the figure; the tail is what
/// query_ms_p90 reports.
inline double median_throughput(
    const std::vector<std::vector<double>>& secs_by_kind) {
  double ops = 0;
  double secs = 0;
  for (const std::vector<double>& kind : secs_by_kind) {
    ops += static_cast<double>(kind.size());
    secs += static_cast<double>(kind.size()) * median(kind);
  }
  return secs > 0 ? ops / secs : 0.0;
}

/// Latency percentiles over the samples, with the sample count recorded
/// next to them in the run metadata.
inline void record_latency(Record& rec, const std::string& prefix,
                           const std::vector<double>& secs, bool end_to_end) {
  std::vector<double> ms;
  ms.reserve(secs.size());
  for (double s : secs) ms.push_back(s * 1e3);
  const double p50 = median(ms);
  const double p90 = quantile(ms, 0.9);
  if (end_to_end) {
    rec.e2e(prefix + "_p50", p50, "ms");
    rec.e2e(prefix + "_p90", p90, "ms");
  } else {
    rec.layer(prefix + "_p50", p50, "ms");
    rec.layer(prefix + "_p90", p90, "ms");
  }
  rec.meta["samples." + prefix] = std::to_string(ms.size());
}

/// The set-up phases every workload reports (setup.gen / prepare / place /
/// warmup), repeated `reps` times; setup_s is the median total.
struct SetupTimes {
  std::vector<double> gen, prepare, place, warmup, total;

  void add(double g, double p, double pl, double w) {
    gen.push_back(g);
    prepare.push_back(p);
    place.push_back(pl);
    warmup.push_back(w);
    total.push_back(g + p + pl + w);
  }
  void report(Record& rec) const {
    rec.e2e("setup_s", median(total), "s");
    rec.layer("setup.gen_s", median(gen), "s");
    rec.layer("setup.prepare_s", median(prepare), "s");
    rec.layer("setup.place_s", median(place), "s");
    rec.layer("setup.warmup_s", median(warmup), "s");
    rec.meta["samples.setup"] = std::to_string(total.size());
  }
};

/// trace.overhead_frac: how much the traced loop's median operation
/// latency exceeds the untraced loop's, as a share of the untraced one.
inline void report_trace_overhead(Record& rec, double untraced_p50_ms,
                                  double traced_p50_ms) {
  rec.layer("trace.overhead_frac",
            untraced_p50_ms > 0
                ? (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms
                : 0.0,
            "ratio");
}

int run_tricount(const Options& opt, Record& rec);
int run_tiled_spill(const Options& opt, Record& rec);
int run_stream(const Options& opt, Record& rec);
int run_serve(const Options& opt, Record& rec);

}  // namespace perfbench
