// Workloads `tricount` and `tiled_spill`: the paper's triangle-counting
// product C = L ⊙ (L·L) (plus-pair semiring, kAuto) on a seeded R-MAT
// graph, repeated with L bound once and the plan warm.
//
//  * tricount runs it through the default Engine — kernel-bound;
//  * tiled_spill runs the same product through a TiledEngine over 8
//    nnz-balanced shards whose ShardStore holds only twice the largest
//    shard, so every call spills and reloads through the store's throttled
//    tier (256 MiB/s modeled) with prefetch on.
//
// Every product is checked, outside its timing, against the core/baseline
// dot oracle computed once per run; tiled results must also be
// bit-identical to the monolithic Engine result.
#include <omp.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "apps/tricount.hpp"
#include "common.hpp"
#include "core/baseline.hpp"
#include "core/engine.hpp"
#include "core/shard.hpp"
#include "core/tiled_engine.hpp"
#include "timed_backend.hpp"

namespace perfbench {
namespace {

using msp::MaskedSpgemmStats;
using msp::Scheme;
using PlusPair = msp::PlusPair<VT>;
using Stats = msp::ExecutionContext::CacheStats;

struct TricountSizes {
  int scale;
  double edge_factor;
};
TricountSizes sizes(const Options& opt) {
  return opt.tiny ? TricountSizes{10, 8.0} : TricountSizes{17, 16.0};
}

/// One timed product's observations.
struct Sample {
  double secs = 0;
  MaskedSpgemmStats st;
};

/// The kernel.* metrics from per-op execution stats (medians).
void report_kernel(Record& rec, const std::vector<Sample>& samples) {
  std::vector<double> sym, num, asmb, tight;
  for (const Sample& s : samples) {
    sym.push_back(s.st.symbolic_seconds * 1e3);
    num.push_back(s.st.numeric_seconds * 1e3);
    asmb.push_back(s.st.assemble_seconds * 1e3);
    tight.push_back(s.st.bound_tightness());
  }
  rec.layer("kernel.symbolic_ms", median(sym), "ms");
  rec.layer("kernel.numeric_ms", median(num), "ms");
  rec.layer("kernel.assemble_ms", median(asmb), "ms");
  rec.layer("kernel.bound_tightness", median(tight), "ratio");
  if (!samples.empty()) {
    rec.layer("kernel.flops",
              static_cast<double>(samples.back().st.total_flops), "count");
    rec.layer("kernel.output_nnz",
              static_cast<double>(samples.back().st.output_nnz), "count");
  }
}

/// plan.* per timed operation, from the context's cumulative counters.
void report_plan(Record& rec, const Stats& s0, const Stats& s1,
                 const std::vector<Sample>& samples) {
  const double n = samples.empty() ? 1.0 : static_cast<double>(samples.size());
  std::vector<double> build;
  for (const Sample& s : samples) build.push_back(s.st.plan_seconds * 1e3);
  rec.layer("plan.build_ms", median(build), "ms");
  rec.layer("plan.hits", static_cast<double>(s1.plan_hits - s0.plan_hits) / n,
            "count/op");
  rec.layer("plan.misses",
            static_cast<double>(s1.plan_misses - s0.plan_misses) / n,
            "count/op");
  rec.layer("plan.fingerprints",
            static_cast<double>(s1.fingerprints_computed -
                                s0.fingerprints_computed) /
                n,
            "count/op");
  rec.layer("plan.partial_refreshes",
            static_cast<double>(s1.plan_partial_refreshes -
                                s0.plan_partial_refreshes) /
                n,
            "count/op");
  rec.layer("plan.rows_refreshed",
            static_cast<double>(s1.plan_rows_refreshed -
                                s0.plan_rows_refreshed) /
                n,
            "rows/op");
}

/// gflops, query latency, throughput and memory from one phase's samples.
void report_e2e(Record& rec, const std::vector<Sample>& samples,
                std::int64_t flops) {
  std::vector<double> secs;
  for (const Sample& s : samples) secs.push_back(s.secs);
  const double med = median(secs);
  rec.e2e("gflops", med > 0 ? 2.0 * static_cast<double>(flops) / med / 1e9 : 0,
          "GFLOP/s");
  record_latency(rec, "query_ms", secs, true);
  rec.e2e("ops_per_s", median_throughput({secs}), "1/s");
  rec.e2e("peak_rss_mb", peak_rss_mib(false), "MiB");
}

/// Runs the closed loop once untraced and, for a traced run, once more
/// with spans on. `op(i, sample)` returns false on a failed check.
/// `on_traced_start` runs just before the traced loop (counter snapshots).
template <class Op>
void run_phases(const Options& opt, Record& rec, std::int64_t flops,
                std::vector<Sample>& traced,
                const std::function<void()>& on_traced_start, Op&& op) {
  std::vector<Sample> untraced;
  auto loop = [&](std::vector<Sample>& out) {
    closed_loop(
        opt.seconds,
        [&](int i) -> double {
          Sample s;
          bool ok = false;
          try {
            ok = op(i, s);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "op %d threw: %s\n", i, e.what());
          }
          if (!ok) return -1.0;
          out.push_back(s);
          return s.secs;
        },
        rec);
  };
  loop(untraced);
  report_e2e(rec, untraced, flops);
  if (!opt.trace) return;
  on_traced_start();
  tracer().set_enabled(true);
  loop(traced);
  tracer().set_enabled(false);
  std::vector<double> u, t;
  for (const Sample& s : untraced) u.push_back(s.secs * 1e3);
  for (const Sample& s : traced) t.push_back(s.secs * 1e3);
  report_trace_overhead(rec, median(u), median(t));
}

/// Triangle-count input with its oracle product.
struct Input {
  msp::TricountInput<IT, VT> tc;
  Graph oracle;
  std::int64_t triangles = 0;
};

/// Generate + prepare (the shared first two set-up phases).
msp::TricountInput<IT, VT> gen_prepare(const Options& opt, double* gen_s,
                                       double* prep_s,
                                       std::uint64_t* graph_fp) {
  const TricountSizes sz = sizes(opt);
  msp::Timer t;
  const Graph g = make_graph(sz.scale, sz.edge_factor, opt.seed);
  *gen_s = t.seconds();
  *graph_fp = msp::pattern_fingerprint(g);
  t.reset();
  msp::TricountInput<IT, VT> in = msp::tricount_prepare(g);
  *prep_s = t.seconds();
  return in;
}

void finish_input(const Options& opt, Input& in, std::uint64_t graph_fp,
                  Record& rec) {
  in.oracle = msp::baseline_dot<PlusPair>(in.tc.l, in.tc.l, in.tc.l);
  in.triangles = static_cast<std::int64_t>(msp::reduce_sum(in.oracle));
  rec.checks["input_fingerprint"] = hex64(graph_fp);
  rec.checks["triangles"] = std::to_string(in.triangles);
  rec.checks["flops"] = std::to_string(in.tc.flops);
  rec.checks["output_nnz"] = std::to_string(in.oracle.nnz());
  const TricountSizes sz = sizes(opt);
  rec.meta["input"] = "rmat" + std::to_string(sz.scale) + "-ef" +
                      std::to_string(static_cast<int>(sz.edge_factor));
  rec.meta["l_nnz"] = std::to_string(in.tc.l.nnz());
}

bool check(const Options& opt, int i, Graph& c, const Graph& want) {
  if (opt.inject_fault && i == 0) corrupt(c);
  return same(c, want);
}

/// The traced run's kernel sweep: every paper scheme at full width on the
/// tricount input, then kAuto at one thread (the Fig. 11 endpoint).
void kernel_sweep(const Options& opt, Record& rec, const Input& in,
                  msp::Engine& engine, const msp::BoundMatrix<IT, VT>& lh,
                  double gflops_nt) {
  const Graph& l = in.tc.l;
  const int reps = opt.tiny ? 1 : 3;
  auto gflops_of = [&](Scheme s) {
    std::vector<double> secs;
    for (int r = 0; r <= reps; ++r) {
      ++rec.attempted;
      MaskedSpgemmStats st;
      msp::Timer t;
      Graph c = engine.multiply_scheme<PlusPair>(
          s, l, l, l, msp::MaskKind::kMask, msp::MaskSemantics::kStructural,
          &st, &lh, &lh, &lh);
      const double secs_r = t.seconds();
      if (!same(c, in.oracle)) ++rec.failed;
      if (r > 0) secs.push_back(secs_r);  // r == 0 warms the plan
    }
    const double med = median(secs);
    return med > 0 ? 2.0 * static_cast<double>(in.tc.flops) / med / 1e9 : 0.0;
  };
  const std::pair<const char*, Scheme> schemes[] = {
      {"kernel.gflops.msa-1p", Scheme::kMsa1P},
      {"kernel.gflops.msa-2p", Scheme::kMsa2P},
      {"kernel.gflops.hash-1p", Scheme::kHash1P},
      {"kernel.gflops.hash-2p", Scheme::kHash2P},
      {"kernel.gflops.mca-1p", Scheme::kMca1P},
      {"kernel.gflops.heap-1p", Scheme::kHeap1P},
      {"kernel.gflops.inner-1p", Scheme::kInner1P}};
  for (const auto& [name, s] : schemes) {
    rec.layer(name, gflops_of(s), "GFLOP/s");
  }
  const int width = omp_get_max_threads();
  omp_set_num_threads(1);
  const double g1 = gflops_of(Scheme::kAuto);
  omp_set_num_threads(width);
  rec.layer("kernel.gflops_1t", g1, "GFLOP/s");
  rec.layer("kernel.scaling_eff",
            g1 > 0 ? gflops_nt / (static_cast<double>(width) * g1) : 0.0,
            "ratio");
}

}  // namespace

int run_tricount(const Options& opt, Record& rec) {
  SetupTimes setup;
  Input in;
  std::unique_ptr<msp::Engine> engine;
  std::optional<msp::BoundMatrix<IT, VT>> lh;
  std::uint64_t graph_fp = 0;
  for (int r = 0; r < opt.setup_reps; ++r) {
    lh.reset();
    engine.reset();
    in.tc = {};
    double gen_s = 0, prep_s = 0;
    in.tc = gen_prepare(opt, &gen_s, &prep_s, &graph_fp);
    msp::Timer t;
    engine = std::make_unique<msp::Engine>();
    lh.emplace(engine->bind(in.tc.l));
    const double place_s = t.seconds();
    t.reset();
    (void)engine->multiply_scheme<PlusPair>(
        Scheme::kAuto, in.tc.l, in.tc.l, in.tc.l, msp::MaskKind::kMask,
        msp::MaskSemantics::kStructural, nullptr, &*lh, &*lh, &*lh);
    setup.add(gen_s, prep_s, place_s, t.seconds());
  }
  setup.report(rec);
  finish_input(opt, in, graph_fp, rec);
  rec.meta["tune_profile_loaded"] =
      engine->tuned_selector() != nullptr ? "true" : "false";

  const Graph& l = in.tc.l;
  std::vector<Sample> traced;
  Stats s0;
  run_phases(
      opt, rec, in.tc.flops, traced, [&] { s0 = engine->cache_stats(); },
      [&](int i, Sample& s) {
        msp::Timer t;
        Graph c;
        {
          const RequestSpan req("op", static_cast<std::uint64_t>(i) + 1);
          const ScopedSpan span("engine.multiply");
          c = engine->multiply_scheme<PlusPair>(
              Scheme::kAuto, l, l, l, msp::MaskKind::kMask,
              msp::MaskSemantics::kStructural, &s.st, &*lh, &*lh, &*lh);
        }
        s.secs = t.seconds();
        return check(opt, i, c, in.oracle);
      });
  if (opt.trace) {
    report_kernel(rec, traced);
    report_plan(rec, s0, engine->cache_stats(), traced);
    kernel_sweep(opt, rec, in, *engine, *lh, rec.end_to_end["gflops"].value);
  }
  return 0;
}

namespace {

/// Spill tier of the tiled workload: a timed local backend under a
/// directory of the run, inside the store's 256 MiB/s throttle.
struct SpillTier {
  std::filesystem::path dir;
  std::shared_ptr<TimedBackend> timed;
  std::unique_ptr<msp::ShardStore> store;

  SpillTier(const std::filesystem::path& d, std::size_t budget) : dir(d) {
    std::filesystem::create_directories(dir);
    timed = std::make_shared<TimedBackend>(
        std::make_shared<msp::MmapLocalBackend>(dir));
    msp::ShardStore::Options so;
    so.resident_budget = budget;
    so.backend = timed;
    so.throttle_mbps = 256;
    store = std::make_unique<msp::ShardStore>(so);
  }
  ~SpillTier() {
    store.reset();
    timed.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;
};

constexpr int kShards = 8;

}  // namespace

int run_tiled_spill(const Options& opt, Record& rec) {
  SetupTimes setup;
  Input in;
  std::unique_ptr<msp::TiledEngine> tiled;
  std::unique_ptr<SpillTier> tier;
  std::unique_ptr<msp::ShardedMatrix<IT, VT>> lsh;
  std::optional<msp::BoundMatrix<IT, VT>> bh;
  std::uint64_t graph_fp = 0;
  TimedBackend::Counters setup_io;
  for (int r = 0; r < opt.setup_reps; ++r) {
    bh.reset();
    lsh.reset();
    tiled.reset();
    tier.reset();
    in.tc = {};
    double gen_s = 0, prep_s = 0;
    in.tc = gen_prepare(opt, &gen_s, &prep_s, &graph_fp);
    msp::Timer t;
    {
      const std::vector<IT> ranges =
          msp::ShardedMatrix<IT, VT>::balanced_ranges(in.tc.l, kShards);
      std::size_t max_shard = 0;
      {
        const msp::ShardedMatrix<IT, VT> probe(in.tc.l, ranges);
        for (int s = 0; s < probe.shards(); ++s) {
          max_shard = std::max(max_shard, probe.bytes(s));
        }
      }
      tier = std::make_unique<SpillTier>(
          std::filesystem::path("spill-" + std::to_string(r)),
          2 * max_shard);
      lsh = std::make_unique<msp::ShardedMatrix<IT, VT>>(in.tc.l, ranges,
                                                         tier->store.get());
      tiled = std::make_unique<msp::TiledEngine>();
      tiled->set_prefetch(true);
      bh.emplace(in.tc.l);
    }
    const double place_s = t.seconds();
    t.reset();
    (void)tiled->multiply<PlusPair>(Scheme::kAuto, *lsh, in.tc.l, *lsh,
                                    msp::MaskKind::kMask,
                                    msp::MaskSemantics::kStructural,
                                    nullptr, &*bh);
    tier->store->wait_prefetches();
    setup.add(gen_s, prep_s, place_s, t.seconds());
    setup_io = tier->timed->counters();
  }
  setup.report(rec);
  finish_input(opt, in, graph_fp, rec);
  rec.meta["tune_profile_loaded"] =
      tiled->engine().tuned_selector() != nullptr ? "true" : "false";
  rec.meta["shards"] = std::to_string(kShards);
  rec.meta["resident_budget_bytes"] =
      std::to_string(tier->store->resident_budget());

  // The monolithic product every tiled result must equal bit for bit.
  const Graph& l = in.tc.l;
  const Graph mono =
      msp::Engine().multiply_scheme<PlusPair>(Scheme::kAuto, l, l, l);
  if (!same(mono, in.oracle)) {
    ++rec.attempted;
    ++rec.failed;
  }

  const msp::ShardStore& store = *tier->store;
  std::vector<Sample> traced;
  Stats s0;
  std::size_t spills0 = 0, reloads0 = 0, hits0 = 0, wasted0 = 0, failed0 = 0;
  TimedBackend::Counters io0;
  run_phases(
      opt, rec, in.tc.flops, traced,
      [&] {
        spills0 = store.stats().spills;
        reloads0 = store.stats().reloads;
        hits0 = store.stats().prefetch_hits;
        wasted0 = store.stats().prefetch_wasted;
        failed0 = store.stats().prefetch_failed;
        io0 = tier->timed->counters();
        s0 = tiled->cache_stats();
      },
      [&](int i, Sample& s) {
        msp::Timer t;
        Graph c;
        {
          const RequestSpan req("op", static_cast<std::uint64_t>(i) + 1);
          const ScopedSpan span("tiled.multiply");
          c = tiled->multiply<PlusPair>(Scheme::kAuto, *lsh, l, *lsh,
                                        msp::MaskKind::kMask,
                                        msp::MaskSemantics::kStructural,
                                        &s.st, &*bh);
        }
        s.secs = t.seconds();
        return check(opt, i, c, mono);
      });
  tier->store->wait_prefetches();
  if (opt.trace) {
    report_kernel(rec, traced);
    report_plan(rec, s0, tiled->cache_stats(), traced);
    const double n =
        traced.empty() ? 1.0 : static_cast<double>(traced.size());
    const auto& st = store.stats();
    const double reloads = static_cast<double>(st.reloads - reloads0);
    rec.layer("shard.reloads_per_call", reloads / n, "count/op");
    rec.layer("shard.spills_per_call",
              static_cast<double>(st.spills - spills0) / n, "count/op");
    rec.layer("shard.prefetch_hit_rate",
              reloads > 0
                  ? static_cast<double>(st.prefetch_hits - hits0) / reloads
                  : 0.0,
              "ratio");
    rec.layer("shard.prefetch_wasted",
              static_cast<double>(st.prefetch_wasted - wasted0) / n,
              "count/op");
    rec.layer("shard.prefetch_failed",
              static_cast<double>(st.prefetch_failed - failed0), "count");
    std::vector<double> stall;
    for (const Sample& s : traced) {
      stall.push_back((s.secs - s.st.plan_seconds - s.st.symbolic_seconds -
                       s.st.numeric_seconds - s.st.assemble_seconds) *
                      1e3);
    }
    rec.layer("shard.stall_ms", median(stall), "ms");
    const TimedBackend::Counters io1 = tier->timed->counters();
    rec.layer("storage.reads", static_cast<double>(io1.reads - io0.reads) / n,
              "count/op");
    rec.layer("storage.read_mb",
              static_cast<double>(io1.read_bytes - io0.read_bytes) / n /
                  (1024.0 * 1024.0),
              "MiB/op");
    rec.layer("storage.read_ms",
              static_cast<double>(io1.read_ns - io0.read_ns) / n / 1e6,
              "ms/op");
    rec.layer("storage.writes", static_cast<double>(setup_io.writes),
              "count");
    rec.layer("storage.write_mb",
              static_cast<double>(setup_io.write_bytes) / (1024.0 * 1024.0),
              "MiB");
    rec.layer("storage.write_ms", static_cast<double>(setup_io.write_ns) / 1e6,
              "ms");
  }
  return 0;
}

}  // namespace perfbench
