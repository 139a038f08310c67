// Workload `stream`: an in-process graph service on a seeded R-MAT graph,
// one closed-loop client, three reads to one write.
//
//  * read: one Engine::multiply_batch (MSA-2P) of 4 fresh seeded row-subset
//    masks (~1/256 of the rows each) over the live graph — fresh masks make
//    every read pay fingerprints, flops, plan build and partition;
//  * write: a 0.1%-of-nnz edit burst confined to one row window, applied
//    through Engine::update, then the bound standing query M ⊙ (A·B) is
//    refreshed, which goes through the engine's incremental result splice.
//
// Each read is checked against cold per-mask Engine products over the rows
// its masks select; each write's refreshed result against a cold Engine
// product of the written rows and the previous verified result elsewhere;
// and each phase ends with a full cold rebuild of the standing query.
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common.hpp"
#include "core/engine.hpp"
#include "matrix/delta.hpp"

namespace perfbench {
namespace {

using msp::MaskedSpgemmStats;
using msp::Scheme;
using PlusTimes = msp::PlusTimes<VT>;
using Stats = msp::ExecutionContext::CacheStats;
using Edit = msp::EdgeUpdate<IT, VT>;

constexpr double kEditShare = 0.001;  // edits per burst, as a share of nnz

/// The rows `rows` (ascending) of `a`, as a |rows| x ncols CSR.
Graph gather_rows(const Graph& a, const std::vector<IT>& rows) {
  std::vector<IT> rowptr{0};
  std::vector<IT> colids;
  std::vector<VT> values;
  for (IT i : rows) {
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      colids.push_back(a.colids[p]);
      values.push_back(a.values[p]);
    }
    rowptr.push_back(static_cast<IT>(colids.size()));
  }
  return Graph(static_cast<IT>(rows.size()), a.ncols, std::move(rowptr),
               std::move(colids), std::move(values));
}

/// Rows [lo, hi) of `x` and `y` hold the same entries (compared in place).
bool same_rows(const Graph& x, const Graph& y, IT lo, IT hi) {
  const IT xo = x.rowptr[lo];
  const IT yo = y.rowptr[lo];
  for (IT i = lo + 1; i <= hi; ++i) {
    if (x.rowptr[i] - xo != y.rowptr[i] - yo) return false;
  }
  const IT n = x.rowptr[hi] - xo;
  return std::equal(x.colids.begin() + xo, x.colids.begin() + xo + n,
                    y.colids.begin() + yo) &&
         std::equal(x.values.begin() + xo, x.values.begin() + xo + n,
                    y.values.begin() + yo);
}

/// The live service state: dynamic A, static B and standing-query mask M,
/// their bound handles, and the engine that owns the plans.
struct Service {
  std::unique_ptr<msp::DeltaMatrix<IT, VT>> dm;
  Graph b, m;
  std::unique_ptr<msp::Engine> engine;
  std::optional<msp::BoundMatrix<IT, VT>> ah, bh, mh;
};

/// One seeded edit burst: rows from one random window, ~1/3 deletes of
/// present edges, the rest inserts (the locality model of
/// bench/dynamic_updates.cpp).
std::vector<Edit> edit_burst(const Graph& live, std::size_t n,
                             std::uint64_t seed, std::uint64_t stream) {
  msp::Xoshiro256 rng(seed, stream);
  const auto nrows = static_cast<std::uint64_t>(live.nrows);
  const std::uint64_t window =
      std::min<std::uint64_t>(nrows, std::max<std::uint64_t>(256, n));
  const std::uint64_t w0 = window >= nrows ? 0 : rng.next_below(nrows - window);
  std::vector<Edit> edits;
  edits.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    Edit u;
    u.row = static_cast<IT>(w0 + rng.next_below(window));
    const auto lo = static_cast<std::size_t>(live.rowptr[u.row]);
    const auto hi = static_cast<std::size_t>(live.rowptr[u.row + 1]);
    if (rng.next_double() < 0.33 && hi > lo) {
      u.col = live.colids[lo + rng.next_below(hi - lo)];
      u.remove = true;
    } else {
      u.col = static_cast<IT>(
          rng.next_below(static_cast<std::uint64_t>(live.ncols)));
      u.value = static_cast<VT>(1 + rng.next_below(9));
    }
    edits.push_back(u);
  }
  return edits;
}

/// A cold Engine product for the checks: a fresh Engine per call, with B
/// (static for the whole run) passed through a handle the checks own, so
/// each check does not rehash it.
Graph cold_product(const Graph& a, const msp::BoundMatrix<IT, VT>& b,
                   const Graph& m) {
  msp::Engine cold;
  return cold.multiply_scheme<PlusTimes>(
      Scheme::kMsa2P, a, b.matrix(), m, msp::MaskKind::kMask,
      msp::MaskSemantics::kStructural, nullptr, nullptr, &b, nullptr);
}

/// Checks a refreshed standing-query result without a full rebuild per
/// write: the written rows [lo, hi) against a cold Engine product of just
/// those rows, every other row against the previous verified result
/// (masked products are row-local, and only rows in [lo, hi) changed).
/// The run also ends with one full cold rebuild (see run_stream).
bool check_refresh(const Graph& c, const Graph& live, const Service& svc,
                   const msp::BoundMatrix<IT, VT>& b, IT lo, IT hi,
                   const Graph& prev) {
  if (c.nrows != prev.nrows || c.ncols != prev.ncols || lo > hi) return false;
  const Graph want = cold_product(msp::slice_rows(live, lo, hi), b,
                                  msp::slice_rows(svc.m, lo, hi));
  return same(msp::slice_rows(c, lo, hi), want) &&
         same_rows(c, prev, IT{0}, lo) && same_rows(c, prev, hi, c.nrows);
}

/// Checks one read's result against a cold Engine product (the per-mask
/// multiply_scheme path, not the batch path) over just the rows the mask
/// selects; every other row of the result must be empty.
bool check_read(const Graph& out, const Graph& live,
                const msp::BoundMatrix<IT, VT>& b, const Graph& mask) {
  if (out.nrows != mask.nrows || out.ncols != mask.ncols) return false;
  std::vector<IT> rows;
  for (IT i = 0; i < mask.nrows; ++i) {
    if (mask.rowptr[i] != mask.rowptr[i + 1]) rows.push_back(i);
  }
  const Graph got = gather_rows(out, rows);
  if (got.nnz() != out.nnz()) return false;
  return same(got,
              cold_product(gather_rows(live, rows), b, gather_rows(mask, rows)));
}

struct ReadSample {
  double secs = 0;
  std::int64_t flops = 0;
  MaskedSpgemmStats st;
};

struct WriteSample {
  double secs = 0;
  bool compacted = false;
};

}  // namespace

int run_stream(const Options& opt, Record& rec) {
  const int scale = opt.tiny ? 10 : 16;
  const double ef = 8.0;
  SetupTimes setup;
  Service svc;
  std::size_t burst = 0;
  std::uint64_t graph_fp = 0;
  for (int r = 0; r < opt.setup_reps; ++r) {
    svc.ah.reset();  // handles first: they refer to the matrices
    svc.bh.reset();
    svc.mh.reset();
    svc = Service{};
    msp::Timer t;
    Graph g = make_graph(scale, ef, opt.seed);
    const double gen_s = t.seconds();
    graph_fp = msp::pattern_fingerprint(g);
    t.reset();
    svc.b = g;
    svc.m = g;
    svc.dm = std::make_unique<msp::DeltaMatrix<IT, VT>>(std::move(g));
    const double prep_s = t.seconds();
    t.reset();
    svc.engine = std::make_unique<msp::Engine>();
    svc.ah.emplace(svc.dm->matrix());
    svc.bh.emplace(svc.b);
    svc.mh.emplace(svc.m);
    const double place_s = t.seconds();
    t.reset();
    {
      // One edit switches A's handle to its dirty-log identity; the first
      // standing query builds the plan and the splice's cached result; one
      // read warms the batch path.
      const Graph& live = svc.dm->matrix();
      const std::vector<Edit> one = edit_burst(live, 1, opt.seed, 1);
      (void)svc.engine->update(*svc.dm, *svc.ah, std::span<const Edit>(one));
      (void)svc.engine->multiply_scheme<PlusTimes>(
          Scheme::kMsa2P, live, svc.b, svc.m, msp::MaskKind::kMask,
          msp::MaskSemantics::kStructural, nullptr, &*svc.ah, &*svc.bh,
          &*svc.mh);
      const Graph mask = row_subset_mask(live, opt.seed, 2, kMaskRowsOneIn);
      const std::vector<const Graph*> masks{&mask};
      (void)svc.engine->multiply_batch<PlusTimes>(Scheme::kMsa2P, live, svc.b,
                                                  masks);
    }
    setup.add(gen_s, prep_s, place_s, t.seconds());
  }
  setup.report(rec);
  burst = std::max<std::size_t>(
      1, static_cast<std::size_t>(kEditShare *
                                  static_cast<double>(svc.dm->nnz())));
  rec.meta["input"] = "rmat" + std::to_string(scale) + "-ef8";
  rec.meta["edits_per_write"] = std::to_string(burst);
  rec.meta["tune_profile_loaded"] =
      svc.engine->tuned_selector() != nullptr ? "true" : "false";

  msp::Engine& eng = *svc.engine;
  const Graph& live = svc.dm->matrix();
  std::uint64_t stream = 16;  // op inputs draw streams from here on
  // The last verified standing-query result, seeded by a cold rebuild.
  Graph standing = msp::Engine().multiply_scheme<PlusTimes>(
      Scheme::kMsa2P, live, svc.b, svc.m);
  const msp::BoundMatrix<IT, VT> b_ref(svc.b);

  // One closed-loop phase: reads and writes 3:1.
  auto phase = [&](std::vector<ReadSample>& reads,
                   std::vector<WriteSample>& writes) {
    closed_loop(
        opt.seconds,
        [&](int i) -> double {
          const std::uint64_t req = ++stream;
          try {
            if (i % 4 == 3) {
              const std::vector<Edit> edits =
                  edit_burst(live, burst, opt.seed, stream);
              WriteSample s;
              Graph c;
              IT lo = 0, hi = 0;
              msp::Timer t;
              {
                const RequestSpan rq("op.write", req);
                msp::DeltaUpdateResult<IT> res;
                {
                  const ScopedSpan span("delta.apply");
                  res = eng.update(*svc.dm, *svc.ah,
                                   std::span<const Edit>(edits));
                }
                s.compacted = res.compacted;
                lo = res.row_begin;
                hi = res.row_end;
                const ScopedSpan span("delta.refresh");
                c = eng.multiply_scheme<PlusTimes>(
                    Scheme::kMsa2P, live, svc.b, svc.m, msp::MaskKind::kMask,
                    msp::MaskSemantics::kStructural, nullptr, &*svc.ah,
                    &*svc.bh, &*svc.mh);
              }
              s.secs = t.seconds();
              if (opt.inject_fault && i == 3) corrupt(c);
              if (!check_refresh(c, live, svc, b_ref, lo, hi, standing)) {
                // Re-seed from a cold rebuild so one bad result does not
                // fail every later row comparison.
                standing = msp::Engine().multiply_scheme<PlusTimes>(
                    Scheme::kMsa2P, live, svc.b, svc.m);
                return -1.0;
              }
              standing = std::move(c);
              writes.push_back(s);
              return s.secs;
            }
            std::vector<Graph> masks;
            std::vector<const Graph*> ptrs;
            for (int j = 0; j < kMasksPerRead; ++j) {
              masks.push_back(row_subset_mask(live, opt.seed, ++stream,
                                              kMaskRowsOneIn));
            }
            ReadSample s;
            for (const Graph& mk : masks) {
              ptrs.push_back(&mk);
              s.flops += masked_flops(live, svc.b, mk);
            }
            std::vector<Graph> outs;
            msp::Timer t;
            {
              const RequestSpan rq("op.read", req);
              const ScopedSpan span("engine.multiply_batch");
              outs = eng.multiply_batch<PlusTimes>(
                  Scheme::kMsa2P, live, svc.b, ptrs, msp::MaskKind::kMask,
                  msp::MaskSemantics::kStructural, &s.st);
            }
            s.secs = t.seconds();
            if (opt.inject_fault && i == 0) corrupt(outs[0]);
            if (rec.checks.count("flops") == 0) {
              std::uint64_t fp = graph_fp;
              std::size_t nnz = 0;
              for (const Graph& mk : masks) {
                fp ^= msp::pattern_fingerprint(mk);
              }
              for (const Graph& o : outs) nnz += o.nnz();
              rec.checks["input_fingerprint"] = hex64(fp);
              rec.checks["flops"] = std::to_string(s.flops);
              rec.checks["output_nnz"] = std::to_string(nnz);
            }
            if (outs.size() != masks.size()) return -1.0;
            for (std::size_t j = 0; j < masks.size(); ++j) {
              if (!check_read(outs[j], live, b_ref, masks[j])) return -1.0;
            }
            reads.push_back(s);
            return s.secs;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "op %d threw: %s\n", i, e.what());
            return -1.0;
          }
        },
        rec);
  };

  // The standing query over the final graph, rebuilt cold, must equal the
  // last refreshed result.
  auto final_check = [&] {
    ++rec.attempted;
    const Graph want = msp::Engine().multiply_scheme<PlusTimes>(
        Scheme::kMsa2P, live, svc.b, svc.m);
    if (!same(standing, want)) ++rec.failed;
  };

  std::vector<ReadSample> reads;
  std::vector<WriteSample> writes;
  phase(reads, writes);
  final_check();
  std::vector<double> read_secs, read_flops, write_secs;
  for (const ReadSample& s : reads) {
    read_secs.push_back(s.secs);
    read_flops.push_back(static_cast<double>(s.flops));
  }
  for (const WriteSample& s : writes) write_secs.push_back(s.secs);
  rec.e2e("gflops", read_gflops(read_flops, read_secs), "GFLOP/s");
  record_latency(rec, "query_ms", read_secs, true);
  rec.e2e("ops_per_s", median_throughput({read_secs, write_secs}), "1/s");
  rec.e2e("peak_rss_mb", peak_rss_mib(false), "MiB");
  if (!opt.trace) return 0;

  record_latency(rec, "update_ms", write_secs, false);
  const Stats s0 = eng.cache_stats();
  const std::size_t mark = tracer().size();
  std::vector<ReadSample> treads;
  std::vector<WriteSample> twrites;
  tracer().set_enabled(true);
  phase(treads, twrites);
  tracer().set_enabled(false);
  final_check();
  const Stats s1 = eng.cache_stats();
  std::vector<double> traced_read_ms;
  for (const ReadSample& s : treads) traced_read_ms.push_back(s.secs * 1e3);
  report_trace_overhead(rec, median(read_secs) * 1e3, median(traced_read_ms));

  std::vector<double> sym, num, asmb, tight, build;
  for (const ReadSample& s : treads) {
    sym.push_back(s.st.symbolic_seconds * 1e3);
    num.push_back(s.st.numeric_seconds * 1e3);
    asmb.push_back(s.st.assemble_seconds * 1e3);
    tight.push_back(s.st.bound_tightness());
    build.push_back(s.st.plan_seconds * 1e3);
  }
  rec.layer("kernel.symbolic_ms", median(sym), "ms");
  rec.layer("kernel.numeric_ms", median(num), "ms");
  rec.layer("kernel.assemble_ms", median(asmb), "ms");
  rec.layer("kernel.bound_tightness", median(tight), "ratio");
  if (!treads.empty()) {
    rec.layer("kernel.flops", static_cast<double>(treads.back().flops),
              "count");
  }
  rec.layer("plan.build_ms", median(build), "ms");
  const double ops = static_cast<double>(
      std::max<std::size_t>(1, treads.size() + twrites.size()));
  auto per_op = [&](std::size_t a, std::size_t b) {
    return static_cast<double>(b - a) / ops;
  };
  rec.layer("plan.hits", per_op(s0.plan_hits, s1.plan_hits), "count/op");
  rec.layer("plan.misses", per_op(s0.plan_misses, s1.plan_misses), "count/op");
  rec.layer("plan.fingerprints",
            per_op(s0.fingerprints_computed, s1.fingerprints_computed),
            "count/op");
  rec.layer("plan.partial_refreshes",
            per_op(s0.plan_partial_refreshes, s1.plan_partial_refreshes),
            "count/op");
  rec.layer("plan.rows_refreshed",
            per_op(s0.plan_rows_refreshed, s1.plan_rows_refreshed), "rows/op");

  const auto self = tracer().self_ms(mark);
  auto med_self = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  rec.layer("engine.batch_ms", med_self("engine.multiply_batch"), "ms");
  const std::size_t calls = s1.batch_calls - s0.batch_calls;
  rec.layer("engine.batch_masks",
            calls > 0 ? static_cast<double>(s1.batch_masks - s0.batch_masks) /
                            static_cast<double>(calls)
                      : 0.0,
            "masks/call");
  rec.layer("delta.apply_ms", med_self("delta.apply"), "ms");
  rec.layer("delta.refresh_ms", med_self("delta.refresh"), "ms");
  std::size_t compactions = 0;
  for (const WriteSample& s : twrites) compactions += s.compacted ? 1 : 0;
  rec.layer("delta.compactions", static_cast<double>(compactions), "count");
  const std::size_t splices = s1.result_splices - s0.result_splices;
  const double nw =
      static_cast<double>(std::max<std::size_t>(1, twrites.size()));
  rec.layer("delta.splices", static_cast<double>(splices) / nw, "count/write");
  rec.layer("delta.splice_rows",
            splices > 0 ? static_cast<double>(s1.result_rows_recomputed -
                                              s0.result_rows_recomputed) /
                              static_cast<double>(splices)
                        : 0.0,
            "rows/splice");
  std::size_t out_nnz = 0;
  if (!treads.empty()) out_nnz = treads.back().st.output_nnz;
  rec.layer("kernel.output_nnz", static_cast<double>(out_nnz), "count");
  return 0;
}

}  // namespace perfbench
