// Workload `serve`: the stream workload's read shape (seeded R-MAT graph,
// 4 fresh row-subset masks per query, MSA-2P) sent through
// serve::Coordinator::query to K = nproc forked mspgemm-serve workers. One
// closed-loop client, since the coordinator API is synchronous. Worker
// processes inherit the environment untouched: nothing here caps their
// OpenMP width.
//
// Every answer is checked against the in-process TiledEngine over the same
// row ranges. The serve.* layer split comes from Coordinator::stats(),
// worker_stats(k), and replays of the public slice_rows / serialize_shard
// / stitch_row_blocks steps the coordinator runs around the wire.
#include <omp.h>

#include <memory>
#include <string>

#include "common.hpp"
#include "core/shard.hpp"
#include "core/storage.hpp"
#include "core/tiled_engine.hpp"
#include "serve/serve.hpp"
#include "timed_backend.hpp"

namespace perfbench {
namespace {

using msp::Scheme;
using PlusTimes = msp::PlusTimes<VT>;

struct QuerySample {
  double secs = 0;
  std::int64_t flops = 0;
};

/// Bytes the coordinator frames for one query (all workers), rebuilt with
/// the same public helpers; returns the replay's seconds.
double replay_encode(const std::vector<const Graph*>& masks,
                     const std::vector<IT>& ranges, std::size_t* bytes) {
  const ScopedSpan span("serve.encode");
  msp::Timer t;
  std::size_t total = 0;
  for (std::size_t k = 0; k + 1 < ranges.size(); ++k) {
    for (const Graph* m : masks) {
      total += msp::detail::serialize_shard(
                   msp::slice_rows(*m, ranges[k], ranges[k + 1]))
                   .size();
    }
  }
  *bytes = total;
  return t.seconds();
}

/// Reply bytes and the stitch of the per-worker row blocks, replayed from
/// the answer; returns the stitch's seconds.
double replay_stitch(const std::vector<Graph>& results,
                     const std::vector<IT>& ranges, std::size_t* bytes) {
  std::vector<std::vector<Graph>> parts(results.size());
  std::size_t total = 0;
  for (std::size_t j = 0; j < results.size(); ++j) {
    for (std::size_t k = 0; k + 1 < ranges.size(); ++k) {
      parts[j].push_back(
          msp::slice_rows(results[j], ranges[k], ranges[k + 1]));
      total += msp::detail::serialize_shard(parts[j].back()).size();
    }
  }
  *bytes = total;
  const ScopedSpan span("serve.stitch");
  msp::Timer t;
  for (std::size_t j = 0; j < results.size(); ++j) {
    (void)msp::stitch_row_blocks(parts[j], results[j].ncols);
  }
  return t.seconds();
}

}  // namespace

int run_serve(const Options& opt, Record& rec) {
  const int scale = opt.tiny ? 10 : 16;
  const int workers = omp_get_num_procs();
  SetupTimes setup;
  Graph g;
  std::vector<IT> ranges;
  std::unique_ptr<msp::serve::Coordinator> coord;
  std::uint64_t graph_fp = 0;
  bool clean = true;
  for (int r = 0; r < opt.setup_reps; ++r) {
    if (coord != nullptr) clean = coord->shutdown() && clean;
    coord.reset();
    msp::Timer t;
    g = make_graph(scale, 8.0, opt.seed);
    const double gen_s = t.seconds();
    graph_fp = msp::pattern_fingerprint(g);
    t.reset();
    ranges = msp::ShardedMatrix<IT, VT>::balanced_ranges(g, workers);
    const double prep_s = t.seconds();
    t.reset();
    msp::serve::Coordinator::Options co;
    co.workers = workers;
    co.worker_cmd = PERFBENCH_SERVE_BIN;
    coord = std::make_unique<msp::serve::Coordinator>(co);
    coord->place(g, g, ranges);
    const double place_s = t.seconds();
    t.reset();
    {
      const Graph mask = row_subset_mask(g, opt.seed, 2, kMaskRowsOneIn);
      (void)coord->query({&mask}, msp::serve::QueryConfig{});
    }
    setup.add(gen_s, prep_s, place_s, t.seconds());
  }
  setup.report(rec);
  rec.meta["input"] = "rmat" + std::to_string(scale) + "-ef8";
  rec.meta["serve_workers"] = std::to_string(workers);
  rec.meta["tune_profile_loaded"] = "false";  // workers run default engines

  // The oracle: the in-process TiledEngine over the placement's ranges.
  msp::TiledEngine oracle;
  const msp::ShardedMatrix<IT, VT> gsh(g, ranges);
  const msp::serve::QueryConfig qcfg;  // MSA-2P, plus-times, structural
  std::uint64_t stream = 16;

  std::vector<double> encode_ms, stitch_ms, query_ms;
  std::size_t request_bytes = 0, reply_bytes = 0;
  auto phase = [&](std::vector<QuerySample>& out, bool replay) {
    closed_loop(
        opt.seconds,
        [&](int i) -> double {
          const std::uint64_t req = ++stream;
          try {
            std::vector<Graph> masks;
            std::vector<const Graph*> ptrs;
            for (int j = 0; j < kMasksPerRead; ++j) {
              masks.push_back(
                  row_subset_mask(g, opt.seed, ++stream, kMaskRowsOneIn));
            }
            QuerySample s;
            for (const Graph& mk : masks) {
              ptrs.push_back(&mk);
              s.flops += masked_flops(g, g, mk);
            }
            std::vector<Graph> got;
            msp::Timer t;
            {
              const RequestSpan rq("op.query", req);
              const ScopedSpan span("serve.query");
              got = coord->query(ptrs, qcfg);
            }
            s.secs = t.seconds();
            if (opt.inject_fault && i == 0) corrupt(got[0]);
            if (got.size() != masks.size()) return -1.0;
            std::size_t nnz = 0;
            for (std::size_t j = 0; j < masks.size(); ++j) {
              const Graph want = oracle.multiply<PlusTimes>(
                  Scheme::kMsa2P, gsh, g, masks[j]);
              if (!same(got[j], want)) return -1.0;
              nnz += want.nnz();
            }
            if (rec.checks.count("flops") == 0) {
              std::uint64_t fp = graph_fp;
              for (const Graph& mk : masks) fp ^= msp::pattern_fingerprint(mk);
              rec.checks["input_fingerprint"] = hex64(fp);
              rec.checks["flops"] = std::to_string(s.flops);
              rec.checks["output_nnz"] = std::to_string(nnz);
            }
            if (replay) {
              const RequestSpan rq("replay", req);
              std::size_t req_b = 0, rep_b = 0;
              const double enc = replay_encode(ptrs, ranges, &req_b);
              const double sti = replay_stitch(got, ranges, &rep_b);
              encode_ms.push_back(enc * 1e3);
              stitch_ms.push_back(sti * 1e3);
              query_ms.push_back(s.secs * 1e3);
              request_bytes += req_b;
              reply_bytes += rep_b;
            }
            out.push_back(s);
            return s.secs;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "query %d threw: %s\n", i, e.what());
            return -1.0;
          }
        },
        rec);
  };

  std::vector<QuerySample> queries;
  phase(queries, false);
  std::vector<double> secs, flops;
  for (const QuerySample& s : queries) {
    secs.push_back(s.secs);
    flops.push_back(static_cast<double>(s.flops));
  }
  rec.e2e("gflops", read_gflops(flops, secs), "GFLOP/s");
  record_latency(rec, "query_ms", secs, true);
  rec.e2e("ops_per_s", median_throughput({secs}), "1/s");

  if (opt.trace) {
    const msp::serve::Coordinator::Stats c0 = coord->stats();
    std::vector<msp::serve::WorkerStats> w0;
    for (int k = 0; k < workers; ++k) w0.push_back(coord->worker_stats(k));
    std::vector<QuerySample> traced;
    tracer().set_enabled(true);
    phase(traced, true);
    tracer().set_enabled(false);
    const msp::serve::Coordinator::Stats c1 = coord->stats();
    double hits = 0, misses = 0;
    for (int k = 0; k < workers; ++k) {
      const msp::serve::WorkerStats w1 = coord->worker_stats(k);
      hits += static_cast<double>(w1.plan_hits - w0[k].plan_hits);
      misses += static_cast<double>(w1.plan_misses - w0[k].plan_misses);
    }
    std::vector<double> tms;
    for (const QuerySample& s : traced) tms.push_back(s.secs * 1e3);
    report_trace_overhead(rec, median(secs) * 1e3, median(tms));
    const double n =
        static_cast<double>(std::max<std::size_t>(1, traced.size()));
    std::vector<double> roundtrip;
    for (std::size_t q = 0; q < query_ms.size(); ++q) {
      roundtrip.push_back(query_ms[q] - encode_ms[q] - stitch_ms[q]);
    }
    rec.layer("serve.encode_ms", median(encode_ms), "ms");
    rec.layer("serve.stitch_ms", median(stitch_ms), "ms");
    rec.layer("serve.roundtrip_ms", median(roundtrip), "ms");
    rec.layer("serve.request_mb",
              static_cast<double>(request_bytes) / n / (1024.0 * 1024.0),
              "MiB/op");
    rec.layer("serve.reply_mb",
              static_cast<double>(reply_bytes) / n / (1024.0 * 1024.0),
              "MiB/op");
    rec.layer("serve.masks_routed",
              static_cast<double>(c1.masks_routed - c0.masks_routed) / n,
              "count/op");
    rec.layer("serve.worker_restarts",
              static_cast<double>(c1.worker_restarts), "count");
    rec.layer("serve.worker_plan_hits", hits / n, "count/op");
    rec.layer("serve.worker_plan_misses", misses / n, "count/op");
    if (!traced.empty()) {
      rec.layer("kernel.flops", static_cast<double>(traced.back().flops),
                "count");
    }

    // Placement writes, replayed through the timed seam: the storage cost
    // the coordinator pays once per set-up (B plus one block per worker).
    const std::filesystem::path dir("place-replay");
    std::filesystem::create_directories(dir);
    {
      TimedBackend timed_io(std::make_shared<msp::LocalDirBackend>(dir));
      const std::vector<std::byte> b = msp::detail::serialize_shard(g);
      timed_io.write("b.bin", b.data(), b.size());
      for (int k = 0; k < workers; ++k) {
        const std::vector<std::byte> blk = msp::detail::serialize_shard(
            msp::slice_rows(g, ranges[static_cast<std::size_t>(k)],
                            ranges[static_cast<std::size_t>(k) + 1]));
        timed_io.write("a-" + std::to_string(k), blk.data(), blk.size());
      }
      const TimedBackend::Counters io = timed_io.counters();
      rec.layer("storage.writes", static_cast<double>(io.writes), "count");
      rec.layer("storage.write_mb",
                static_cast<double>(io.write_bytes) / (1024.0 * 1024.0),
                "MiB");
      rec.layer("storage.write_ms", static_cast<double>(io.write_ns) / 1e6,
                "ms");
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  clean = coord->shutdown() && clean;
  coord.reset();
  if (!clean) {
    ++rec.attempted;
    ++rec.failed;
    std::fprintf(stderr, "serve: a worker did not shut down cleanly\n");
  }
  rec.e2e("peak_rss_mb", peak_rss_mib(true), "MiB");
  return 0;
}

}  // namespace perfbench
