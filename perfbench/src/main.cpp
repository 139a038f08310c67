// perfbench: the repository benchmark program. Runs one workload for a
// fixed measured time from a seed and prints one JSON run record as its
// last line of output: run metadata, determinism checks, the attempted /
// failed operation counts, and every metric it measured with its unit (a
// per-layer metric of a layer the workload does not exercise is left out;
// run.py reports it as 0). perfbench/run.py builds this binary, runs it, and turns the
// record into the benchmark's result line.
//
//   perfbench --workload tricount|stream|tiled_spill|serve --seed N
//             --seconds S [--trace 0|1] [--trace-out FILE] [--tiny]
//             [--inject-fault] [--setup-reps N]
//
// Exit status: 0 when every operation was verified, 1 when any failed its
// check or threw, 2 on a usage error.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::map<std::string, Record::Metric>& ms) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, m] : ms) {
    std::printf("%s%s:{\"value\":%s,\"unit\":%s}", first ? "" : ",",
                json_str(name).c_str(), json_num(m.value).c_str(),
                json_str(m.unit).c_str());
    first = false;
  }
  std::printf("}");
}

void print_strings(const std::map<std::string, std::string>& kv) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : kv) {
    std::printf("%s%s:%s", first ? "" : ",", json_str(k).c_str(),
                json_str(v).c_str());
    first = false;
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tricount|stream|tiled_spill|serve "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE] "
               "[--tiny] [--inject-fault] [--setup-reps N]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_val) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_val) {
      opt.trace_out = argv[++i];
    } else if (a == "--setup-reps" && has_val) {
      opt.setup_reps = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--inject-fault") {
      opt.inject_fault = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0)) return usage();

  Record rec;
  int (*run)(const Options&, Record&) = nullptr;
  if (opt.workload == "tricount") {
    run = run_tricount;
  } else if (opt.workload == "tiled_spill") {
    run = run_tiled_spill;
  } else if (opt.workload == "stream") {
    run = run_stream;
  } else if (opt.workload == "serve") {
    run = run_serve;
  } else {
    return usage();
  }

  rec.meta["workload"] = opt.workload;
  rec.meta["seed"] = std::to_string(opt.seed);
  rec.meta["seconds"] = json_num(opt.seconds);
  rec.meta["traced"] = opt.trace ? "true" : "false";
  rec.meta["omp_width"] = std::to_string(omp_get_max_threads());
  rec.meta["omp_procs"] = std::to_string(omp_get_num_procs());
  rec.meta["compiler"] = PERFBENCH_COMPILER;
  rec.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  const char* tune = std::getenv("MSP_TUNE_PROFILE");
  rec.meta["tune_profile_env"] = tune != nullptr ? tune : "";
  rec.meta["scale"] = opt.tiny ? "tiny" : "full";

  try {
    run(opt, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    ++rec.attempted;
    ++rec.failed;
  }
  if (opt.trace) {
    rec.layer("fail_rate",
              rec.attempted > 0 ? static_cast<double>(rec.failed) /
                                      static_cast<double>(rec.attempted)
                                : 1.0,
              "ratio");
    if (!opt.trace_out.empty() && !tracer().write_chrome(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  }

  std::printf("{\"meta\":");
  print_strings(rec.meta);
  std::printf(",\"checks\":");
  print_strings(rec.checks);
  std::printf(",\"attempted\":%lld,\"failed\":%lld,\"end_to_end\":",
              static_cast<long long>(rec.attempted),
              static_cast<long long>(rec.failed));
  print_metrics(rec.end_to_end);
  std::printf(",\"per_layer\":");
  print_metrics(rec.per_layer);
  std::printf("}\n");
  std::fflush(stdout);
  return rec.failed == 0 && rec.attempted > 0 ? 0 : 1;
}
