// In-memory span recorder for the traced benchmark run.
//
// Spans are opened around each call the benchmark makes into a library
// layer (Engine, TiledEngine, the storage seam, the serve Coordinator).
// Each has a name, start, end, the span that was open on the same thread
// when it began (its parent), and the request id of the operation it
// belongs to. Work on another thread (the ShardStore prefetch worker's
// storage reads) is parented to the open request's root span. Spans stay
// in memory and are written once, as Chrome trace-event JSON, when the run
// ends. With the recorder disabled a span costs one branch.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double t0_us = 0;
    double t1_us = -1;
    int parent = -1;
    std::uint64_t req = 0;
    std::uint32_t tid = 0;
  };

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Open a span; returns its id (-1 when disabled).
  int begin(const char* name) {
    if (!enabled_.load()) return -1;
    const double t = now_us();
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = name;
    s.t0_us = t;
    s.tid = thread_index();
    std::vector<int>& stack = stack_for(s.tid);
    s.parent = stack.empty() ? root_.load() : stack.back();
    s.req = req_.load();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    stack.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    const double t = now_us();
    std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1_us = t;
    std::vector<int>& stack = stack_for(s.tid);
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }

  /// Start a new request: spans opened on any thread until the next call
  /// carry `req`; spans with no open parent on their thread hang off the
  /// request's root span `root`.
  void set_request(std::uint64_t req, int root) {
    req_.store(req);
    root_.store(root);
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Closed spans from index `from` on, by name: each span's self time in
  /// ms — its duration minus the part of it covered by its child spans.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ms(
      std::size_t from = 0) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0 && s.t1_us >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0_us,
                                                              s.t1_us);
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.t1_us < 0) continue;
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      double cur_lo = 0;
      double cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.t0_us);
        hi = std::min(hi, s.t1_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      out[s.name].push_back((s.t1_us - s.t0_us - covered) / 1e3);
    }
    return out;
  }

  /// Write every closed span as Chrome trace-event JSON ("X" events).
  bool write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.t1_us < 0) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%d,"
                   "\"req\":%llu}}",
                   first ? "" : ",\n", s.name.c_str(), s.t0_us,
                   s.t1_us - s.t0_us, s.tid, i, s.parent,
                   static_cast<unsigned long long>(s.req));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double now_us() {
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - t0)
        .count();
  }

  // Caller holds mu_.
  std::uint32_t thread_index() {
    const std::thread::id me = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == me) return static_cast<std::uint32_t>(i);
    }
    threads_.push_back(me);
    stacks_.emplace_back();
    return static_cast<std::uint32_t>(threads_.size() - 1);
  }
  std::vector<int>& stack_for(std::uint32_t tid) { return stacks_[tid]; }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> req_{0};
  std::atomic<int> root_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;                // guarded by mu_
  std::vector<std::thread::id> threads_;   // guarded by mu_
  std::vector<std::vector<int>> stacks_;   // guarded by mu_, per thread
};

/// The process-wide recorder (the storage decorator and the workloads
/// share it).
inline SpanRecorder& tracer() {
  static SpanRecorder rec;
  return rec;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(tracer().begin(name)) {}
  ~ScopedSpan() { tracer().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Root span of one benchmark operation; every span opened while it is
/// alive carries its request id.
class RequestSpan {
 public:
  RequestSpan(const char* name, std::uint64_t req) : id_(-1) {
    if (!tracer().enabled()) return;
    tracer().set_request(req, -1);
    id_ = tracer().begin(name);
    tracer().set_request(req, id_);
  }
  ~RequestSpan() {
    tracer().end(id_);
    if (id_ >= 0) tracer().set_request(0, -1);
  }
  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
