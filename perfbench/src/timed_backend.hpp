// StorageBackend timing decorator for the storage.* metrics.
//
// Wraps the raw backend *inside* the ShardStore's throttle (the store
// layers its ThrottledBackend over whatever backend it is given), so the
// counters see only real device work: the modeled bandwidth delay the
// throttle adds is not storage time. Counts and bytes are atomics, because
// the ShardStore prefetch worker reads through the seam concurrently with
// the calling thread; each read and write is also a `storage.read` /
// `storage.write` span when tracing is on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/storage.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

class TimedBackend : public msp::StorageBackend {
 public:
  struct Counters {
    std::uint64_t reads = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t read_ns = 0;
    std::uint64_t writes = 0;
    std::uint64_t write_bytes = 0;
    std::uint64_t write_ns = 0;
  };

  explicit TimedBackend(std::shared_ptr<msp::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  void write(const std::string& id, const void* data,
             std::size_t size) override {
    const ScopedSpan span("storage.write");
    const msp::Timer t;
    inner_->write(id, data, size);
    write_ns_ += static_cast<std::uint64_t>(t.seconds() * 1e9);
    write_bytes_ += size;
    ++writes_;
  }

  msp::ReadBuffer read(const std::string& id) override {
    const ScopedSpan span("storage.read");
    const msp::Timer t;
    msp::ReadBuffer blob = inner_->read(id);
    read_ns_ += static_cast<std::uint64_t>(t.seconds() * 1e9);
    read_bytes_ += blob.size();
    ++reads_;
    return blob;
  }

  void remove(const std::string& id) override { inner_->remove(id); }
  bool exists(const std::string& id) override { return inner_->exists(id); }
  [[nodiscard]] std::string name() const override {
    return "timed(" + inner_->name() + ")";
  }

  [[nodiscard]] Counters counters() const {
    return {reads_.load(),  read_bytes_.load(),  read_ns_.load(),
            writes_.load(), write_bytes_.load(), write_ns_.load()};
  }

 private:
  std::shared_ptr<msp::StorageBackend> inner_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> read_bytes_{0};
  std::atomic<std::uint64_t> read_ns_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> write_bytes_{0};
  std::atomic<std::uint64_t> write_ns_{0};
};

}  // namespace perfbench
