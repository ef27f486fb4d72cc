// Spans for the traced run. The benchmark opens a span around each public
// call it makes into the program (Extract, the three engine stages,
// Submit -> future ready, IngestBatch, Compact, SaveSnapshot,
// OpenSnapshot), keeps them in memory, writes them out when the run ends,
// and turns them into per-layer self time. A disabled tracer records
// nothing and reads no clock.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  // Static string: one of the call names above.
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span.
  uint64_t request = 0;  // Shared by every span of one request.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled), reserved when a span opens so its
  /// children can name it as parent before it is recorded.
  uint64_t NewId() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Stores a finished span. Thread-safe; a no-op when disabled.
  void Record(const Span& span);

  /// Per span name: summed self time (duration minus the part covered by
  /// its child spans) and the number of spans.
  struct Layer {
    double self_seconds = 0.0;
    size_t spans = 0;
  };
  std::map<std::string, Layer> SelfTimes() const;

  /// Writes every span as a JSON array (times in microseconds since the
  /// tracer was made). False when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Opens a span on construction and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer) {
    if (!tracer_->enabled()) return;
    span_.name = name;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.start = Clock::now();
  }
  ~ScopedSpan() {
    if (!tracer_->enabled()) return;
    span_.end = Clock::now();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
