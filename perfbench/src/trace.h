// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call into a layer's public function: name, start, end,
// parent span, request id, and the number of operations it covers (a span
// around a block of 1000 kernel calls has count 1000). Spans are appended to
// per-thread buffers while the run is in progress and only summarised or
// written out after it ends. With tracing disabled a Span costs one relaxed
// atomic load.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline int64_t ToNanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by the spans of one request
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 1;
};

/// Aggregate of every span with one name.
struct SpanStats {
  size_t spans = 0;
  uint64_t ops = 0;             // sum of SpanRecord::count
  std::vector<double> dur_us;   // per-span durations
  double total_us = 0.0;
  double self_us = 0.0;         // total minus the time child spans cover

  double PerOpMicros() const { return ops == 0 ? 0.0 : total_us / ops; }
};

class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The innermost open Span on this thread (0 when none).
  static uint64_t Current();

  /// Every span recorded so far, from all threads. Call once load threads
  /// have been joined.
  static std::vector<SpanRecord> Collect();

  /// Per-name durations, op counts, totals and self times.
  static std::map<std::string, SpanStats> Summarise(
      const std::vector<SpanRecord>& spans);

  /// Writes the spans as one JSON document.
  static bool WriteJson(const std::vector<SpanRecord>& spans,
                        const std::string& path);

 private:
  friend class Span;
  static uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Appends a finished span to this thread's buffer.
  static void Record(const SpanRecord& span);

  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> next_id_;
};

/// RAII span around one call. Parent defaults to the thread's innermost
/// open span; the request id defaults to the parent's.
class Span {
 public:
  explicit Span(const char* name, uint64_t count = 1)
      : Span(name, Tracer::Current(), 0, count) {}
  Span(const char* name, uint64_t parent, uint64_t request,
       uint64_t count = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  uint64_t count_ = 1;
  uint64_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench
