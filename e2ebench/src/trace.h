// Spans recorded by the benchmark around its calls into each layer's
// public API (the program itself is not instrumented).
//
// A Span is also the benchmark's stopwatch: End() returns the elapsed
// seconds whether or not a tracer records it, so the untraced and traced
// passes time set-up steps with the same code. Recorded spans stay in
// memory (bounded) and are written as Chrome trace-event JSON at the end
// of the run.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace e2ebench {

class Tracer {
 public:
  struct Record {
    const char* name;  ///< a string literal
    uint64_t id;
    uint64_t parent;    ///< 0 for a root span
    uint64_t trace;     ///< spans of one query (or one set-up) share it
    int64_t start_ns;   ///< steady_clock, relative to the tracer's origin
    int64_t end_ns;
    uint32_t thread;
  };

  Tracer();

  uint64_t NewId();
  /// Nanoseconds from the tracer's creation to `t`.
  int64_t SinceOrigin(std::chrono::steady_clock::time_point t) const;
  void Add(const Record& record);

  /// Writes the spans as a Chrome trace-event document.
  paxml::Status WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 1 << 20;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_
  size_t dropped_ = 0;         // guarded by mu_
  uint64_t next_id_ = 1;       // guarded by mu_
};

/// Times one call into a layer; records it when `tracer` is non-null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t trace = 0,
       uint64_t parent = 0);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (first call only) and returns its duration in seconds.
  double End();

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t trace_;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
