// Timing primitives of the benchmark: percentiles that carry their sample
// count, and an in-memory span recorder with self-time accounting.
//
// Spans sit around the benchmark's own calls into each layer of the
// program. Each thread appends to its own log (no locking on the hot path);
// the logs are merged and written out once, when the run ends.
#ifndef SHEDBENCH_TRACE_H_
#define SHEDBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace shedbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One percentile with the evidence behind it: `samples` values in total,
/// `beyond` of them strictly after the nearest-rank position.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  size_t groups = 1;
  /// At least ten samples lie beyond the percentile, so it is not set by
  /// the single worst value.
  bool Supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile q in (0, 1] of `values` (any order). Empty
/// input gives a zero-sample result.
Percentile PercentileOf(std::vector<double> values, double q);

/// Median over the non-empty `groups` of each group's percentile q. A host
/// stall that hits one group moves only that group's value. `samples` counts
/// every group; `beyond` is the smallest per-group count beyond the
/// percentile, so Supported() holds only when it holds in every group.
Percentile MedianOfGroups(const std::vector<std::vector<double>>& groups,
                          double q);

/// Median of `values` (mean of the middle two for an even count).
double Median(std::vector<double> values);

/// One recorded interval. `parent` indexes the same thread's log (-1 for a
/// root span); `request` groups the spans of one request or pass.
struct Span {
  const char* name = "";  // string literal: static storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Self time of every span in `log`: its duration minus the part of its
/// interval that its direct children cover (overlapping children counted
/// once, child time outside the parent ignored).
std::vector<int64_t> SelfTimes(const std::vector<Span>& log);

/// Process-wide span recorder. Disabled spans cost one branch.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// disabled). Spans must close in LIFO order per thread.
  static int64_t Open(const char* name, uint64_t request);
  static void Close(int64_t index);

  /// Drops every recorded span (logs stay registered).
  static void Clear();

  /// Self times and durations of the spans named `name`; call only after
  /// every recording thread has finished.
  static std::vector<double> SelfTimesNs(const char* name);
  static std::vector<double> DurationsNs(const char* name);
  /// Summed durations of spans named `name`, one total per request id
  /// (ascending request order).
  static std::vector<double> TotalsByRequestNs(const char* name);

  /// Writes every span as one JSON object per line; false on I/O error.
  static bool WriteJsonLines(const std::string& path);
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request = 0)
      : index_(Tracer::Open(name, request)) {}
  ~ScopedSpan() { Tracer::Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

/// Runs the percentile and self-time self-tests; prints failures to stderr
/// and returns false when any check fails.
bool RunSelfTests();

}  // namespace shedbench

#endif  // SHEDBENCH_TRACE_H_
