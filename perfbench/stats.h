// Statistics and tracing helpers of the HTAP benchmark: the percentile rule,
// the per-thread span buffer, and the self-time arithmetic over spans.
// Header-only so the unit test needs neither the engine nor the benchmark binary.

#ifndef LASER_PERFBENCH_STATS_H_
#define LASER_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile: a tail read off fewer samples is noise, not a measurement.
constexpr uint64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `samples` (sorted in place). Returns nullopt
/// when fewer than kMinSamplesBeyond samples lie above the rank, i.e. when
/// the sample cannot support this percentile.
inline std::optional<double> Percentile(std::vector<double>* samples,
                                        double p) {
  const uint64_t n = samples->size();
  if (n == 0 || p <= 0 || p > 100) return std::nullopt;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * n / 100.0));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  return (*samples)[rank - 1];
}

/// One traced call. `parent` indexes the same thread's buffer (-1: a
/// top-level span). Times are steady-clock nanoseconds.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op_id = 0;
  int32_t parent = -1;
  uint32_t name = 0;
};

/// Preallocated, single-writer span buffer: one per client thread, so the
/// hot path takes no lock. Spans past the capacity are counted, not kept.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span nested in the currently open one; returns its index
  /// (-1 when the buffer is full).
  int32_t Begin(uint32_t name, uint64_t op_id) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    Span span;
    span.name = name;
    span.op_id = op_id;
    span.parent = open_;
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(span);
    open_ = index;
    spans_.back().start_ns = NowNanos();
    return index;
  }

  void End(int32_t index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNanos();
    open_ = spans_[index].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint64_t dropped_ = 0;
};

/// Aggregate over every span of one name.
struct SpanTotals {
  uint64_t count = 0;
  double self_us = 0;                 ///< duration minus children, summed
  std::vector<double> durations_us;   ///< inclusive, per span
};

/// A span's self time is its duration minus the time its children cover.
/// Children of one thread run inside the parent and never overlap each
/// other, so the covered time is the sum of their durations. Returns per-
/// name totals; `top_level_us` receives the summed duration of the spans
/// without a parent (the thread time the trace accounts for).
inline std::map<uint32_t, SpanTotals> SelfTimes(const std::vector<Span>& spans,
                                                double* top_level_us) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_us[span.parent] += (span.end_ns - span.start_ns) / 1e3;
    }
  }
  std::map<uint32_t, SpanTotals> totals;
  *top_level_us = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration_us = (span.end_ns - span.start_ns) / 1e3;
    SpanTotals& total = totals[span.name];
    ++total.count;
    total.self_us += duration_us - child_us[i];
    total.durations_us.push_back(duration_us);
    if (span.parent < 0) *top_level_us += duration_us;
  }
  return totals;
}

}  // namespace perfbench

#endif  // LASER_PERFBENCH_STATS_H_
