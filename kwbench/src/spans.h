#ifndef KWBENCH_SRC_SPANS_H_
#define KWBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kwbench {

/// One timed call at a layer boundary. Spans of one request share
/// `request`; `parent` is 0 for a request's root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;
  /// Work counts recorded at the same boundary (e.g. CNs enumerated).
  std::map<std::string, uint64_t> counts;
};

/// Per-name totals over every recorded span.
struct LayerTotals {
  size_t spans = 0;
  /// Sum of span durations.
  double total_us = 0;
  /// Sum of durations minus the time covered by each span's children.
  double self_us = 0;
  std::map<std::string, uint64_t> counts;
};

/// Records spans in memory; the benchmark writes them out when the run
/// ends. A disabled recorder records nothing and hands out id 0, so the
/// same replay code runs traced and untraced.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  /// Closes span `id`; a no-op for id 0.
  void End(uint64_t id);
  /// Adds `value` to counter `key` of span `id`; a no-op for id 0.
  void Count(uint64_t id, const std::string& key, uint64_t value);

  /// Totals per span name, self time included.
  std::map<std::string, LayerTotals> Totals() const;

  /// Writes one JSON object per span, one per line. False on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name, uint64_t parent,
             uint64_t request)
      : recorder_(recorder), id_(recorder.Begin(name, parent, request)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void Count(const std::string& key, uint64_t value) {
    recorder_.Count(id_, key, value);
  }

 private:
  SpanRecorder& recorder_;
  const uint64_t id_;
};

}  // namespace kwbench

#endif  // KWBENCH_SRC_SPANS_H_
