#ifndef KWBENCH_SRC_REPORT_H_
#define KWBENCH_SRC_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace kwbench {

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// One metric the benchmark reports.
struct MetricSpec {
  std::string name;
  std::string unit;
  /// Workloads whose runs measure the metric. A per-layer metric whose
  /// layer a workload never calls is still printed there, as 0.
  std::vector<std::string> workloads;
};

/// The end-to-end metrics, printed by every `--trace 0` run. Each one
/// applies to every workload and is never 0.
const std::vector<MetricSpec>& EndToEndMetrics();

/// The per-layer metrics, printed by every `--trace 1` run.
const std::vector<MetricSpec>& PerLayerMetrics();

/// True when `metric` is measured on `workload`.
bool AppliesTo(const MetricSpec& metric, const std::string& workload);

/// A metric name: starts with a letter or digit, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
bool ValidMetricName(std::string_view name);

/// The nearest-rank `q`-quantile (0 < q <= 1) of `samples`: the value at
/// sorted position ceil(q * n) - 1. Returns 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// How many of `n` samples sort strictly after the nearest-rank
/// `q`-quantile position.
size_t SamplesBeyond(size_t n, double q);

/// The reporting rule for tail percentiles: at least ten samples must lie
/// beyond the reported one.
inline constexpr size_t kMinSamplesBeyond = 10;

/// The smallest sample count for which the `q`-quantile satisfies the
/// reporting rule.
size_t MinSamplesFor(double q);

/// Oracle bookkeeping for `wrong_frac`: every checked response is either
/// equal to its reference or wrong. Responses that were never checked do
/// not count.
class OracleTally {
 public:
  /// Records one checked response.
  void Record(bool agrees) {
    ++checked_;
    if (!agrees) ++wrong_;
  }
  size_t checked() const { return checked_; }
  size_t wrong() const { return wrong_; }
  /// wrong / checked; 0 when nothing was checked.
  double WrongFrac() const;
  /// 1 - WrongFrac(); 0 when nothing was checked, so a run whose oracle
  /// saw nothing can never read as fully correct.
  double AgreeFrac() const;

 private:
  size_t checked_ = 0;
  size_t wrong_ = 0;
};

/// The final line of a run: `correct`, `attempted`, `failed` and the
/// metrics of `specs` with their units, values from `values` (values of
/// other metrics are left out). A spec whose workload list excludes
/// `workload` and that has no value prints as 0. Fails with a message in
/// `error` (and returns "") when a metric that applies to `workload` has
/// no value or a non-finite one.
std::string RenderResult(const std::string& workload, bool correct,
                         uint64_t attempted, uint64_t failed,
                         const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values,
                         std::string* error);

}  // namespace kwbench

#endif  // KWBENCH_SRC_REPORT_H_
