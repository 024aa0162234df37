#ifndef KWBENCH_SRC_WORKLOADS_H_
#define KWBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kwbench {

/// What one benchmark run does.
struct RunConfig {
  /// One of `WorkloadNames()`.
  std::string workload;
  /// Drives every client's query stream, the insert batches and the
  /// oracle's sample; the library only sees the generated inputs.
  uint64_t seed = 1;
  /// Length of the run's measurements: the closed loop's window, or half
  /// of it plus the serial replays when `trace` is set. Runs shorter than
  /// 15 s also shrink the serial replays and the oracle's samples.
  double seconds = 10;
  /// false: closed-loop run, end-to-end metrics, set-up timed repeatedly.
  /// true: one set-up, a closed loop of half the length plus the serial
  /// replays, per-layer metrics.
  bool trace = false;
  /// Where the traced replay's spans are written (JSON lines); empty
  /// keeps them in memory only.
  std::string trace_path;
};

/// What one run measured.
struct RunResult {
  /// Every oracle check of a ranked answer agreed with its reference.
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Measured metrics by name (see report.h for the catalog).
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// Runs `config`. Returns false with `error` set when the run could not
/// be carried out (unknown workload, a failed write, an unwritable trace
/// path).
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

}  // namespace kwbench

#endif  // KWBENCH_SRC_WORKLOADS_H_
