// kwbench: the kwdb serving benchmark driver.
//
//   kwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-path <file>]
//
// Prints human-readable notes, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1). See README.md.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "kwbench: %s\nusage: kwbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-path <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kwbench::RunConfig config;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0 && config.seconds <= 600)) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      trace = std::atoi(value);
      if (trace != 0 && trace != 1) return Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-path") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (config.workload.empty() || trace < 0) {
    return Usage("--workload and --trace are required");
  }
  config.trace = trace == 1;

  kwbench::RunResult result;
  std::string error;
  if (!kwbench::RunWorkload(config, &result, &error)) {
    std::fprintf(stderr, "kwbench: %s\n", error.c_str());
    return 1;
  }
  std::set<std::string> known;
  for (const auto* specs :
       {&kwbench::EndToEndMetrics(), &kwbench::PerLayerMetrics()}) {
    for (const kwbench::MetricSpec& s : *specs) {
      if (!kwbench::ValidMetricName(s.name)) {
        std::fprintf(stderr, "kwbench: invalid metric name %s\n",
                     s.name.c_str());
        return 1;
      }
      known.insert(s.name);
    }
  }
  for (const auto& [name, value] : result.metrics) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "kwbench: measured metric %s has no spec\n",
                   name.c_str());
      return 1;
    }
  }
  const std::string line = kwbench::RenderResult(
      config.workload, result.correct, result.attempted, result.failed,
      config.trace ? kwbench::PerLayerMetrics() : kwbench::EndToEndMetrics(),
      result.metrics, &error);
  if (line.empty()) {
    std::fprintf(stderr, "kwbench: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
