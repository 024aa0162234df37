// Self-tests for the benchmark's helpers and its metric catalog.
//
//   kwbench_selftest <path to BENCHMARK.json>
//
// Checks the percentile rule, the metric-name charset, the wrong_frac
// accounting, that BENCHMARK.json names exactly the catalog's workloads
// and metrics, and — by running every workload briefly, untraced and
// traced — that each run measures every metric that applies to it.
// Exits 0 when every check passes.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestPercentileRule() {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);
  Check(kwbench::Percentile(samples, 0.95) == 190, "p95 of 1..200 is 190");
  Check(kwbench::Percentile(samples, 0.5) == 100, "p50 of 1..200 is 100");
  Check(kwbench::Percentile({7}, 0.95) == 7, "percentile of one sample");
  Check(kwbench::Percentile({}, 0.5) == 0, "percentile of no samples");
  Check(kwbench::SamplesBeyond(200, 0.95) == 10, "200 samples: 10 beyond p95");
  Check(kwbench::SamplesBeyond(199, 0.95) == 9, "199 samples: 9 beyond p95");
  Check(kwbench::MinSamplesFor(0.95) == 200, "p95 needs 200 samples");
  Check(kwbench::MinSamplesFor(0.5) == 20, "p50 needs 20 samples");
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const size_t n = kwbench::MinSamplesFor(q);
    Check(kwbench::SamplesBeyond(n, q) >= kwbench::kMinSamplesBeyond &&
              kwbench::SamplesBeyond(n - 1, q) < kwbench::kMinSamplesBeyond,
          "MinSamplesFor is the smallest count meeting the rule");
  }
}

void TestMetricNames() {
  for (const auto* specs :
       {&kwbench::EndToEndMetrics(), &kwbench::PerLayerMetrics()}) {
    for (const kwbench::MetricSpec& s : *specs) {
      Check(kwbench::ValidMetricName(s.name), "valid metric name " + s.name);
    }
  }
  for (const std::string& w : kwbench::WorkloadNames()) {
    Check(kwbench::ValidMetricName(w), "valid workload name " + w);
  }
  for (const char* bad : {"", ".lead", "_lead", "sp ace", "a/b", "a:b",
                          "caf\xc3\xa9"}) {
    Check(!kwbench::ValidMetricName(bad),
          std::string("invalid metric name rejected: ") + bad);
  }
  Check(kwbench::ValidMetricName(std::string(64, 'a')), "64 letters allowed");
  Check(!kwbench::ValidMetricName(std::string(65, 'a')), "65 letters refused");
}

void TestWrongFracAccounting() {
  kwbench::OracleTally none;
  Check(none.WrongFrac() == 0 && none.AgreeFrac() == 0,
        "nothing checked: wrong_frac 0 and agree_frac 0");
  kwbench::OracleTally t;
  t.Record(true);
  t.Record(false);
  t.Record(true);
  t.Record(true);
  Check(t.checked() == 4 && t.wrong() == 1, "tally counts");
  Check(t.WrongFrac() == 0.25 && t.AgreeFrac() == 0.75,
        "wrong_frac = wrong / checked");
}

void TestRenderResult() {
  const std::vector<kwbench::MetricSpec> specs = {
      {"a_ms", "ms", {"w1"}}, {"b", "count", {"w2"}}};
  std::string error;
  const std::string line = kwbench::RenderResult(
      "w1", true, 5, 1, specs, {{"a_ms", 1.5}, {"other", 2}}, &error);
  Check(line ==
            "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": "
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": "
            "0, \"unit\": \"count\"}}}",
        "result line shape; inapplicable metric prints 0: " + line);
  Check(kwbench::RenderResult("w2", true, 5, 0, specs, {{"a_ms", 1}}, &error)
            .empty(),
        "missing applicable metric is an error");
}

// The quoted values of every `"<key>": "<value>"` pair, in file order.
std::vector<std::string> Values(const std::string& text,
                                const std::string& key) {
  std::vector<std::string> out;
  const std::string needle = "\"" + key + "\": \"";
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    const size_t start = pos + needle.size();
    out.push_back(text.substr(start, text.find('"', start) - start));
  }
  return out;
}

void TestBenchmarkJson(const char* path) {
  std::ifstream in(path);
  Check(static_cast<bool>(in), std::string("read ") + path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::vector<std::string> names = kwbench::WorkloadNames();
  std::vector<std::string> units;
  for (const auto* specs :
       {&kwbench::EndToEndMetrics(), &kwbench::PerLayerMetrics()}) {
    for (const kwbench::MetricSpec& s : *specs) {
      names.push_back(s.name);
      units.push_back(s.unit);
    }
  }
  Check(Values(buf.str(), "name") == names,
        "BENCHMARK.json names the catalog's workloads and metrics in order");
  Check(Values(buf.str(), "unit") == units,
        "BENCHMARK.json units match the catalog");
}

void TestEveryMetricMeasured() {
  for (const std::string& workload : kwbench::WorkloadNames()) {
    for (bool trace : {false, true}) {
      kwbench::RunConfig config;
      config.workload = workload;
      config.seed = 3;
      config.seconds = 0.4;
      config.trace = trace;
      kwbench::RunResult result;
      std::string error;
      const std::string what =
          workload + (trace ? " traced" : " untraced") + ": ";
      if (!kwbench::RunWorkload(config, &result, &error)) {
        Check(false, what + error);
        continue;
      }
      const auto& specs = trace ? kwbench::PerLayerMetrics()
                                : kwbench::EndToEndMetrics();
      for (const kwbench::MetricSpec& s : specs) {
        if (kwbench::AppliesTo(s, workload)) {
          Check(result.metrics.count(s.name) == 1,
                what + "measures " + s.name);
        }
      }
      Check(!kwbench::RenderResult(workload, result.correct, result.attempted,
                                   result.failed, specs, result.metrics,
                                   &error)
                 .empty(),
            what + "renders: " + error);
      Check(result.attempted > 0 && result.failed == 0,
            what + "attempted requests and none failed");
      Check(result.correct, what + "oracle agrees on ranked answers");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: kwbench_selftest <BENCHMARK.json>\n");
    return 2;
  }
  TestPercentileRule();
  TestMetricNames();
  TestWrongFracAccounting();
  TestRenderResult();
  TestBenchmarkJson(argv[1]);
  TestEveryMetricMeasured();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
