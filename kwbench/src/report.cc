#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kwbench {
namespace {

const std::vector<std::string> kAll = {"zipf_sharded", "rel_cold",
                                       "rel_write", "xml_cold"};
const std::vector<std::string> kRel = {"rel_cold", "rel_write"};
const std::vector<std::string> kCn = {"zipf_sharded", "rel_cold",
                                      "rel_write"};
const std::vector<std::string> kCached = {"zipf_sharded", "rel_write"};
const std::vector<std::string> kSharded = {"zipf_sharded"};
const std::vector<std::string> kWrite = {"rel_write"};
const std::vector<std::string> kXml = {"xml_cold"};

// %.17g keeps every digit of a double, and always yields a JSON number
// for the finite values the benchmark produces.
std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() { return kAll; }

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", kAll},
      {"qps", "1/s", kAll},
      {"p50_ms", "ms", kAll},
      {"p95_ms", "ms", kAll},
      {"cpu_ms_per_req", "ms", kAll},
      {"ok_frac", "frac", kAll},
      {"agree_frac", "frac", kAll},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"serve.queue_wait_ms", "ms", kAll},
      {"serve.rejections", "count", kAll},
      {"serve.cache_hit_rate", "frac", kCached},
      {"serve.cache_evictions", "1/req", kCached},
      {"serve.tuple_cache_hit_rate", "frac", kRel},
      {"serve.notify_write_ms", "ms", kWrite},
      {"serve.tuple_entries_invalidated", "1/batch", kWrite},
      {"engine.normalize_ms", "ms", kRel},
      {"engine.render_suggest_ms", "ms", kRel},
      {"cn.tuple_sets_ms", "ms", kRel},
      {"cn.enumerate_ms", "ms", kAll},
      {"cn.enumerate_share", "frac", kCn},
      {"cn.cns_enumerated", "1/req", kAll},
      {"cn.execute_ms", "ms", kRel},
      {"cn.cns_evaluated", "1/req", kRel},
      {"cn.join_lookups", "1/req", kRel},
      {"cn.eval_per_enum", "frac", kRel},
      {"shard.search_ms", "ms", kSharded},
      {"shard.fanout", "1/req", kSharded},
      {"shard.pruned_frac", "frac", kSharded},
      {"lca.match_lists_ms", "ms", kXml},
      {"lca.slca_ms", "ms", kXml},
      {"lca.anchors_per_match", "frac", kXml},
      {"xml.rank_render_ms", "ms", kXml},
      {"rel.apply_inserts_ms", "ms", kWrite},
      {"rel.touched_terms", "1/batch", kWrite},
      {"write_p50_ms", "ms", kWrite},
      {"trace.overhead_frac", "frac", kAll},
      {"trace.requests", "count", kAll},
  };
  return specs;
}

bool AppliesTo(const MetricSpec& metric, const std::string& workload) {
  return std::find(metric.workloads.begin(), metric.workloads.end(),
                   workload) != metric.workloads.end();
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t pos = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(pos, samples.size() - 1)];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t pos = rank < 1 ? 1 : static_cast<size_t>(rank);
  return n - std::min(pos, n);
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

double OracleTally::WrongFrac() const {
  return checked_ == 0 ? 0.0
                       : static_cast<double>(wrong_) /
                             static_cast<double>(checked_);
}

double OracleTally::AgreeFrac() const {
  return checked_ == 0 ? 0.0 : 1.0 - WrongFrac();
}

std::string RenderResult(const std::string& workload, bool correct,
                         uint64_t attempted, uint64_t failed,
                         const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values,
                         std::string* error) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() && AppliesTo(spec, workload)) {
      *error = "metric " + spec.name + " was not measured on " + workload;
      return "";
    }
    if (it != values.end() && !std::isfinite(it->second)) {
      *error = "metric " + spec.name + " is not finite";
      return "";
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + spec.name + "\": {\"value\": ";
    out += Number(it == values.end() ? 0.0 : it->second);
    out += ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace kwbench
