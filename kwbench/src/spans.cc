#include "spans.h"

#include <cstdio>
#include <fstream>

namespace kwbench {

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_us = NowMicros();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_us = NowMicros();
}

void SpanRecorder::Count(uint64_t id, const std::string& key,
                         uint64_t value) {
  if (id == 0) return;
  spans_[id - 1].counts[key] += value;
}

std::map<std::string, LayerTotals> SpanRecorder::Totals() const {
  // Time each span's direct children cover (children never overlap: the
  // replay is serial).
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans_) {
    LayerTotals& t = out[s.name];
    const double dur = s.end_us - s.start_us;
    ++t.spans;
    t.total_us += dur;
    t.self_us += dur - child_us[s.id];
    for (const auto& [key, value] : s.counts) t.counts[key] += value;
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.start_us, s.end_us);
    out << buf << ", \"counts\": {";
    bool first = true;
    for (const auto& [key, value] : s.counts) {
      out << (first ? "" : ", ") << '"' << key << "\": " << value;
      first = false;
    }
    out << "}}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace kwbench
