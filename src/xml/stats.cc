#include "xml/stats.h"

namespace kws::xml {

PathStatistics ComputePathStatistics(const XmlTree& tree) {
  PathStatistics stats;
  stats.total_elements = tree.size();
  for (XmlNodeId n = 0; n < tree.size(); ++n) {
    const std::string path = tree.LabelPath(n);
    ++stats.path_count[path];
    // Repeatability: count same-tag children under this parent.
    std::unordered_map<std::string, size_t> tag_counts;
    for (XmlNodeId c : tree.children(n)) ++tag_counts[tree.tag(c)];
    for (const auto& [tag, count] : tag_counts) {  // independent per-tag OR-updates -- kwslint: allow(unordered-iteration)
      const std::string child_path = path + "/" + tag;
      bool& repeatable = stats.path_repeatable[child_path];
      repeatable = repeatable || (count > 1);
    }
  }
  stats.avg_depth = tree.AverageDepth();
  return stats;
}

}  // namespace kws::xml
