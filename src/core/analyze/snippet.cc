#include "core/analyze/snippet.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "text/tokenizer.h"

namespace kws::analyze {

using xml::XmlNodeId;
using xml::XmlTree;

std::vector<SnippetItem> GenerateSnippet(const XmlTree& tree,
                                         const xml::PathStatistics& stats,
                                         XmlNodeId result_root,
                                         const std::vector<std::string>& keywords,
                                         const SnippetOptions& options) {
  std::vector<SnippetItem> items;
  std::set<XmlNodeId> chosen;
  const XmlNodeId end = tree.SubtreeEnd(result_root);
  text::Tokenizer tokenizer;

  auto add = [&](XmlNodeId n, SnippetItem::Reason reason) {
    if (items.size() >= options.max_items) return false;
    if (!chosen.insert(n).second) return true;
    items.push_back(SnippetItem{n, reason});
    return true;
  };

  // 1. Key of the result: the first non-repeatable text child ("name",
  //    "title", ...) identifies the result — self-containment.
  for (XmlNodeId c : tree.children(result_root)) {
    auto it = stats.path_repeatable.find(tree.LabelPath(c));
    const bool repeatable = it != stats.path_repeatable.end() && it->second;
    if (!repeatable && !tree.text(c).empty()) {
      add(c, SnippetItem::Reason::kKey);
      break;
    }
  }
  // 2. One match node per query keyword — query bias.
  for (const std::string& k : keywords) {
    const std::span<const XmlNodeId> inside =
        tree.MatchesInSubtree(k, result_root);
    if (!inside.empty()) add(inside.front(), SnippetItem::Reason::kKeyword);
  }
  // 3. Dominant features: the most frequent (tag, text) pairs among the
  //    result's descendants — informativeness.
  std::map<std::pair<std::string, std::string>, size_t> feature_counts;
  std::map<std::pair<std::string, std::string>, XmlNodeId> feature_node;
  for (XmlNodeId n = result_root; n <= end; ++n) {
    if (tree.text(n).empty()) continue;
    const std::vector<std::string> toks = tokenizer.Tokenize(tree.text(n));
    for (const std::string& t : toks) {
      const auto key = std::make_pair(tree.tag(n), t);
      ++feature_counts[key];
      feature_node.emplace(key, n);
    }
  }
  std::vector<std::pair<size_t, std::pair<std::string, std::string>>> ranked;
  for (const auto& [key, count] : feature_counts) {
    ranked.emplace_back(count, key);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [count, key] : ranked) {
    if (items.size() >= options.max_items) break;
    if (count < 2) break;  // dominant means repeated
    add(feature_node[key], SnippetItem::Reason::kDominantFeature);
  }
  // 4. Pad with entity children if there is room.
  for (XmlNodeId c : tree.children(result_root)) {
    if (items.size() >= options.max_items) break;
    auto it = stats.path_repeatable.find(tree.LabelPath(c));
    if (it != stats.path_repeatable.end() && it->second) {
      add(c, SnippetItem::Reason::kEntity);
    }
  }
  std::sort(items.begin(), items.end(),
            [](const SnippetItem& a, const SnippetItem& b) {
              return a.node < b.node;
            });
  return items;
}

std::string SnippetToString(const XmlTree& tree,
                            const std::vector<SnippetItem>& items) {
  std::string out;
  for (const SnippetItem& item : items) {
    out += tree.LabelPath(item.node);
    out += ": ";
    out += tree.text(item.node);
    out += '\n';
  }
  return out;
}

}  // namespace kws::analyze
