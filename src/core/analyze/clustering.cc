#include "core/analyze/clustering.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>

namespace kws::analyze {

using xml::XmlNodeId;
using xml::XmlTree;

double XBridgeResultScore(const XmlTree& tree, XmlNodeId root,
                          const std::vector<std::string>& keywords,
                          double avg_depth) {
  double content = 0;
  // Nodes on root->match paths; shared segments counted once (slide 160).
  std::set<XmlNodeId> path_nodes;
  for (const std::string& k : keywords) {
    // ief = N / #nodes containing the token (slide 158).
    const double ief =
        static_cast<double>(tree.size()) /
        std::max<size_t>(tree.MatchNodes(k).size(), 1);
    const std::span<const XmlNodeId> inside = tree.MatchesInSubtree(k, root);
    if (inside.empty()) continue;
    content += std::log(ief);
    XmlNodeId cur = inside.front();
    while (cur != root) {
      path_nodes.insert(cur);
      cur = tree.parent(cur);
    }
  }
  // Structural proximity with the long-path discount (slide 159):
  // distance beyond the average document depth counts half.
  double dist = static_cast<double>(path_nodes.size());
  if (dist > avg_depth) dist = avg_depth + (dist - avg_depth) * 0.5;
  return content - dist;
}

std::vector<ResultCluster> ClusterByContext(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords) {
  const double avg_depth = tree.AverageDepth();

  std::map<std::string, ResultCluster> by_path;
  std::map<std::string, std::vector<double>> scores;
  for (XmlNodeId r : results) {
    const std::string path = tree.LabelPath(r);
    ResultCluster& c = by_path[path];
    c.label = path;
    c.results.push_back(r);
    scores[path].push_back(XBridgeResultScore(tree, r, keywords, avg_depth));
  }
  // Cluster score: top-R results, R = min(avg cluster size, |cluster|).
  const double avg_size =
      by_path.empty()
          ? 0
          : static_cast<double>(results.size()) /
                static_cast<double>(by_path.size());
  std::vector<ResultCluster> out;
  for (auto& [path, cluster] : by_path) {
    std::vector<double>& s = scores[path];
    std::sort(s.rbegin(), s.rend());
    const size_t r = std::min<size_t>(
        s.size(), static_cast<size_t>(std::max(avg_size, 1.0)));
    cluster.score = 0;
    for (size_t i = 0; i < r; ++i) cluster.score += s[i];
    out.push_back(std::move(cluster));
  }
  std::sort(out.begin(), out.end(),
            [](const ResultCluster& a, const ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

std::vector<ResultCluster> ClusterByKeywordRoles(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords) {
  std::map<std::string, ResultCluster> by_role;
  for (XmlNodeId r : results) {
    // Role signature: for each keyword, the tag of its first match node
    // within the result (the role the keyword plays).
    std::string signature;
    for (const std::string& k : keywords) {
      signature += k + "@";
      const std::span<const XmlNodeId> inside = tree.MatchesInSubtree(k, r);
      signature += inside.empty() ? "-" : tree.tag(inside.front());
      signature += " ";
    }
    ResultCluster& c = by_role[signature];
    c.label = signature;
    c.results.push_back(r);
  }
  std::vector<ResultCluster> out;
  for (auto& [sig, cluster] : by_role) {
    cluster.score = static_cast<double>(cluster.results.size());
    out.push_back(std::move(cluster));
  }
  std::sort(out.begin(), out.end(),
            [](const ResultCluster& a, const ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

std::vector<ResultCluster> SplitClusterByContext(
    const XmlTree& tree, const ResultCluster& cluster,
    const std::vector<std::string>& keywords, size_t max_clusters) {
  std::vector<ResultCluster> out;
  if (max_clusters == 0) return out;
  // Context signature: per keyword, the label path of the first match's
  // parent inside the result.
  std::map<std::string, ResultCluster> by_context;
  for (XmlNodeId r : cluster.results) {
    std::string signature;
    for (const std::string& k : keywords) {
      const std::span<const XmlNodeId> inside = tree.MatchesInSubtree(k, r);
      if (inside.empty()) continue;
      const XmlNodeId m = inside.front();
      const XmlNodeId ctx = m == 0 ? 0 : tree.parent(m);
      signature += k + "@" + tree.LabelPath(ctx) + " ";
    }
    ResultCluster& c = by_context[signature];
    c.label = signature;
    c.results.push_back(r);
  }
  for (auto& [sig, c] : by_context) {
    c.score = static_cast<double>(c.results.size());
    out.push_back(std::move(c));
  }
  // Merge smallest pairs until the bound holds.
  auto smallest = [&]() {
    size_t idx = 0;
    for (size_t i = 1; i < out.size(); ++i) {
      if (out[i].results.size() < out[idx].results.size()) idx = i;
    }
    return idx;
  };
  while (out.size() > max_clusters) {
    const size_t a = smallest();
    ResultCluster merged = std::move(out[a]);
    out.erase(out.begin() + static_cast<long>(a));
    const size_t b = smallest();
    out[b].label += "| " + merged.label;
    out[b].results.insert(out[b].results.end(), merged.results.begin(),
                          merged.results.end());
    std::sort(out[b].results.begin(), out[b].results.end());
    out[b].score = static_cast<double>(out[b].results.size());
  }
  std::sort(out.begin(), out.end(),
            [](const ResultCluster& a, const ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

}  // namespace kws::analyze
