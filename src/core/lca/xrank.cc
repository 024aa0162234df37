#include "core/lca/xrank.h"

#include <algorithm>
#include <cmath>

namespace kws::lca {

using xml::XmlNodeId;
using xml::XmlTree;

std::vector<double> ElemRank(const XmlTree& tree,
                             const ElemRankOptions& options) {
  const size_t n = tree.size();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  const double base = (1.0 - options.damping) / static_cast<double>(n);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), base);
    for (XmlNodeId v = 0; v < n; ++v) {
      // Out-weight: children (downward) + parent (upward).
      const double down = static_cast<double>(tree.children(v).size());
      const double up = tree.parent(v) == xml::kNoXmlNode
                            ? 0.0
                            : options.upward_weight;
      const double total = down + up;
      if (total <= 0) {
        // Dangling leaf-root: redistribute uniformly.
        for (XmlNodeId u = 0; u < n; ++u) {
          next[u] += options.damping * rank[v] / static_cast<double>(n);
        }
        continue;
      }
      for (XmlNodeId c : tree.children(v)) {
        next[c] += options.damping * rank[v] / total;
      }
      if (up > 0) {
        next[tree.parent(v)] += options.damping * rank[v] * up / total;
      }
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<ScoredXmlResult> RankXmlResults(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords,
    const std::vector<double>& elem_rank, const XRankOptions& options) {
  std::vector<ScoredXmlResult> out;
  out.reserve(results.size());
  for (XmlNodeId root : results) {
    double score = 0;
    for (const std::string& k : keywords) {
      double best = 0;
      for (XmlNodeId m : tree.MatchesInSubtree(k, root)) {
        const double hops =
            static_cast<double>(tree.depth(m) - tree.depth(root));
        best = std::max(best,
                        elem_rank[m] * std::pow(options.decay, hops));
      }
      score += best;
    }
    out.push_back(ScoredXmlResult{root, score});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredXmlResult& a, const ScoredXmlResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.root < b.root;
            });
  return out;
}

}  // namespace kws::lca
