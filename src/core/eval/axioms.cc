#include "core/eval/axioms.h"

#include <algorithm>
#include <set>

namespace kws::eval {

using xml::XmlNodeId;
using xml::XmlTree;

xml::XmlTree AppendLeafCopy(const XmlTree& tree, XmlNodeId parent,
                            const std::string& tag, const std::string& text) {
  XmlTree copy = tree;
  const XmlNodeId leaf = copy.AddElement(parent, tag);
  copy.AppendText(leaf, text);
  copy.BuildKeywordIndex();
  return copy;
}

std::vector<AxiomViolation> CheckQueryAxioms(
    const XmlSearchFn& fn, const XmlTree& tree,
    const std::vector<std::string>& query, const std::string& extra) {
  std::vector<AxiomViolation> out;
  const std::vector<XmlNodeId> before = fn(tree, query);
  std::vector<std::string> extended = query;
  extended.push_back(extra);
  const std::vector<XmlNodeId> after = fn(tree, extended);

  if (after.size() > before.size()) {
    out.push_back(AxiomViolation{
        "query-monotonicity",
        "results grew from " + std::to_string(before.size()) + " to " +
            std::to_string(after.size()) + " after adding '" + extra + "'"});
  }
  const std::set<XmlNodeId> old_set(before.begin(), before.end());
  for (XmlNodeId n : after) {
    if (old_set.count(n) > 0) continue;
    if (tree.MatchesInSubtree(extra, n).empty()) {
      out.push_back(AxiomViolation{
          "query-consistency",
          "new result " + tree.LabelPath(n) + " (#" + std::to_string(n) +
              ") does not contain '" + extra + "'"});
    }
  }
  return out;
}

std::vector<AxiomViolation> CheckDataAxioms(
    const XmlSearchFn& fn, const XmlTree& tree, XmlNodeId parent,
    const std::string& tag, const std::string& text,
    const std::vector<std::string>& query) {
  std::vector<AxiomViolation> out;
  const XmlTree extended = AppendLeafCopy(tree, parent, tag, text);
  const XmlNodeId new_node = static_cast<XmlNodeId>(extended.size() - 1);
  const std::vector<XmlNodeId> before = fn(tree, query);
  const std::vector<XmlNodeId> after = fn(extended, query);

  if (after.size() < before.size()) {
    out.push_back(AxiomViolation{
        "data-monotonicity",
        "results shrank from " + std::to_string(before.size()) + " to " +
            std::to_string(after.size()) + " after adding a node"});
  }
  const std::set<XmlNodeId> old_set(before.begin(), before.end());
  for (XmlNodeId n : after) {
    if (old_set.count(n) > 0) continue;
    if (!extended.IsAncestorOrSelf(n, new_node)) {
      out.push_back(AxiomViolation{
          "data-consistency",
          "new result " + extended.LabelPath(n) + " (#" + std::to_string(n) +
              ") does not contain the added node"});
    }
  }
  return out;
}

}  // namespace kws::eval
