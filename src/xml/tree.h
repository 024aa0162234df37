#ifndef KWDB_XML_TREE_H_
#define KWDB_XML_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "text/tokenizer.h"

namespace kws::xml {

/// Node id in an XmlTree. Ids are assigned in document (preorder) order,
/// so sorting ids sorts nodes in document order — the invariant every
/// LCA-family algorithm relies on.
using XmlNodeId = uint32_t;

/// Sentinel for "no node".
constexpr XmlNodeId kNoXmlNode = UINT32_MAX;

/// Dewey label: the child-index path from the root (root's is empty).
using Dewey = std::vector<uint32_t>;

/// An in-memory XML document tree. Elements carry a tag and optional
/// text content. Build in document order (a node's parent must already
/// exist); then call BuildKeywordIndex before keyword queries.
class XmlTree {
 public:
  XmlTree() = default;

  /// Adds an element under `parent` (kNoXmlNode for the root — allowed
  /// exactly once, first). Returns the new node id.
  XmlNodeId AddElement(XmlNodeId parent, std::string tag);

  /// Appends text content to `node` (keyword matches attach to this node).
  void AppendText(XmlNodeId node, std::string_view text);

  size_t size() const { return tags_.size(); }
  const std::string& tag(XmlNodeId n) const { return tags_[n]; }
  const std::string& text(XmlNodeId n) const { return texts_[n]; }
  /// Parent id, or kNoXmlNode for the root.
  XmlNodeId parent(XmlNodeId n) const { return parents_[n]; }
  const std::vector<XmlNodeId>& children(XmlNodeId n) const {
    return children_[n];
  }
  uint32_t depth(XmlNodeId n) const { return depths_[n]; }
  const Dewey& dewey(XmlNodeId n) const { return deweys_[n]; }

  /// True when `a` is an ancestor of `b` or a == b.
  bool IsAncestorOrSelf(XmlNodeId a, XmlNodeId b) const;

  /// Lowest common ancestor of `a` and `b`.
  XmlNodeId Lca(XmlNodeId a, XmlNodeId b) const;

  /// The label path "/bib/conf/paper" of `n`.
  std::string LabelPath(XmlNodeId n) const;

  /// Largest preorder id in the subtree of `n` (== n for leaves). With
  /// preorder ids, subtree(n) is exactly the id range [n, SubtreeEnd(n)],
  /// which is what the skip-based LCA algorithms binary-search on.
  /// Valid after BuildKeywordIndex().
  XmlNodeId SubtreeEnd(XmlNodeId n) const { return subtree_end_[n]; }

  /// Builds the keyword index (term -> nodes whose own text contains it,
  /// in document order).
  void BuildKeywordIndex();

  /// Nodes directly containing `term`; sorted in document order.
  /// Heterogeneous lookup: no string is materialized for the probe.
  const std::vector<XmlNodeId>& MatchNodes(std::string_view term) const;

  /// The nodes of MatchNodes(term) inside subtree(`root`), in document
  /// order: a binary search for the id range [root, SubtreeEnd(root)],
  /// so the cost follows the matches in the subtree, not the whole list.
  /// Valid after BuildKeywordIndex().
  std::span<const XmlNodeId> MatchesInSubtree(std::string_view term,
                                              XmlNodeId root) const;

  /// Average node depth (the root has depth 0; 0 for an empty tree).
  /// Kept as a running sum by AddElement, so it costs O(1).
  double AverageDepth() const {
    return tags_.empty() ? 0
                         : static_cast<double>(depth_sum_) /
                               static_cast<double>(tags_.size());
  }

  /// Nodes whose tag is exactly `tag`; sorted in document order.
  /// Maintained incrementally by AddElement (preorder ids ascend), so it
  /// is available before BuildKeywordIndex. This is what lets query
  /// classification and return-node inference probe tags in O(log n)
  /// instead of sweeping every node.
  const std::vector<XmlNodeId>& TagNodes(std::string_view tag) const;

  /// All distinct indexed terms.
  std::vector<std::string> Vocabulary() const;

  /// Serializes the subtree rooted at `n` (whole document for the root).
  std::string ToXmlString(XmlNodeId n, int indent = 0) const;

  /// Full structural audit of the preorder-id invariant: parents precede
  /// children, child lists are strictly increasing, and a depth-first walk
  /// from the root reproduces the ids 0..size-1 in order (i.e. ids ARE
  /// document order). O(n); compiled in every build — oracle tests call it
  /// after building random trees, complementing the per-AddElement
  /// KWS_DCHECK contract checks active in debug/sanitizer builds.
  Status ValidatePreorder() const;

 private:
  std::vector<std::string> tags_;
  std::vector<std::string> texts_;
  std::vector<XmlNodeId> parents_;
  std::vector<std::vector<XmlNodeId>> children_;
  std::vector<uint32_t> depths_;
  uint64_t depth_sum_ = 0;
  std::vector<Dewey> deweys_;
  std::unordered_map<std::string, std::vector<XmlNodeId>, StringHash,
                     std::equal_to<>>
      keyword_index_;
  std::unordered_map<std::string, std::vector<XmlNodeId>, StringHash,
                     std::equal_to<>>
      tag_index_;
  std::vector<XmlNodeId> subtree_end_;
  std::vector<XmlNodeId> empty_;
  text::Tokenizer tokenizer_;
};

}  // namespace kws::xml

#endif  // KWDB_XML_TREE_H_
