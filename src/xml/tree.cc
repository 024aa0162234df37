#include "xml/tree.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace kws::xml {

XmlNodeId XmlTree::AddElement(XmlNodeId parent, std::string tag) {
  const XmlNodeId id = static_cast<XmlNodeId>(tags_.size());
  KWS_DCHECK_MSG((parent == kNoXmlNode) == (id == 0),
                 "the first node (and only it) must be the root");
  KWS_DCHECK(parent == kNoXmlNode || parent < id);
#ifndef NDEBUG
  // Preorder invariant: the parent must be an ancestor-or-self of the
  // previously added node, i.e. construction is a depth-first walk. The
  // LCA algorithms depend on ids being document order.
  if (id > 0) {
    XmlNodeId probe = id - 1;
    while (probe != parent && probe != kNoXmlNode) probe = parents_[probe];
    KWS_DCHECK_MSG(probe == parent, "AddElement must follow document order");
  }
#endif
  tags_.push_back(std::move(tag));
  // Ids are assigned in ascending preorder, so appending keeps every
  // per-tag node list sorted in document order for free; the append-form
  // sorted contract pins that down at every insertion.
  std::vector<XmlNodeId>& tag_list = tag_index_[tags_.back()];
  KWS_DCHECK_SORTED_APPEND(tag_list, id);
  tag_list.push_back(id);
  texts_.emplace_back();
  parents_.push_back(parent);
  children_.emplace_back();
  if (parent == kNoXmlNode) {
    depths_.push_back(0);
    deweys_.emplace_back();
  } else {
    depths_.push_back(depths_[parent] + 1);
    Dewey d = deweys_[parent];
    d.push_back(static_cast<uint32_t>(children_[parent].size()));
    deweys_.push_back(std::move(d));
    KWS_DCHECK_SORTED_APPEND(children_[parent], id);
    children_[parent].push_back(id);
  }
  depth_sum_ += depths_.back();
  return id;
}

void XmlTree::AppendText(XmlNodeId node, std::string_view text) {
  if (!texts_[node].empty()) texts_[node] += ' ';
  texts_[node] += text;
}

bool XmlTree::IsAncestorOrSelf(XmlNodeId a, XmlNodeId b) const {
  const Dewey& da = deweys_[a];
  const Dewey& db = deweys_[b];
  if (da.size() > db.size()) return false;
  return std::equal(da.begin(), da.end(), db.begin());
}

XmlNodeId XmlTree::Lca(XmlNodeId a, XmlNodeId b) const {
  const Dewey& da = deweys_[a];
  const Dewey& db = deweys_[b];
  size_t common = 0;
  const size_t limit = std::min(da.size(), db.size());
  while (common < limit && da[common] == db[common]) ++common;
  // Walk down from the root along the common prefix.
  XmlNodeId node = 0;
  for (size_t i = 0; i < common; ++i) node = children_[node][da[i]];
  return node;
}

std::string XmlTree::LabelPath(XmlNodeId n) const {
  std::vector<const std::string*> parts;
  XmlNodeId cur = n;
  while (cur != kNoXmlNode) {
    parts.push_back(&tags_[cur]);
    cur = parents_[cur];
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += '/';
    out += **it;
  }
  return out;
}

void XmlTree::BuildKeywordIndex() {
  // Subtree extents: with preorder ids, children have larger ids than
  // their parent, so a reverse sweep folds extents upward.
  subtree_end_.resize(tags_.size());
  for (size_t i = tags_.size(); i > 0; --i) {
    const XmlNodeId n = static_cast<XmlNodeId>(i - 1);
    subtree_end_[n] = n;
    for (XmlNodeId c : children_[n]) {
      subtree_end_[n] = std::max(subtree_end_[n], subtree_end_[c]);
    }
  }
  keyword_index_.clear();
  for (XmlNodeId n = 0; n < texts_.size(); ++n) {
    tokenizer_.ForEachToken(texts_[n], [&](std::string_view t) {
      auto it = keyword_index_.find(t);
      if (it == keyword_index_.end()) {
        it = keyword_index_.emplace(std::string(t), std::vector<XmlNodeId>())
                 .first;
      }
      std::vector<XmlNodeId>& nodes = it->second;
      if (nodes.empty() || nodes.back() != n) nodes.push_back(n);
    });
  }
}

const std::vector<XmlNodeId>& XmlTree::MatchNodes(
    std::string_view term) const {
  auto it = keyword_index_.find(term);
  return it == keyword_index_.end() ? empty_ : it->second;
}

std::span<const XmlNodeId> XmlTree::MatchesInSubtree(
    std::string_view term, XmlNodeId root) const {
  const std::vector<XmlNodeId>& matches = MatchNodes(term);
  if (matches.empty()) return {};
  const auto first = std::lower_bound(matches.begin(), matches.end(), root);
  const auto last =
      std::upper_bound(first, matches.end(), subtree_end_[root]);
  return {first, last};
}

const std::vector<XmlNodeId>& XmlTree::TagNodes(std::string_view tag) const {
  auto it = tag_index_.find(tag);
  return it == tag_index_.end() ? empty_ : it->second;
}

std::vector<std::string> XmlTree::Vocabulary() const {
  std::vector<std::string> out;
  out.reserve(keyword_index_.size());
  for (const auto& [term, nodes] : keyword_index_) out.push_back(term);  // sorted right below -- kwslint: allow(unordered-iteration)
  std::sort(out.begin(), out.end());
  return out;
}

std::string XmlTree::ToXmlString(XmlNodeId n, int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + tags_[n] + ">";
  const bool leaf = children_[n].empty();
  if (!texts_[n].empty()) out += texts_[n];
  if (!leaf) {
    out += '\n';
    for (XmlNodeId c : children_[n]) out += ToXmlString(c, indent + 1);
    out += pad;
  }
  out += "</" + tags_[n] + ">\n";
  return out;
}

Status XmlTree::ValidatePreorder() const {
  const size_t n = tags_.size();
  if (n == 0) return Status::OK();
  if (parents_[0] != kNoXmlNode) {
    return Status::Internal("node 0 is not a root");
  }
  for (XmlNodeId i = 1; i < n; ++i) {
    if (parents_[i] == kNoXmlNode) {
      return Status::Internal("second root at node " + std::to_string(i));
    }
    if (parents_[i] >= i) {
      return Status::Internal("parent " + std::to_string(parents_[i]) +
                              " does not precede child " + std::to_string(i));
    }
  }
  for (XmlNodeId i = 0; i < n; ++i) {
    const std::vector<XmlNodeId>& kids = children_[i];
    for (size_t k = 1; k < kids.size(); ++k) {
      if (kids[k - 1] >= kids[k]) {
        return Status::Internal("children of " + std::to_string(i) +
                                " not strictly increasing");
      }
    }
  }
  // Ids must be exactly the depth-first (document-order) numbering: an
  // explicit DFS from the root re-derives them and compares.
  std::vector<XmlNodeId> stack = {0};
  XmlNodeId next = 0;
  while (!stack.empty()) {
    const XmlNodeId node = stack.back();
    stack.pop_back();
    if (node != next) {
      return Status::Internal("node " + std::to_string(node) +
                              " visited at preorder position " +
                              std::to_string(next));
    }
    ++next;
    const std::vector<XmlNodeId>& kids = children_[node];
    for (size_t k = kids.size(); k > 0; --k) stack.push_back(kids[k - 1]);
  }
  if (next != n) {
    return Status::Internal(std::to_string(n - next) +
                            " nodes unreachable from the root");
  }
  return Status::OK();
}

}  // namespace kws::xml
