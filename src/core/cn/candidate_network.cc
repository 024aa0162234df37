#include "core/cn/candidate_network.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <numeric>

namespace kws::cn {

namespace {

struct AdjEntry {
  uint32_t neighbor = 0;
  uint32_t fk = 0;
  /// True when the neighbor (child when rooted) is the referencing side.
  bool child_referencing = false;
};

std::vector<std::vector<AdjEntry>> BuildAdjacency(
    const CandidateNetwork& cn) {
  std::vector<std::vector<AdjEntry>> adj(cn.nodes.size());
  for (const CnEdge& e : cn.edges) {
    // forward: `from` is referencing. Seen from `from`, the child `to`
    // is the referenced side, and vice versa.
    adj[e.from].push_back(AdjEntry{e.to, e.fk, !e.forward});
    adj[e.to].push_back(AdjEntry{e.from, e.fk, e.forward});
  }
  return adj;
}

std::string EncodeRooted(const CandidateNetwork& cn,
                         const std::vector<std::vector<AdjEntry>>& adj,
                         uint32_t node, uint32_t parent) {
  std::string label = "T" + std::to_string(cn.nodes[node].table) + "K" +
                      std::to_string(cn.nodes[node].mask);
  std::vector<std::string> child_codes;
  for (const AdjEntry& e : adj[node]) {
    if (e.neighbor == parent) continue;
    std::string code = "F" + std::to_string(e.fk) +
                       (e.child_referencing ? "r" : "d") +
                       EncodeRooted(cn, adj, e.neighbor, node);
    child_codes.push_back(std::move(code));
  }
  std::sort(child_codes.begin(), child_codes.end());
  std::string out = "(" + label;
  for (const std::string& c : child_codes) out += c;
  out += ")";
  return out;
}

/// True if `node` already acts as the referencing side of `fk` on some
/// edge of `cn` (a tuple has a single FK value, so a second such join
/// would force a duplicate tuple in every result).
bool UsesFkAsReferencing(const CandidateNetwork& cn, uint32_t node,
                         uint32_t fk) {
  for (const CnEdge& e : cn.edges) {
    const uint32_t referencing = e.forward ? e.from : e.to;
    if (referencing == node && e.fk == fk) return true;
  }
  return false;
}

std::vector<size_t> NodeDegrees(const CandidateNetwork& cn) {
  std::vector<size_t> deg(cn.nodes.size(), 0);
  for (const CnEdge& e : cn.edges) {
    ++deg[e.from];
    ++deg[e.to];
  }
  return deg;
}

/// A CN is a final answer template when all keywords are covered, every
/// leaf is a keyword node, and every leaf's mask is necessary.
/// `deg` is NodeDegrees(cn).
bool IsValidFinal(const CandidateNetwork& cn, const std::vector<size_t>& deg,
                  KeywordMask full_mask) {
  if (cn.Coverage() != full_mask) return false;
  for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
    const bool leaf = (cn.nodes.size() == 1) || deg[i] == 1;
    if (!leaf) continue;
    if (cn.nodes[i].free()) return false;
    KeywordMask others = 0;
    for (uint32_t j = 0; j < cn.nodes.size(); ++j) {
      if (j != i) others |= cn.nodes[j].mask;
    }
    if ((others | cn.nodes[i].mask) == others) return false;  // redundant leaf
  }
  return true;
}

/// Leaves that are free tuple sets. A single node counts as a leaf.
size_t FreeLeaves(const CandidateNetwork& cn,
                  const std::vector<size_t>& deg) {
  size_t n = 0;
  for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
    if (cn.nodes[i].free() && (cn.nodes.size() == 1 || deg[i] == 1)) ++n;
  }
  return n;
}

void AppendU32(std::string* key, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  key->append(buf, sizeof(v));
}

/// All nonzero submasks of `mask`, smallest first.
std::vector<KeywordMask> Submasks(KeywordMask mask) {
  std::vector<KeywordMask> out;
  for (KeywordMask s = mask; s != 0; s = (s - 1) & mask) out.push_back(s);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

KeywordMask CandidateNetwork::Coverage() const {
  KeywordMask m = 0;
  for (const CnNode& n : nodes) m |= n.mask;
  return m;
}

std::string CandidateNetwork::CanonicalKey() const {
  const auto adj = BuildAdjacency(*this);
  std::string best;
  for (uint32_t root = 0; root < nodes.size(); ++root) {
    std::string code = EncodeRooted(*this, adj, root, UINT32_MAX);
    if (best.empty() || code < best) best = std::move(code);
  }
  return best;
}

std::string CandidateNetwork::RootedKey(uint32_t root,
                                        uint32_t parent) const {
  const auto adj = BuildAdjacency(*this);
  return EncodeRooted(*this, adj, root, parent);
}

uint32_t CnShapeCoder::Rooted(const CandidateNetwork& cn, uint32_t node,
                              uint32_t parent) {
  // The children's entries stack above `base` on the shared scratch; each
  // recursive call restores the stack before returning.
  const size_t base = entries_.size();
  for (const Adj& a : adj_[node]) {
    if (a.neighbor == parent) continue;
    const uint32_t child = Rooted(cn, a.neighbor, node);
    entries_.push_back(Entry{a.fk, a.child_referencing, child});
  }
  std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(base),
            entries_.end());
  key_.clear();
  AppendU32(&key_, cn.nodes[node].table);
  AppendU32(&key_, cn.nodes[node].mask);
  for (size_t i = base; i < entries_.size(); ++i) {
    AppendU32(&key_, entries_[i].fk);
    AppendU32(&key_, entries_[i].child_referencing);
    AppendU32(&key_, entries_[i].code);
  }
  entries_.resize(base);
  return codes_.try_emplace(key_, static_cast<uint32_t>(codes_.size()))
      .first->second;
}

uint32_t CnShapeCoder::Code(const CandidateNetwork& cn) {
  const uint32_t n = static_cast<uint32_t>(cn.nodes.size());
  if (adj_.size() < n) adj_.resize(n);
  for (uint32_t i = 0; i < n; ++i) adj_[i].clear();
  degree_.assign(n, 0);
  for (const CnEdge& e : cn.edges) {
    adj_[e.from].push_back(Adj{e.to, e.fk, e.forward ? 0u : 1u});
    adj_[e.to].push_back(Adj{e.from, e.fk, e.forward ? 1u : 0u});
    ++degree_[e.from];
    ++degree_[e.to];
  }
  // Centre(s): peel leaf layers until one or two nodes remain.
  layer_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    if (degree_[i] <= 1) layer_.push_back(i);
  }
  uint32_t remaining = n;
  while (remaining > 2) {
    remaining -= static_cast<uint32_t>(layer_.size());
    next_layer_.clear();
    for (uint32_t leaf : layer_) {
      for (const Adj& a : adj_[leaf]) {
        if (--degree_[a.neighbor] == 1) next_layer_.push_back(a.neighbor);
      }
    }
    layer_.swap(next_layer_);
  }
  uint32_t code = Rooted(cn, layer_[0], UINT32_MAX);
  if (layer_.size() == 2) {
    code = std::min(code, Rooted(cn, layer_[1], UINT32_MAX));
  }
  return code;
}

std::string CandidateNetwork::ToString(
    const relational::Database& db,
    const std::vector<std::string>& keywords) const {
  std::string out;
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    out += db.table(nodes[i].table).name();
    if (!nodes[i].free()) {
      out += '{';
      bool first = true;
      for (size_t k = 0; k < keywords.size(); ++k) {
        if ((nodes[i].mask >> k) & 1u) {
          if (!first) out += ' ';
          out += keywords[k];
          first = false;
        }
      }
      out += '}';
    }
  }
  for (const CnEdge& e : edges) {
    out += "; " + std::to_string(e.from) + (e.forward ? "->" : "<-") +
           std::to_string(e.to);
  }
  return out;
}

std::vector<CandidateNetwork> EnumerateCandidateNetworks(
    const relational::Database& db, const std::vector<KeywordMask>& table_masks,
    KeywordMask full_mask, const CnEnumOptions& options) {
  std::vector<CandidateNetwork> result;
  if (full_mask == 0) return result;
  trace::TraceSpan span(options.tracer, "cn.enumerate");
  // Candidates are deduplicated on their shape codes. Every isomorphism
  // class is enqueued once, so whatever is popped is new and a valid pop
  // is emitted without a second set.
  CnShapeCoder coder;
  std::vector<char> seen;
  size_t candidates_seen = 0;
  const auto first_sight = [&](const CandidateNetwork& cn) {
    const uint32_t code = coder.Code(cn);
    if (seen.size() < coder.size()) seen.resize(coder.size(), 0);
    if (seen[code]) return false;
    seen[code] = 1;
    ++candidates_seen;
    return true;
  };
  std::deque<CandidateNetwork> queue;

  // Seeds: every single keyword node.
  for (relational::TableId t = 0; t < db.num_tables(); ++t) {
    for (KeywordMask m : Submasks(table_masks[t] & full_mask)) {
      CandidateNetwork cn;
      cn.nodes.push_back(CnNode{t, m});
      if (first_sight(cn)) queue.push_back(std::move(cn));
    }
  }
  span.AddCounter("seeds", queue.size());

  // Masks a node attached to table t may carry: free first, then the
  // nonzero submasks.
  std::vector<std::vector<KeywordMask>> attach_masks(db.num_tables());
  for (relational::TableId t = 0; t < db.num_tables(); ++t) {
    attach_masks[t].push_back(0);
    for (KeywordMask m : Submasks(table_masks[t] & full_mask)) {
      attach_masks[t].push_back(m);
    }
  }

  uint64_t expansions = 0;
  DeadlineChecker checker(options.deadline);
  while (!queue.empty()) {
    // Cancellation point: one check per BFS expansion (amortized).
    if (checker.Expired()) {
      span.AddEvent("cn.deadline.hit");
      break;
    }
    ++expansions;
    CandidateNetwork cn = std::move(queue.front());
    queue.pop_front();
    const std::vector<size_t> deg = NodeDegrees(cn);
    if (IsValidFinal(cn, deg, full_mask)) result.push_back(cn);
    if (cn.size() >= options.max_size) continue;
    const size_t free_leaves = FreeLeaves(cn, deg);
    // Expand: attach one new node to any existing node via a schema edge,
    // growing `cn` in place and copying only the candidates kept.
    const uint32_t j = static_cast<uint32_t>(cn.nodes.size());
    for (uint32_t i = 0; i < j; ++i) {
      // Attaching to a free leaf makes it interior.
      const size_t kept_free =
          free_leaves - (cn.nodes[i].free() && deg[i] == 1 ? 1 : 0);
      for (const relational::SchemaEdge& se :
           db.SchemaNeighbors(cn.nodes[i].table)) {
        // FK-uniqueness: the referencing endpoint of this new edge must
        // not already use this FK.
        if (se.forward && UsesFkAsReferencing(cn, i, se.fk)) continue;
        for (KeywordMask m : attach_masks[se.other]) {
          // Free-leaf prune: size + free leaves never shrinks as nodes
          // are added and is 0 + size for a valid CN, so past the bound
          // no extension of this candidate is valid.
          if (j + 1 + kept_free + (m == 0 ? 1 : 0) > options.max_size) {
            continue;
          }
          cn.nodes.push_back(CnNode{se.other, m});
          cn.edges.push_back(CnEdge{i, j, se.fk, se.forward});
          if (first_sight(cn)) queue.push_back(cn);
          cn.nodes.pop_back();
          cn.edges.pop_back();
        }
      }
    }
  }
  // Order by size then canonical key for deterministic output; each key
  // is built once, not per comparison.
  std::vector<std::string> keys;
  keys.reserve(result.size());
  for (const CandidateNetwork& cn : result) keys.push_back(cn.CanonicalKey());
  std::vector<size_t> order(result.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (result[a].size() != result[b].size()) {
      return result[a].size() < result[b].size();
    }
    return keys[a] < keys[b];
  });
  std::vector<CandidateNetwork> sorted;
  sorted.reserve(result.size());
  for (size_t i : order) sorted.push_back(std::move(result[i]));
  span.AddCounter("expansions", expansions);
  span.AddCounter("candidates_seen", candidates_seen);
  span.AddCounter("cns", sorted.size());
  return sorted;
}

}  // namespace kws::cn
