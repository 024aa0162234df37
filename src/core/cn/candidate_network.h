#ifndef KWDB_CORE_CN_CANDIDATE_NETWORK_H_
#define KWDB_CORE_CN_CANDIDATE_NETWORK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "relational/database.h"

namespace kws::cn {

/// Bitmask over the query's keywords (keyword i = bit i). At most 16
/// keywords per query, far beyond anything the surveyed systems evaluate.
using KeywordMask = uint32_t;

/// One node of a candidate network: a tuple set R^Q_K. `mask == 0` is the
/// free tuple set R (interior connector); a nonzero mask is the set of
/// tuples containing exactly the keywords in `mask` (DISCOVER's duplicate-
/// free "exact" semantics).
struct CnNode {
  relational::TableId table = 0;
  KeywordMask mask = 0;

  bool free() const { return mask == 0; }
};

/// Tree edge between CN nodes. `forward` means `from` is the referencing
/// side of foreign key `fk` (matching relational::SchemaEdge).
struct CnEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  uint32_t fk = 0;
  bool forward = false;
};

/// A candidate network: a joining tree of tuple sets whose union of
/// keyword masks covers the whole query (tutorial slide 28).
struct CandidateNetwork {
  std::vector<CnNode> nodes;
  std::vector<CnEdge> edges;  // exactly nodes.size() - 1 entries

  size_t size() const { return nodes.size(); }

  /// Union of all node masks.
  KeywordMask Coverage() const;

  /// Canonical encoding invariant under tree isomorphism; equal strings
  /// <=> equivalent CNs. Used for duplicate-free enumeration.
  std::string CanonicalKey() const;

  /// Canonical encoding of the subtree rooted at `root`, looking away
  /// from `parent` (pass UINT32_MAX for the whole tree; not minimized
  /// over roots): equal strings <=> isomorphic rooted join expressions.
  /// This is the memoization key of the shared (partition-graph style)
  /// execution.
  std::string RootedKey(uint32_t root, uint32_t parent = UINT32_MAX) const;

  /// "AQ{1} <- W -> PQ{2}" style rendering.
  std::string ToString(const relational::Database& db,
                       const std::vector<std::string>& keywords) const;
};

/// Interns candidate-network shapes as small integers (AHU-style tree
/// codes). Every rooted subtree gets the code of its label (table, mask)
/// plus the sorted list of its (fk, direction, child code) entries, so two
/// rooted subtrees share a code iff they are isomorphic. `Code` keys an
/// unrooted CN by the smaller code at its tree centre(s): equal codes <=>
/// equal `CanonicalKey()` strings. Codes are dense (0, 1, 2, ...) and only
/// comparable within one coder, which is why enumeration builds one per
/// call.
class CnShapeCoder {
 public:
  /// The isomorphism-invariant code of `cn` (which must be a tree).
  uint32_t Code(const CandidateNetwork& cn);

  /// Number of distinct rooted shapes interned so far; every code
  /// returned is below it.
  size_t size() const { return codes_.size(); }

 private:
  struct Adj {
    uint32_t neighbor;
    uint32_t fk;
    uint32_t child_referencing;
  };
  struct Entry {
    uint32_t fk;
    uint32_t child_referencing;
    uint32_t code;
    bool operator<(const Entry& o) const {
      if (fk != o.fk) return fk < o.fk;
      if (child_referencing != o.child_referencing) {
        return child_referencing < o.child_referencing;
      }
      return code < o.code;
    }
  };

  uint32_t Rooted(const CandidateNetwork& cn, uint32_t node, uint32_t parent);

  std::unordered_map<std::string, uint32_t> codes_;
  // Scratch reused across calls so a probe allocates nothing.
  std::vector<std::vector<Adj>> adj_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> degree_;
  std::vector<uint32_t> layer_;
  std::vector<uint32_t> next_layer_;
  std::string key_;
};

/// Options for CN enumeration.
struct CnEnumOptions {
  /// Maximum number of nodes in a CN (DISCOVER's Tmax).
  size_t max_size = 5;
  /// Cooperative cancellation: enumeration stops (returning the CNs found
  /// so far) once the deadline expires. Infinite by default.
  Deadline deadline = {};
  /// Optional per-query tracer: wraps enumeration in a `cn.enumerate`
  /// span with seed/expansion/dedup counters. Not owned; may be null.
  trace::Tracer* tracer = nullptr;
};

/// Enumerates all valid candidate networks, duplicate-free, breadth-first
/// by size (Hristidis et al., VLDB 02; tutorial slide 115). Output is
/// ordered by size, then `CanonicalKey()`.
///
/// `table_masks[t]` gives the keywords that table `t` can match (a node
/// (t, K) is only considered when K is a subset); pass all-ones for pure
/// schema-level enumeration. Validity: coverage == `full_mask`, every leaf
/// is a non-free node whose mask is necessary (minimality), and no node
/// uses the same foreign key twice from its referencing side (such joins
/// would force a duplicate tuple in every result).
///
/// Candidates are deduplicated on `CnShapeCoder` codes, and a candidate
/// whose size plus free-leaf count exceeds `max_size` is dropped: each
/// added node turns at most one free leaf interior, so neither it nor any
/// extension can become valid within the bound.
std::vector<CandidateNetwork> EnumerateCandidateNetworks(
    const relational::Database& db, const std::vector<KeywordMask>& table_masks,
    KeywordMask full_mask, const CnEnumOptions& options = {});

}  // namespace kws::cn

#endif  // KWDB_CORE_CN_CANDIDATE_NETWORK_H_
