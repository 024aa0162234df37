#ifndef KWDB_CORE_SELECT_DB_SELECTION_H_
#define KWDB_CORE_SELECT_DB_SELECTION_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "graph/blinks_index.h"
#include "graph/data_graph.h"
#include "relational/database.h"

namespace kws::select {

/// Per-database score breakdown.
struct DatabaseScore {
  std::string name;
  /// Registration index of the database (AddDatabase order). Equal-score
  /// databases rank in this order, so rankings — and any pruning built on
  /// them — are reproducible across platforms and std::sort
  /// implementations.
  size_t index = 0;
  double score = 0;
  /// Coverage part: how many query keywords match at all.
  size_t keywords_covered = 0;
  /// Bit i set when query keyword i (tokenized order, first 32 only)
  /// matches somewhere in the database. `kws::shard` compares these masks
  /// across shards to prune shards that miss a keyword every answer needs.
  uint32_t covered_mask = 0;
  /// Relationship part: how many keyword pairs are joinable within the
  /// distance bound.
  size_t joinable_pairs = 0;
};

/// Tuning knobs for keyword-relationship database selection.
struct SelectorOptions {
  /// Maximum join distance for two keywords to count as related (the
  /// keyword-relationship radius of Yu et al.).
  double max_distance = 4.0;
  /// Weight of the relationship part vs the coverage part.
  double relationship_weight = 2.0;
  /// Edge weights for the per-database data graphs. The default
  /// (degree-weighted backward edges) matches BANKS II ranking; pruning
  /// that needs `Distance` to bound *hop* counts (`kws::shard`) must set
  /// `degree_weighted_backward = false` for unit weights.
  graph::GraphBuildOptions graph_options = {};
};

/// Keyword-based selection of relational databases (Yu et al.,
/// SIGMOD 07; tutorial slide 168): in a multi-database setting, rank the
/// databases most likely to answer a keyword query — not merely the ones
/// *containing* the keywords, but the ones where the keywords are
/// *joinably related*. Scores combine idf-weighted keyword coverage with
/// a keyword-relationship measure: the number of keyword pairs connected
/// within a distance bound in the database's data graph.
class DatabaseSelector {
 public:
  explicit DatabaseSelector(SelectorOptions options = {})
      : options_(options) {}

  /// Registers a database (must outlive the selector); builds its data
  /// graph and distance machinery.
  void AddDatabase(const std::string& name, const relational::Database* db);

  /// Ranks all registered databases for `query`, best first. Safe to call
  /// from concurrent threads: the per-database distance index is filled
  /// lazily, the first time a keyword is seen, under that database's lock.
  std::vector<DatabaseScore> Rank(const std::string& query) const;

  size_t num_databases() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    const relational::Database* db = nullptr;
    graph::RelationalGraph graph;
    /// Guards `index`: shared to read distances, exclusive to index a
    /// keyword not seen before.
    std::shared_mutex mu;  // kwslint: allow(mutex-style) -- struct member
    std::unique_ptr<graph::KeywordDistanceIndex> index;
  };

  SelectorOptions options_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace kws::select

#endif  // KWDB_CORE_SELECT_DB_SELECTION_H_
