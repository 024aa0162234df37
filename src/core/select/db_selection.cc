#include "core/select/db_selection.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <shared_mutex>

#include "text/tokenizer.h"

namespace kws::select {

void DatabaseSelector::AddDatabase(const std::string& name,
                                   const relational::Database* db) {
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->db = db;
  entry->graph = graph::BuildDataGraph(*db, options_.graph_options);
  entry->index = std::make_unique<graph::KeywordDistanceIndex>(
      entry->graph.graph, options_.max_distance);
  entries_.push_back(std::move(entry));
}

std::vector<DatabaseScore> DatabaseSelector::Rank(
    const std::string& query) const {
  const std::vector<std::string> keywords =
      text::Tokenizer().Tokenize(query);
  std::vector<DatabaseScore> out;
  for (size_t e = 0; e < entries_.size(); ++e) {
    const auto& entry = entries_[e];
    DatabaseScore ds;
    ds.name = entry->name;
    ds.index = e;
    const graph::DataGraph& g = entry->graph.graph;
    // Coverage: ln(1 + matches) per keyword.
    double coverage = 0;
    for (size_t ki = 0; ki < keywords.size(); ++ki) {
      const size_t matches = g.MatchNodes(keywords[ki]).size();
      if (matches > 0) {
        ++ds.keywords_covered;
        if (ki < 32) ds.covered_mask |= (1u << ki);
        coverage += std::log(1.0 + static_cast<double>(matches));
      }
    }
    // Relationship: keyword pairs with some match of one within
    // max_distance of some match of the other.
    double relationship = 0;
    bool all_indexed = true;
    {
      std::shared_lock<std::shared_mutex> lock(entry->mu);
      for (const std::string& k : keywords) {
        all_indexed = all_indexed && entry->index->HasTerm(k);
      }
    }
    if (!all_indexed) {
      std::unique_lock<std::shared_mutex> lock(entry->mu);
      for (const std::string& k : keywords) entry->index->IndexTerm(k);
    }
    std::shared_lock<std::shared_mutex> lock(entry->mu);
    for (size_t i = 0; i < keywords.size(); ++i) {
      for (size_t j = i + 1; j < keywords.size(); ++j) {
        bool related = false;
        for (graph::NodeId m : g.MatchNodes(keywords[i])) {
          if (entry->index->Distance(m, keywords[j]) <=
              options_.max_distance) {
            related = true;
            break;
          }
        }
        if (related) {
          ++ds.joinable_pairs;
          relationship += 1.0;
        }
      }
    }
    ds.score = coverage + options_.relationship_weight * relationship;
    out.push_back(std::move(ds));
  }
  // Registration index breaks score ties: a pure function of AddDatabase
  // order, unlike names (callers may register duplicates) — shard pruning
  // built on this ranking must be reproducible everywhere.
  std::sort(out.begin(), out.end(),
            [](const DatabaseScore& a, const DatabaseScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  return out;
}

}  // namespace kws::select
