#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/random.h"

#include "core/cn/candidate_network.h"
#include "core/cn/execute.h"
#include "core/cn/search.h"
#include "core/cn/spark.h"
#include "core/cn/tuple_sets.h"
#include "relational/database.h"
#include "relational/dblp.h"

namespace kws::cn {
namespace {

using relational::Database;
using relational::Row;
using relational::TableSchema;
using relational::Value;
using relational::ValueType;

/// The tutorial's running example: author -- writes -- paper, with
/// hand-picked rows so expected results are known.
///
///   author: (0 widom), (1 john xml), (2 mark)
///   paper:  (0 "xml keyword search"), (1 "join processing"),
///           (2 "widom systems")
///   writes: widom->p0, john->p1, mark->p0, widom->p1
struct MiniDb {
  std::unique_ptr<Database> db;
  relational::TableId author, paper, writes;

  MiniDb() : db(std::make_unique<Database>()) {
    TableSchema a;
    a.name = "author";
    a.columns = {{"aid", ValueType::kInt, false},
                 {"name", ValueType::kText, true}};
    a.primary_key = 0;
    author = db->CreateTable(a).value();
    TableSchema p;
    p.name = "paper";
    p.columns = {{"pid", ValueType::kInt, false},
                 {"title", ValueType::kText, true}};
    p.primary_key = 0;
    paper = db->CreateTable(p).value();
    TableSchema w;
    w.name = "writes";
    w.columns = {{"wid", ValueType::kInt, false},
                 {"aid", ValueType::kInt, false},
                 {"pid", ValueType::kInt, false}};
    w.primary_key = 0;
    writes = db->CreateTable(w).value();

    auto& at = db->table(author);
    at.Append({Value::Int(0), Value::Text("widom")}).value();
    at.Append({Value::Int(1), Value::Text("john xml")}).value();
    at.Append({Value::Int(2), Value::Text("mark")}).value();
    auto& pt = db->table(paper);
    pt.Append({Value::Int(0), Value::Text("xml keyword search")}).value();
    pt.Append({Value::Int(1), Value::Text("join processing")}).value();
    pt.Append({Value::Int(2), Value::Text("widom systems")}).value();
    auto& wt = db->table(writes);
    wt.Append({Value::Int(0), Value::Int(0), Value::Int(0)}).value();
    wt.Append({Value::Int(1), Value::Int(1), Value::Int(1)}).value();
    wt.Append({Value::Int(2), Value::Int(2), Value::Int(0)}).value();
    wt.Append({Value::Int(3), Value::Int(0), Value::Int(1)}).value();

    EXPECT_TRUE(db->AddForeignKey("writes", "aid", "author", "aid").ok());
    EXPECT_TRUE(db->AddForeignKey("writes", "pid", "paper", "pid").ok());
    db->BuildTextIndexes();
  }
};

TEST(TupleSetsTest, ExactMasks) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  EXPECT_EQ(ts.full_mask(), 3u);
  EXPECT_EQ(ts.table_mask(mini.author), 3u);
  EXPECT_EQ(ts.table_mask(mini.paper), 3u);
  EXPECT_EQ(ts.table_mask(mini.writes), 0u);
  // author 0 matches exactly {widom}, author 1 exactly {xml}.
  EXPECT_EQ(ts.RowMask(mini.author, 0), 1u);
  EXPECT_EQ(ts.RowMask(mini.author, 1), 2u);
  EXPECT_EQ(ts.RowMask(mini.author, 2), 0u);
  EXPECT_EQ(ts.Get(mini.author, 1).size(), 1u);
  EXPECT_EQ(ts.Get(mini.author, 3).size(), 0u);
  EXPECT_TRUE(ts.Matches(mini.author, 2, 0));
  EXPECT_FALSE(ts.Matches(mini.author, 0, 0));
}

TEST(TupleSetsTest, ScoresPositiveAndSorted) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"xml"});
  const auto& rows = ts.Get(mini.paper, 1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].score, 0.0);
  EXPECT_EQ(ts.MaxScore(mini.paper, 1), rows[0].score);
  EXPECT_GT(ts.Idf(0), 0.0);
}

TEST(TupleSetsTest, TermFrequencies) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"xml", "widom"});
  EXPECT_EQ(ts.RowTf(mini.paper, 0, 0), 1u);
  EXPECT_EQ(ts.RowTf(mini.paper, 0, 1), 0u);
  EXPECT_EQ(ts.RowTf(mini.writes, 0, 0), 0u);
}

std::vector<KeywordMask> FullMasks(const Database& db, KeywordMask m,
                                   relational::TableId except) {
  std::vector<KeywordMask> masks(db.num_tables(), m);
  masks[except] = 0;
  return masks;
}

TEST(CnEnumTest, Slide28Networks) {
  MiniDb mini;
  // Both keywords can occur in author and paper, none in writes —
  // the exact setting of tutorial slide 28.
  auto masks = FullMasks(*mini.db, 3u, mini.writes);
  auto cns = EnumerateCandidateNetworks(*mini.db, masks, 3u,
                                        {.max_size = 5});
  ASSERT_FALSE(cns.empty());
  // Every CN is valid: full coverage, non-free necessary leaves.
  for (const auto& cn : cns) {
    EXPECT_EQ(cn.Coverage(), 3u);
    EXPECT_EQ(cn.edges.size(), cn.nodes.size() - 1);
  }
  // Expected members (slide 28): single-node A{both}, P{both};
  // A{k} - W - P{k'}; the size-5 "two authors one paper" and
  // "one author two papers" shapes.
  size_t size1 = 0, size3 = 0, size5 = 0;
  for (const auto& cn : cns) {
    if (cn.size() == 1) ++size1;
    if (cn.size() == 3) ++size3;
    if (cn.size() == 5) ++size5;
    EXPECT_NE(cn.size(), 2u);  // A-W or W-P alone can never be valid
  }
  EXPECT_EQ(size1, 2u);  // author{widom xml}, paper{widom xml}
  EXPECT_EQ(size3, 2u);  // author{widom}-W-paper{xml} and the swap
  EXPECT_GT(size5, 0u);
}

TEST(CnEnumTest, DuplicateFree) {
  MiniDb mini;
  auto masks = FullMasks(*mini.db, 3u, mini.writes);
  auto cns = EnumerateCandidateNetworks(*mini.db, masks, 3u,
                                        {.max_size = 5});
  std::set<std::string> keys;
  for (const auto& cn : cns) {
    EXPECT_TRUE(keys.insert(cn.CanonicalKey()).second)
        << "duplicate CN: " << cn.ToString(*mini.db, {"widom", "xml"});
  }
}

TEST(CnEnumTest, GrowsWithMaxSize) {
  MiniDb mini;
  auto masks = FullMasks(*mini.db, 3u, mini.writes);
  const size_t n3 =
      EnumerateCandidateNetworks(*mini.db, masks, 3u, {.max_size = 3}).size();
  const size_t n5 =
      EnumerateCandidateNetworks(*mini.db, masks, 3u, {.max_size = 5}).size();
  const size_t n7 =
      EnumerateCandidateNetworks(*mini.db, masks, 3u, {.max_size = 7}).size();
  EXPECT_LT(n3, n5);
  EXPECT_LT(n5, n7);
}

TEST(CnEnumTest, RespectsTableMasks) {
  MiniDb mini;
  // widom only in author, xml only in paper.
  std::vector<KeywordMask> masks(mini.db->num_tables(), 0);
  masks[mini.author] = 1u;
  masks[mini.paper] = 2u;
  auto cns = EnumerateCandidateNetworks(*mini.db, masks, 3u,
                                        {.max_size = 3});
  ASSERT_EQ(cns.size(), 1u);
  EXPECT_EQ(cns[0].size(), 3u);
  // The single CN is author{widom} - writes - paper{xml}.
  std::multiset<std::pair<relational::TableId, KeywordMask>> got;
  for (const CnNode& n : cns[0].nodes) got.emplace(n.table, n.mask);
  std::multiset<std::pair<relational::TableId, KeywordMask>> want = {
      {mini.author, 1u}, {mini.writes, 0u}, {mini.paper, 2u}};
  EXPECT_EQ(got, want);
}

TEST(CnEnumTest, CanonicalKeyInvariantUnderRelabeling) {
  MiniDb mini;
  // Build A{1} - W - P{2} with two different node orders.
  CandidateNetwork a;
  a.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  a.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  CandidateNetwork b;
  b.nodes = {{mini.paper, 2}, {mini.author, 1}, {mini.writes, 0}};
  b.edges = {{2, 0, 1, true}, {2, 1, 0, true}};
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  // Different mask assignment is a different CN.
  CandidateNetwork c = a;
  c.nodes[0].mask = 2;
  c.nodes[2].mask = 1;
  EXPECT_NE(a.CanonicalKey(), c.CanonicalKey());
}

// ------------------------------------------------- enumeration oracle

/// The string-keyed breadth-first enumerator that integer shape codes and
/// the free-leaf prune replaced, kept as the oracle: every candidate is
/// deduplicated on `CanonicalKey()` and nothing is pruned. Its validity
/// rule and one-node extensions also drive the prune-soundness check.
class ReferenceEnumerator {
 public:
  ReferenceEnumerator(const Database& db, std::vector<KeywordMask> masks,
                      KeywordMask full_mask)
      : db_(db), masks_(std::move(masks)), full_mask_(full_mask) {}

  /// Full coverage, and every leaf is a keyword node whose mask is needed.
  bool IsValid(const CandidateNetwork& cn) const {
    if (cn.Coverage() != full_mask_) return false;
    std::vector<size_t> deg(cn.nodes.size(), 0);
    for (const CnEdge& e : cn.edges) {
      ++deg[e.from];
      ++deg[e.to];
    }
    for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
      const bool leaf = (cn.nodes.size() == 1) || deg[i] == 1;
      if (!leaf) continue;
      if (cn.nodes[i].free()) return false;
      KeywordMask others = 0;
      for (uint32_t j = 0; j < cn.nodes.size(); ++j) {
        if (j != i) others |= cn.nodes[j].mask;
      }
      if ((others | cn.nodes[i].mask) == others) return false;
    }
    return true;
  }

  /// Single keyword nodes, in seed order.
  std::vector<CandidateNetwork> Seeds() const {
    std::vector<CandidateNetwork> out;
    for (relational::TableId t = 0; t < db_.num_tables(); ++t) {
      for (KeywordMask m : Submasks(masks_[t] & full_mask_)) {
        CandidateNetwork cn;
        cn.nodes.push_back(CnNode{t, m});
        out.push_back(std::move(cn));
      }
    }
    return out;
  }

  /// Every one-node extension of `cn`, in expansion order.
  std::vector<CandidateNetwork> Extensions(const CandidateNetwork& cn) const {
    std::vector<CandidateNetwork> out;
    for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
      for (const relational::SchemaEdge& se :
           db_.SchemaNeighbors(cn.nodes[i].table)) {
        if (se.forward && UsesFkAsReferencing(cn, i, se.fk)) continue;
        std::vector<KeywordMask> masks = {0};
        for (KeywordMask m : Submasks(masks_[se.other] & full_mask_)) {
          masks.push_back(m);
        }
        for (KeywordMask m : masks) {
          CandidateNetwork next = cn;
          const uint32_t j = static_cast<uint32_t>(next.nodes.size());
          next.nodes.push_back(CnNode{se.other, m});
          next.edges.push_back(CnEdge{i, j, se.fk, se.forward});
          out.push_back(std::move(next));
        }
      }
    }
    return out;
  }

  /// The enumeration itself. `explored`, when given, receives every
  /// candidate enqueued, in BFS order.
  std::vector<CandidateNetwork> Enumerate(
      size_t max_size,
      std::vector<CandidateNetwork>* explored = nullptr) const {
    std::vector<CandidateNetwork> result;
    if (full_mask_ == 0) return result;
    std::unordered_set<std::string> seen;
    std::unordered_set<std::string> emitted;
    std::deque<CandidateNetwork> queue;
    for (CandidateNetwork& cn : Seeds()) {
      if (seen.insert(cn.CanonicalKey()).second) queue.push_back(cn);
    }
    while (!queue.empty()) {
      CandidateNetwork cn = std::move(queue.front());
      queue.pop_front();
      if (explored != nullptr) explored->push_back(cn);
      if (IsValid(cn)) {
        if (emitted.insert(cn.CanonicalKey()).second) result.push_back(cn);
      }
      if (cn.size() >= max_size) continue;
      for (CandidateNetwork& next : Extensions(cn)) {
        if (seen.insert(next.CanonicalKey()).second) {
          queue.push_back(std::move(next));
        }
      }
    }
    std::sort(result.begin(), result.end(),
              [](const CandidateNetwork& a, const CandidateNetwork& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a.CanonicalKey() < b.CanonicalKey();
              });
    return result;
  }

 private:
  static std::vector<KeywordMask> Submasks(KeywordMask mask) {
    std::vector<KeywordMask> out;
    for (KeywordMask s = mask; s != 0; s = (s - 1) & mask) out.push_back(s);
    std::sort(out.begin(), out.end());
    return out;
  }

  static bool UsesFkAsReferencing(const CandidateNetwork& cn, uint32_t node,
                                  uint32_t fk) {
    for (const CnEdge& e : cn.edges) {
      const uint32_t referencing = e.forward ? e.from : e.to;
      if (referencing == node && e.fk == fk) return true;
    }
    return false;
  }

  const Database& db_;
  std::vector<KeywordMask> masks_;
  KeywordMask full_mask_;
};

/// Every field of a CN, node and edge numbering included.
std::string Render(const CandidateNetwork& cn) {
  std::string out;
  for (const CnNode& n : cn.nodes) {
    out += std::to_string(n.table) + "/" + std::to_string(n.mask) + " ";
  }
  for (const CnEdge& e : cn.edges) {
    out += std::to_string(e.from) + (e.forward ? ">" : "<") +
           std::to_string(e.to) + ":" + std::to_string(e.fk) + " ";
  }
  return out;
}

std::vector<std::string> RenderAll(const std::vector<CandidateNetwork>& cns) {
  std::vector<std::string> out;
  for (const CandidateNetwork& cn : cns) out.push_back(Render(cn));
  return out;
}

/// Each of `tables` gets each keyword with probability `p`, and a keyword
/// no table drew goes to a random one of them, so full coverage is
/// possible; the other tables get none.
std::vector<KeywordMask> RandomMasks(
    size_t num_tables, const std::vector<relational::TableId>& tables,
    KeywordMask full, double p, Rng& rng) {
  std::vector<KeywordMask> masks(num_tables, 0);
  for (KeywordMask bit = 1; bit <= full; bit <<= 1) {
    bool drawn = false;
    for (relational::TableId t : tables) {
      if (rng.Chance(p)) {
        masks[t] |= bit;
        drawn = true;
      }
    }
    if (!drawn) masks[tables[rng.Uniform(tables.size())]] |= bit;
  }
  return masks;
}

relational::DblpDatabase OracleDblp() {
  relational::DblpOptions opts;
  opts.num_conferences = 4;
  opts.num_authors = 12;
  opts.num_papers = 16;
  return relational::MakeDblpDatabase(opts);
}

/// (keywords, max_size)
class EnumOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(EnumOracleTest, SameCnsNodesEdgesAndOrderAsStringKeyedBfs) {
  const auto [nk, max_size] = GetParam();
  const relational::DblpDatabase dblp = OracleDblp();
  const Database& db = *dblp.db;
  const KeywordMask full = static_cast<KeywordMask>((1u << nk) - 1);
  Rng rng(1000 * nk + max_size);
  // The oracle's cost explodes with keywords and size. The smaller half
  // of the grid runs the text tables at full masks (the E1 setting) and
  // dense random masks over every table; the larger half gives each
  // keyword to one random text table, as a query's terms usually land
  // (writes and cite are key-only).
  const bool small = nk + max_size <= 7;
  std::vector<relational::TableId> tables = {dblp.author, dblp.paper,
                                             dblp.conference};
  std::vector<std::vector<KeywordMask>> trials;
  if (small) {
    trials.emplace_back(db.num_tables(), 0);
    for (relational::TableId t : tables) trials.back()[t] = full;
    tables.push_back(dblp.writes);
    tables.push_back(dblp.cite);
  }
  for (int t = 0; t < 4; ++t) {
    trials.push_back(
        RandomMasks(db.num_tables(), tables, full, small ? 0.5 : 0.0, rng));
  }
  for (size_t t = 0; t < trials.size(); ++t) {
    const std::vector<CandidateNetwork> want =
        ReferenceEnumerator(db, trials[t], full).Enumerate(max_size);
    const std::vector<CandidateNetwork> got = EnumerateCandidateNetworks(
        db, trials[t], full, {.max_size = max_size});
    EXPECT_EQ(RenderAll(got), RenderAll(want)) << "trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnumOracleTest,
    ::testing::Combine(::testing::Range<size_t>(1, 5),
                       ::testing::Range<size_t>(1, 7)));

/// Random labeled trees over the DBLP schema's tables and FKs, with a
/// shuffled node numbering.
CandidateNetwork RandomTree(size_t n, size_t num_tables, size_t num_fks,
                            Rng& rng) {
  CandidateNetwork cn;
  for (size_t i = 0; i < n; ++i) {
    cn.nodes.push_back(CnNode{static_cast<relational::TableId>(
                                  rng.Uniform(num_tables)),
                              static_cast<KeywordMask>(rng.Uniform(4))});
    if (i == 0) continue;
    cn.edges.push_back(CnEdge{static_cast<uint32_t>(rng.Uniform(i)),
                              static_cast<uint32_t>(i),
                              static_cast<uint32_t>(rng.Uniform(num_fks)),
                              rng.Chance(0.5)});
  }
  return cn;
}

TEST(CnShapeCoderTest, CodeEqualityIsCanonicalKeyEquality) {
  // Few labels and small trees, so isomorphic pairs are common.
  Rng rng(7);
  CnShapeCoder coder;
  std::vector<std::pair<uint32_t, std::string>> seen;
  size_t equal_pairs = 0;
  for (int i = 0; i < 400; ++i) {
    const CandidateNetwork cn =
        RandomTree(1 + rng.Uniform(6), 2, 2, rng);
    const uint32_t code = coder.Code(cn);
    const std::string key = cn.CanonicalKey();
    for (const auto& [other_code, other_key] : seen) {
      EXPECT_EQ(code == other_code, key == other_key) << Render(cn);
      equal_pairs += key == other_key ? 1 : 0;
    }
    seen.emplace_back(code, key);
    // Renumbering the nodes leaves the code alone.
    CandidateNetwork shuffled = cn;
    std::vector<uint32_t> perm(cn.size());
    std::iota(perm.begin(), perm.end(), 0u);
    rng.Shuffle(perm);
    for (size_t v = 0; v < cn.size(); ++v) shuffled.nodes[perm[v]] = cn.nodes[v];
    for (CnEdge& e : shuffled.edges) {
      e.from = perm[e.from];
      e.to = perm[e.to];
    }
    EXPECT_EQ(coder.Code(shuffled), code) << Render(cn);
    EXPECT_EQ(shuffled.CanonicalKey(), key) << Render(cn);
  }
  EXPECT_GT(equal_pairs, 0u) << "no isomorphic pair drawn; the check is void";
}

TEST(CnEnumTest, PrunedCandidatesHaveNoValidExtension) {
  // The prune drops a candidate once size + free leaves > max_size.
  // Explore without pruning and extend every such candidate exhaustively
  // up to max_size: none of its extensions may be valid.
  const relational::DblpDatabase dblp = OracleDblp();
  const Database& db = *dblp.db;
  const size_t max_size = 5;
  std::vector<KeywordMask> masks(db.num_tables(), 0);
  masks[dblp.author] = masks[dblp.paper] = 3;
  const ReferenceEnumerator ref(db, masks, 3);
  std::vector<CandidateNetwork> explored;
  ref.Enumerate(max_size, &explored);
  const auto free_leaves = [](const CandidateNetwork& cn) {
    std::vector<size_t> deg(cn.nodes.size(), 0);
    for (const CnEdge& e : cn.edges) {
      ++deg[e.from];
      ++deg[e.to];
    }
    size_t n = 0;
    for (size_t i = 0; i < cn.nodes.size(); ++i) {
      if (cn.nodes[i].free() && (cn.size() == 1 || deg[i] == 1)) ++n;
    }
    return n;
  };
  size_t pruned = 0;
  for (const CandidateNetwork& cn : explored) {
    if (cn.size() + free_leaves(cn) <= max_size) continue;
    ++pruned;
    std::vector<CandidateNetwork> frontier = {cn};
    while (!frontier.empty()) {
      const CandidateNetwork x = std::move(frontier.back());
      frontier.pop_back();
      ASSERT_FALSE(ref.IsValid(x))
          << Render(x) << " extends pruned " << Render(cn);
      if (x.size() >= max_size) continue;
      for (CandidateNetwork& next : ref.Extensions(x)) {
        frontier.push_back(std::move(next));
      }
    }
  }
  EXPECT_GT(pruned, 0u);
}

TEST(ExecuteCnTest, JoinsExpectedTuples) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  // author{widom} - writes - paper{xml}
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  auto results = ExecuteCn(*mini.db, cn, ts);
  // widom wrote p0 ("xml keyword search") via w0. p0 matches exactly
  // {xml}. widom->p1 does not match. So exactly one result.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rows[0], 0u);  // author widom
  EXPECT_EQ(results[0].rows[2], 0u);  // paper xml keyword search
  EXPECT_GT(results[0].score, 0.0);
}

TEST(ExecuteCnTest, FixedRowsConstrainResults) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  std::vector<std::optional<relational::RowId>> fixed(3);
  fixed[0] = 0;  // widom
  fixed[2] = 0;  // the xml paper
  EXPECT_EQ(ExecuteCn(*mini.db, cn, ts, fixed).size(), 1u);
  fixed[2] = 1;  // "join processing" does not match {xml}
  EXPECT_TRUE(ExecuteCn(*mini.db, cn, ts, fixed).empty());
}

TEST(ExecuteCnTest, LimitCapsResults) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom"});
  // author{widom} - writes (writes rows are keyword-free): widom wrote
  // two papers, so the CN author{widom}-W has 2 results... but W leaf is
  // free; execute directly regardless (executor does not re-validate).
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}};
  cn.edges = {{1, 0, 0, true}};
  EXPECT_EQ(ExecuteCn(*mini.db, cn, ts).size(), 2u);
  EXPECT_EQ(ExecuteCn(*mini.db, cn, ts, {}, 1).size(), 1u);
}

TEST(ExecuteCnTest, ScoreBoundDominatesResults) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  const double bound = CnScoreBound(cn, ts);
  for (const auto& jt : ExecuteCn(*mini.db, cn, ts)) {
    EXPECT_LE(jt.score, bound + 1e-12);
  }
}

TEST(SearchTest, FindsWidomXmlConnection) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  std::vector<CandidateNetwork> cns;
  auto results = search.Search("widom xml", {.k = 10}, &cns);
  ASSERT_FALSE(results.empty());
  // Top results must include the author0-writes0-paper0 join.
  bool found = false;
  for (const auto& r : results) {
    std::set<std::pair<relational::TableId, relational::RowId>> tuples;
    for (const auto& t : r.tuples) tuples.emplace(t.table, t.row);
    if (tuples.count({mini.author, 0}) && tuples.count({mini.paper, 0})) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SearchTest, EmptyQueryGivesNoResults) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  EXPECT_TRUE(search.Search("", {.k = 5}, nullptr).empty());
  EXPECT_TRUE(search.Search("zzzzz", {.k = 5}, nullptr).empty());
}

/// Property: all three strategies return the same top-k score sequence.
class StrategyAgreementTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(StrategyAgreementTest, SameTopKScores) {
  const std::string query = std::get<0>(GetParam());
  const size_t k = std::get<1>(GetParam());
  relational::DblpOptions opts;
  opts.num_authors = 80;
  opts.num_papers = 150;
  opts.num_conferences = 8;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  CnKeywordSearch search(*dblp.db);

  auto run = [&](Strategy s) {
    SearchOptions so;
    so.k = k;
    so.max_cn_size = 4;
    so.strategy = s;
    return search.Search(query, so, nullptr);
  };
  auto naive = run(Strategy::kNaive);
  auto sparse = run(Strategy::kSparse);
  auto pipeline = run(Strategy::kGlobalPipeline);
  ASSERT_EQ(naive.size(), sparse.size());
  ASSERT_EQ(naive.size(), pipeline.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i].score, sparse[i].score, 1e-9) << "rank " << i;
    EXPECT_NEAR(naive[i].score, pipeline[i].score, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyAgreementTest,
    ::testing::Combine(::testing::Values("keyword search", "database query",
                                         "james chen", "xml"),
                       ::testing::Values(1, 5, 20)));

TEST(SearchStatsTest, SparseEvaluatesFewerCnsThanNaive) {
  relational::DblpOptions opts;
  opts.num_authors = 100;
  opts.num_papers = 200;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  CnKeywordSearch search(*dblp.db);
  SearchStats naive_stats, sparse_stats;
  SearchOptions so;
  so.k = 5;
  so.max_cn_size = 4;
  so.strategy = Strategy::kNaive;
  search.Search("keyword search", so, nullptr, &naive_stats);
  so.strategy = Strategy::kSparse;
  search.Search("keyword search", so, nullptr, &sparse_stats);
  EXPECT_EQ(naive_stats.cns_enumerated, sparse_stats.cns_enumerated);
  EXPECT_LE(sparse_stats.cns_evaluated, naive_stats.cns_evaluated);
  EXPECT_LE(sparse_stats.results_materialized,
            naive_stats.results_materialized);
}

/// Garbage-filled stats handed to an early-returning Search must come
/// back fully reset: Search value-initializes `*stats` on entry, so no
/// exit path can leak a previous query's numbers.
SearchStats GarbageStats() {
  SearchStats s;
  s.cns_enumerated = 111;
  s.cns_evaluated = 222;
  s.results_materialized = 333;
  s.join_lookups = 444;
  s.candidates_verified = 555;
  s.deadline_hit = true;
  return s;
}

TEST(SearchStatsTest, EmptyQueryResetsReusedStats) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  SearchStats stats = GarbageStats();
  EXPECT_TRUE(search.Search("", {}, nullptr, &stats).empty());
  EXPECT_EQ(stats.cns_enumerated, 0u);
  EXPECT_EQ(stats.cns_evaluated, 0u);
  EXPECT_EQ(stats.results_materialized, 0u);
  EXPECT_EQ(stats.join_lookups, 0u);
  EXPECT_EQ(stats.candidates_verified, 0u);
  EXPECT_FALSE(stats.deadline_hit);
}

TEST(SearchStatsTest, NoMatchQueryResetsReusedStats) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  SearchStats stats = GarbageStats();
  EXPECT_TRUE(
      search.Search("zzzznothing qqqqnomatch", {}, nullptr, &stats).empty());
  EXPECT_EQ(stats.cns_evaluated, 0u);
  EXPECT_EQ(stats.results_materialized, 0u);
  EXPECT_FALSE(stats.deadline_hit);
}

TEST(SearchStatsTest, ExpiredDeadlineResetsStatsThenMarksTheHit) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kSparse, Strategy::kGlobalPipeline}) {
    SearchStats stats = GarbageStats();
    SearchOptions so;
    so.strategy = strategy;
    so.deadline = Deadline::AfterMicros(0);
    search.Search("widom xml", so, nullptr, &stats);
    EXPECT_TRUE(stats.deadline_hit) << StrategyToString(strategy);
    // Everything else restarted from zero, so no counter can still carry
    // the garbage watermark.
    EXPECT_LT(stats.results_materialized, 333u) << StrategyToString(strategy);
    EXPECT_LT(stats.join_lookups, 444u) << StrategyToString(strategy);
    EXPECT_LT(stats.candidates_verified, 555u) << StrategyToString(strategy);
  }
}

/// Property: SPARK algorithms agree with the naive reference.
class SparkAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SparkAgreementTest, SameTopKScores) {
  const std::string query = GetParam();
  relational::DblpOptions opts;
  opts.num_authors = 60;
  opts.num_papers = 120;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  SparkSearch search(*dblp.db);
  auto run = [&](SparkAlgorithm a) {
    SparkOptions so;
    so.k = 10;
    so.max_cn_size = 4;
    so.algorithm = a;
    return search.Search(query, so, nullptr);
  };
  auto naive = run(SparkAlgorithm::kNaive);
  auto sweep = run(SparkAlgorithm::kSkylineSweep);
  auto block = run(SparkAlgorithm::kBlockPipeline);
  ASSERT_EQ(naive.size(), sweep.size());
  ASSERT_EQ(naive.size(), block.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i].score, sweep[i].score, 1e-9) << "rank " << i;
    EXPECT_NEAR(naive[i].score, block[i].score, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparkAgreementTest,
                         ::testing::Values("keyword search", "database",
                                           "james chen"));

TEST(SparkScoreTest, VirtualDocumentSublinearity) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"xml"});
  // Two results: author{xml} alone (tf=1) vs a tree where xml appears in
  // author and paper (tf=2). The combined tree's score must be less than
  // the sum of the parts' (1+ln tf) contributions — that is the
  // non-monotonicity SPARK handles.
  CandidateNetwork single;
  single.nodes = {{mini.author, 1}};
  const double s1 = SparkScore(single, ts, {1});
  CandidateNetwork tree;
  tree.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 1}};
  tree.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  const double s3 = SparkScore(tree, ts, {1, 1, 0});
  // Virtual document: tf=2 -> (1+ln2)*idf / penalty(3).
  EXPECT_GT(s1, 0.0);
  EXPECT_GT(s3, 0.0);
  EXPECT_LT(s3, 2 * s1);  // dampened + size-penalized
}

TEST(SparkStatsTest, SweepScoresFewerCandidatesThanNaive) {
  relational::DblpOptions opts;
  opts.num_authors = 100;
  opts.num_papers = 200;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  SparkSearch search(*dblp.db);
  SparkStats naive_stats, sweep_stats;
  SparkOptions so;
  so.k = 5;
  so.max_cn_size = 4;
  so.algorithm = SparkAlgorithm::kNaive;
  search.Search("keyword search", so, nullptr, &naive_stats);
  so.algorithm = SparkAlgorithm::kSkylineSweep;
  search.Search("keyword search", so, nullptr, &sweep_stats);
  EXPECT_LT(sweep_stats.candidates_scored, naive_stats.candidates_scored);
}

}  // namespace
}  // namespace kws::cn

// ------------------------------------------------- semijoin reduction

#include "core/cn/semijoin.h"

namespace kws::cn {
namespace {

class SemiJoinOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemiJoinOracleTest, SameResultsAsPlainExecution) {
  relational::DblpOptions opts;
  opts.seed = GetParam();
  opts.num_authors = 30;
  opts.num_papers = 60;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  TupleSets ts(*dblp.db, {"keyword", "search"});
  auto cns = EnumerateCandidateNetworks(*dblp.db, ts.table_masks(),
                                        ts.full_mask(), {.max_size = 4});
  for (const auto& network : cns) {
    auto plain = ExecuteCn(*dblp.db, network, ts);
    SemiJoinStats sj;
    auto reduced = ExecuteCnSemiJoin(*dblp.db, network, ts, &sj);
    std::vector<std::vector<relational::RowId>> a, b;
    for (const auto& jt : plain) a.push_back(jt.rows);
    for (const auto& jt : reduced) b.push_back(jt.rows);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_LE(sj.rows_after, sj.rows_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SemiJoinOracleTest,
                         ::testing::Values(3, 5, 8));

TEST(SemiJoinTest, FullReducerKeepsOnlyParticipants) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  auto sets = SemiJoinReduce(*mini.db, cn, ts);
  // The only result is widom(a0) - w0 - p0: after full reduction every
  // set holds exactly the participating row.
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], (std::vector<relational::RowId>{0}));
  EXPECT_EQ(sets[1], (std::vector<relational::RowId>{0}));
  EXPECT_EQ(sets[2], (std::vector<relational::RowId>{0}));
}

TEST(SemiJoinTest, EmptySetShortCircuits) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "nonexistent"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  EXPECT_TRUE(ExecuteCnSemiJoin(*mini.db, cn, ts).empty());
}

}  // namespace
}  // namespace kws::cn
