// E1 — Candidate-network search-space growth (tutorial slide 115:
// "typically thousands of CNs"; DISCOVER, Hristidis et al. VLDB 02).
//
// Series: #CNs as a function of the number of query keywords and the
// maximum CN size, on the DBLP schema (author, writes, paper, conference,
// cite). The expected shape: roughly exponential growth in max CN size,
// reaching thousands of CNs by size ~6 — the scale that motivates the
// pruning/sharing work of slides 115-135.
//
// `expansions` is the `cn.enumerate` span's BFS-pop counter: a
// deterministic work count, so an algorithmic change shows in it exactly.
// `gen_ms` is the best of several runs (at least 3, and at least 20 ms in
// total), which keeps the sub-millisecond rows measurable for the
// benchdiff gate.

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/cn/candidate_network.h"
#include "relational/dblp.h"

namespace {

using kws::bench::Fmt;

/// The `cn.enumerate` span's `expansions` counter for one traced run.
uint64_t Expansions(const kws::trace::Tracer& tracer) {
  for (const kws::trace::Span& span : tracer.spans()) {
    if (span.name != "cn.enumerate") continue;
    for (const kws::trace::TraceCounter& c : span.counters) {
      if (c.name == "expansions") return c.value;
    }
  }
  return 0;
}

kws::relational::DblpDatabase MakeDb() {
  kws::relational::DblpOptions opts;
  opts.num_authors = 50;
  opts.num_papers = 100;
  return MakeDblpDatabase(opts);
}

void RunExperiment() {
  kws::bench::Banner("E1", "candidate network generation (DISCOVER)");
  kws::relational::DblpDatabase dblp = MakeDb();
  const kws::relational::Database& db = *dblp.db;
  // Keywords can match author names, paper titles and conference names —
  // the realistic setting (writes and cite are key-only tables).
  kws::bench::TablePrinter table(
      {"keywords", "max_cn_size", "num_cns", "expansions", "gen_ms"});
  for (size_t nk = 2; nk <= 4; ++nk) {
    const kws::cn::KeywordMask full = (1u << nk) - 1;
    std::vector<kws::cn::KeywordMask> masks(db.num_tables(), 0);
    masks[dblp.author] = full;
    masks[dblp.paper] = full;
    masks[dblp.conference] = full;
    const size_t cap = nk == 2 ? 6 : (nk == 3 ? 5 : 4);
    for (size_t max_size = 2; max_size <= cap; ++max_size) {
      kws::trace::Tracer tracer;
      const size_t num_cns =
          kws::cn::EnumerateCandidateNetworks(
              db, masks, full, {.max_size = max_size, .tracer = &tracer})
              .size();
      double best_ms = 0;
      double total_ms = 0;
      for (int run = 0; run < 3 || total_ms < 20.0; ++run) {
        kws::Stopwatch sw;
        auto cns = kws::cn::EnumerateCandidateNetworks(
            db, masks, full, {.max_size = max_size});
        benchmark::DoNotOptimize(cns);
        const double ms = sw.ElapsedMillis();
        best_ms = run == 0 ? ms : std::min(best_ms, ms);
        total_ms += ms;
      }
      table.Row({Fmt(nk), Fmt(max_size), Fmt(num_cns),
                 Fmt(Expansions(tracer)), Fmt(best_ms)});
    }
  }
}

void BM_EnumerateCns(benchmark::State& state) {
  kws::relational::DblpDatabase dblp = MakeDb();
  const size_t max_size = static_cast<size_t>(state.range(0));
  std::vector<kws::cn::KeywordMask> masks(dblp.db->num_tables(), 0);
  masks[dblp.author] = 3;
  masks[dblp.paper] = 3;
  masks[dblp.conference] = 3;
  for (auto _ : state) {
    auto cns = kws::cn::EnumerateCandidateNetworks(*dblp.db, masks, 3,
                                                   {.max_size = max_size});
    benchmark::DoNotOptimize(cns);
  }
}
BENCHMARK(BM_EnumerateCns)->Arg(3)->Arg(5);

}  // namespace

KWDB_BENCH_MAIN(RunExperiment)
