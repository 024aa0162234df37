#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/check.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cn/candidate_network.h"
#include "core/cn/search.h"
#include "core/cn/tuple_set_cache.h"
#include "core/cn/tuple_sets.h"
#include "core/engine/engine.h"
#include "core/engine/xml_engine.h"
#include "core/lca/slca.h"
#include "core/refine/data_clouds.h"
#include "graph/data_graph.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "report.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "shard/sharded_corpus.h"
#include "shard/sharded_engine.h"
#include "spans.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"
#include "xml/bibgen.h"

namespace kwbench {
namespace {

using kws::Rng;
using kws::SplitSeed;
using kws::Stopwatch;
using kws::ThreadPool;
namespace cn = kws::cn;
namespace engine = kws::engine;
namespace relational = kws::relational;
namespace serve = kws::serve;
namespace shard = kws::shard;

// Load shape: kClients closed-loop clients against kWorkers server
// workers keeps the busy threads at or below the 4 cores the benchmark
// was sized on (clients mostly wait on their future).
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kShards = 4;
constexpr size_t kTopK = 10;
constexpr size_t kMaxCnSize = 5;  // EngineOptions' serving default
constexpr size_t kNumSuggestions = 5;  // EngineOptions' default
constexpr double kZipfTheta = 0.9;
// Far below the 368 distinct queries, so sharded misses continue in
// steady state: a hit rate of about 0.2, which puts the median request
// among the 2-keyword misses. With a hit rate above 0.5 the median is a
// cache hit, two thread wake-ups of 0.03-0.09 ms whose run-to-run spread
// on a shared host exceeds any bound (see README.md).
constexpr size_t kShardedCacheCapacity = 12;
constexpr size_t kTupleCacheCapacity = 256;  // ServeOptions default
constexpr size_t kCacheCapacity = 1024;      // ServeOptions default
// Untimed warm-up requests (part of set-up).
constexpr size_t kWarmupRequests = 24;
// rel_write: reads between two insert batches. Each batch bumps the
// data epoch, which turns every cached answer into a miss, so this sets
// the result-cache hit rate: about 0.2 at 24 reads. A rate of 0.3-0.4
// (72-96 reads) would make hits plus 1-keyword misses about half of all
// requests, and p50 would jump between ~5 ms and ~15 ms from seed to
// seed; at 0.2 it stays among the 2-keyword misses (see README.md).
constexpr size_t kPhaseReads = 24;
// rel_write: the phases whose responses the oracle checks (every run
// measures at least this many).
constexpr size_t kCheckedPhases = 16;
// ~40k-node bibliography for xml_cold: a median request of ~5 ms, so
// the two thread hand-offs per request are a small part of its latency.
// At ~10k nodes a request takes ~1 ms, and its wall-clock figures spread
// beyond the bound on a shared host while its CPU time does not (see
// README.md).
constexpr size_t kXmlVenues = 920;
constexpr size_t kXmlPoolTerms = 30;

// setup_s is the median of at least kMinSetups set-ups; cheap set-ups
// repeat until kSetupBudgetS has accumulated, so their median is not a
// handful of scheduler-sized samples.
constexpr size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 1.5;

// The run length the replay and oracle sizes below are set for; shorter
// runs shrink them in proportion.
constexpr double kFullRunSeconds = 15;

// SplitSeed streams of the workload seed. Clients use streams 0..k-1.
constexpr uint64_t kOracleStream = 200;
constexpr uint64_t kBatchStream = 1000;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// `n` for a run of kFullRunSeconds or longer, proportionally fewer (at
/// least 1) for a shorter one.
size_t Scaled(size_t n, double seconds) {
  const double scale = std::min(1.0, seconds / kFullRunSeconds);
  return std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * scale));
}

/// True once a measured window of `seconds` may end after `elapsed_s`
/// with `done` requests completed: when `seconds` passed and p95 has at
/// least ten samples beyond it, or at the latest after three times
/// `seconds`.
bool WindowDone(double elapsed_s, size_t done, double seconds) {
  if (elapsed_s >= 3 * seconds) return true;
  return elapsed_s >= seconds && done >= MinSamplesFor(0.95);
}

relational::TableId FindTable(const relational::Database& db,
                              const std::string& name) {
  for (relational::TableId t = 0; t < db.num_tables(); ++t) {
    if (db.table(t).name() == name) return t;
  }
  return 0;
}

std::vector<std::string> DblpPool(const relational::Database& db,
                                  size_t max_keywords) {
  std::vector<std::string> pool;
  for (std::string& q : serve::QueryPool(
           relational::MakeQueryLog(db, FindTable(db, "paper")))) {
    if (static_cast<size_t>(std::count(q.begin(), q.end(), ' ')) <
        max_keywords) {
      pool.push_back(std::move(q));
    }
  }
  return pool;
}

/// One client's query stream over a pool: stratified Zipf draws (Zipf
/// rank = pool index), or a walk over a fixed order of the pool.
class QueryStream {
 public:
  /// Zipf ranks by inverting `cdf`. Draws come in blocks of cdf.size():
  /// each block takes one uniform from each of cdf.size() equal strata of
  /// [0, 1), in shuffled order, so every block holds nearly the exact Zipf
  /// mix and seeds differ in the order of requests more than in their mix.
  QueryStream(uint64_t seed, const std::vector<double>& cdf)
      : rng_(seed), cdf_(&cdf) {}
  /// Walks `order` from `first` with stride kClients, wrapping around, so
  /// interleaved round-robin the clients' streams walk `order` in order.
  QueryStream(const std::vector<size_t>& order, size_t first)
      : order_(&order), pos_(first) {}

  size_t Next() {
    if (cdf_ != nullptr) {
      if (pos_ == strata_.size()) {
        strata_.resize(cdf_->size());
        for (size_t i = 0; i < strata_.size(); ++i) strata_[i] = i;
        rng_.Shuffle(strata_);
        pos_ = 0;
      }
      const double u =
          (static_cast<double>(strata_[pos_++]) + rng_.NextDouble()) /
          static_cast<double>(strata_.size());
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_->begin(), cdf_->end(), u) - cdf_->begin());
      return std::min(rank, cdf_->size() - 1);
    }
    const size_t q = (*order_)[pos_ % order_->size()];
    pos_ += kClients;
    return q;
  }

 private:
  Rng rng_{0};
  const std::vector<double>* cdf_ = nullptr;
  std::vector<size_t> strata_;
  const std::vector<size_t>* order_ = nullptr;
  size_t pos_ = 0;
};

/// How a workload's clients pick queries from its pool.
class Mix {
 public:
  /// theta > 0: client c draws Zipf(theta) ranks from SplitSeed(seed, c).
  /// theta == 0: uniform without replacement — the clients split one
  /// seed-shuffled cycle of the pool, so every run sees nearly the same
  /// mix of cheap and expensive queries.
  Mix(size_t pool_size, double theta, uint64_t seed)
      : seed_(seed), ranks_(pool_size) {
    for (size_t i = 0; i < pool_size; ++i) ranks_[i] = i;
    if (theta == 0) {
      order_ = ranks_;
      Rng rng(SplitSeed(seed, 0));
      rng.Shuffle(order_);
      return;
    }
    double sum = 0;
    for (size_t i = 0; i < pool_size; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  /// The measured streams, one per client (see RequestSequence).
  std::vector<QueryStream> Streams() const {
    std::vector<QueryStream> streams;
    for (size_t c = 0; c < kClients; ++c) {
      if (order_.empty()) {
        streams.emplace_back(SplitSeed(seed_, c), cdf_);
      } else {
        streams.emplace_back(order_, c);
      }
    }
    return streams;
  }

  /// The warm-up streams: the pool in rank order (most popular first),
  /// the same for every seed so set-up time does not depend on it.
  std::vector<QueryStream> WarmStreams() const {
    std::vector<QueryStream> streams;
    for (size_t c = 0; c < kClients; ++c) streams.emplace_back(ranks_, c);
    return streams;
  }

  /// The first `n` requests of the measured sequence, which the serial
  /// replays run.
  std::vector<size_t> Sequence(size_t n) const;

 private:
  uint64_t seed_;
  std::vector<double> cdf_;
  std::vector<size_t> ranks_;
  std::vector<size_t> order_;
};

/// The requests of a closed-loop round: the clients' streams interleaved
/// round-robin, handed out in that order to whichever client is free. A
/// round's requests are then a prefix of one seed-determined sequence,
/// however the clients are scheduled, and no client idles at the end of a
/// fixed-size round while the other still has a queue of its own.
class RequestSequence {
 public:
  explicit RequestSequence(std::vector<QueryStream> streams)
      : streams_(std::move(streams)) {}

  size_t Next() {
    std::lock_guard<std::mutex> lock(mu_);
    return streams_[issued_++ % streams_.size()].Next();
  }

 private:
  std::mutex mu_;
  std::vector<QueryStream> streams_;
  size_t issued_ = 0;
};

std::vector<size_t> Mix::Sequence(size_t n) const {
  RequestSequence requests(Streams());
  std::vector<size_t> seq;
  for (size_t j = 0; j < n; ++j) seq.push_back(requests.Next());
  return seq;
}

/// One completed request of the closed loop.
struct Served {
  size_t query = 0;
  /// Submit until the future is ready, admission retries included.
  double client_ms = 0;
  serve::QueryOutcome outcome;
};

/// When the clients of one closed-loop round stop.
struct StopRule {
  /// > 0: exactly this many requests in all.
  size_t requests = 0;
  /// Otherwise: a measured window of `seconds` (see WindowDone).
  double seconds = 0;
};

/// Closed-loop load: each client submits its next request only after the
/// previous one's future is ready.
class ClosedLoop {
 public:
  ClosedLoop(serve::ServingEngine& server,
             const std::vector<std::string>& pool, serve::QueryRequest base)
      : server_(server), pool_(pool), base_(std::move(base)) {}

  /// Runs one round on `clients` (one pool thread per client), taking
  /// queries from `requests`, and appends its requests to `served()`.
  void Run(ThreadPool& clients, RequestSequence& requests,
           const StopRule& rule) {
    std::vector<std::vector<Served>> per_client(kClients);
    std::atomic<size_t> issued{0};
    std::atomic<size_t> done{0};
    const Stopwatch window;
    clients.RunOnAll([&](size_t c) {
      for (;;) {
        if (rule.requests > 0) {
          if (issued.fetch_add(1) >= rule.requests) break;
        } else if (WindowDone(window.ElapsedMicros() * 1e-6, done.load(),
                              rule.seconds)) {
          break;
        }
        Served rec;
        rec.query = requests.Next();
        serve::QueryRequest request = base_;
        request.query = pool_[rec.query];
        const Stopwatch latency;
        std::future<serve::QueryOutcome> future;
        kws::Status admitted;
        for (;;) {
          admitted = server_.Submit(request, &future);
          if (admitted.code() != kws::StatusCode::kResourceExhausted) break;
          rejections_.fetch_add(1);
          std::this_thread::yield();
        }
        if (admitted.ok()) {
          rec.outcome = future.get();
        } else {
          rec.outcome.status = admitted;
        }
        rec.client_ms = latency.ElapsedMicros() / 1000.0;
        per_client[c].push_back(std::move(rec));
        done.fetch_add(1);
      }
    });
    for (std::vector<Served>& v : per_client) {
      for (Served& s : v) served_.push_back(std::move(s));
    }
  }

  std::vector<Served>& served() { return served_; }
  uint64_t rejections() const { return rejections_.load(); }

 private:
  serve::ServingEngine& server_;
  const std::vector<std::string>& pool_;
  const serve::QueryRequest base_;
  std::vector<Served> served_;
  std::atomic<uint64_t> rejections_{0};
};

serve::ServeOptions ServerOptions(size_t cache_capacity) {
  serve::ServeOptions so;
  so.num_workers = kWorkers;
  so.cache_capacity = cache_capacity;
  so.tuple_cache_capacity = kTupleCacheCapacity;
  return so;
}

/// Oracle verdicts of one run.
struct Verdicts {
  OracleTally tally;
  /// False once any ranked answer (or standing query) disagreed.
  bool answers_ok = true;
  /// Disagreements by the first differing field.
  std::map<std::string, size_t> kinds;

  /// Records one checked response: `field` is "" when it agreed, else the
  /// first field that differed; `ranked` marks fields of the ranked answer.
  void Add(const std::string& field, bool ranked) {
    tally.Record(field.empty());
    if (field.empty()) return;
    ++kinds[field];
    if (ranked) answers_ok = false;
  }
};

/// The first differing field of two relational responses ("" if equal):
/// "cleaned" and "results" belong to the ranked answer, "suggestions" not.
std::string DiffRelational(const engine::EngineResponse& got,
                           const engine::EngineResponse& want) {
  if (got.cleaned_query != want.cleaned_query) return "cleaned";
  if (got.results.size() != want.results.size()) return "results";
  for (size_t i = 0; i < got.results.size(); ++i) {
    const engine::EngineResult& a = got.results[i];
    const engine::EngineResult& b = want.results[i];
    if (a.score != b.score || a.tuples != b.tuples ||
        a.description != b.description) {
      return "results";
    }
  }
  if (got.suggestions != want.suggestions) return "suggestions";
  return "";
}

bool SameRanked(const std::vector<cn::SearchResult>& a,
                const std::vector<cn::SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].tuples != b[i].tuples) return false;
  }
  return true;
}

std::string DiffXml(const engine::XmlResponse& got,
                    const engine::XmlResponse& want) {
  if (got.results.size() != want.results.size()) return "xml_results";
  for (size_t i = 0; i < got.results.size(); ++i) {
    const engine::XmlResult& a = got.results[i];
    const engine::XmlResult& b = want.results[i];
    if (a.anchor != b.anchor || a.display_root != b.display_root ||
        a.score != b.score || a.snippet != b.snippet) {
      return "xml_results";
    }
  }
  if (got.clusters.size() != want.clusters.size()) return "xml_clusters";
  for (size_t i = 0; i < got.clusters.size(); ++i) {
    if (got.clusters[i].label != want.clusters[i].label ||
        got.clusters[i].results != want.clusters[i].results ||
        got.clusters[i].score != want.clusters[i].score) {
      return "xml_clusters";
    }
  }
  return "";
}

/// The queries of `limit` responses drawn uniformly (with `rng`) from the
/// OK responses in `served[from..)`: popular queries are checked in
/// proportion to how often they were served.
std::set<size_t> SampleQueries(const std::vector<Served>& served, size_t from,
                               size_t limit, Rng& rng) {
  std::vector<size_t> ok;
  for (size_t i = from; i < served.size(); ++i) {
    if (served[i].outcome.status.ok()) ok.push_back(served[i].query);
  }
  std::set<size_t> sample;
  for (size_t i = 0; i < limit && !ok.empty(); ++i) {
    sample.insert(ok[rng.Index(ok.size())]);
  }
  return sample;
}

/// What the measured window spent, besides its requests.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> write_ms;
  uint64_t failed_writes = 0;
};

/// The end-to-end and serve-layer metrics of a measured window.
void WindowMetrics(ClosedLoop& loop, const Window& w, const Verdicts& v,
                   RunResult* out) {
  const std::vector<Served>& served = loop.served();
  std::vector<double> latency;
  double queue_ms = 0;
  uint64_t failed = w.failed_writes;
  size_t hits = 0;
  for (const Served& s : served) {
    latency.push_back(s.client_ms);
    queue_ms += s.client_ms - s.outcome.latency_micros / 1000.0;
    if (!s.outcome.status.ok()) ++failed;
    if (s.outcome.cache_hit) ++hits;
  }
  const double n = static_cast<double>(std::max<size_t>(1, served.size()));
  out->attempted = served.size() + w.write_ms.size() + w.failed_writes;
  out->failed = failed;
  out->correct = v.answers_ok && v.tally.checked() > 0;
  auto& m = out->metrics;
  m["qps"] = static_cast<double>(served.size()) / w.wall_s;
  m["p50_ms"] = Percentile(latency, 0.5);
  m["p95_ms"] = Percentile(latency, 0.95);
  m["cpu_ms_per_req"] = w.cpu_s * 1000.0 / n;
  m["ok_frac"] =
      1.0 - static_cast<double>(failed) /
                static_cast<double>(std::max<uint64_t>(1, out->attempted));
  m["agree_frac"] = v.tally.AgreeFrac();
  m["serve.queue_wait_ms"] = queue_ms / n;
  m["serve.rejections"] = static_cast<double>(loop.rejections());
  m["serve.cache_hit_rate"] = static_cast<double>(hits) / n;
  if (!w.write_ms.empty()) m["write_p50_ms"] = Percentile(w.write_ms, 0.5);

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "window: %zu requests in %.3f s (p95 has %zu samples beyond "
                "it, hit rate %.3f), %zu writes; oracle checked %zu, wrong %zu",
                served.size(), w.wall_s, SamplesBeyond(served.size(), 0.95),
                static_cast<double>(hits) / n, w.write_ms.size(),
                v.tally.checked(), v.tally.wrong());
  out->notes.push_back(buf);
  for (const auto& [field, count] : v.kinds) {
    std::snprintf(buf, sizeof(buf), "oracle: %zu responses differ first in %s",
                  count, field.c_str());
    out->notes.push_back(buf);
  }
}

/// `count` per completed request of `loop`.
double PerRequest(uint64_t count, ClosedLoop& loop) {
  return static_cast<double>(count) /
         static_cast<double>(std::max<size_t>(1, loop.served().size()));
}

double TupleHitRate(const cn::TupleSetCache::Stats& before,
                    const cn::TupleSetCache::Stats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double total = hits + static_cast<double>(after.misses - before.misses);
  return total == 0 ? 0.0 : hits / total;
}

// ----------------------------------------------------------------------
// Serial replay: the per-layer view.

/// A replay plan step that applies the next insert batch; every other
/// step is a read of that pool index.
constexpr size_t kWriteStep = SIZE_MAX;

/// The spans a workload's replay records for each read.
struct ReplayShape {
  /// The span holding a read's whole work, the denominator of shares:
  /// the facade call the server makes on a result-cache miss (shard,
  /// XML), or the request's root span where every stage is a layer call
  /// (relational).
  std::string facade;
  /// The layer-call spans whose sum the facade's residual excludes.
  std::vector<std::string> layers;
  /// Metric name for the facade's residual ("" for none).
  std::string residual;
};

/// Span times per read (ms), counts per read, from a traced replay.
void ReplayMetrics(const SpanRecorder& rec, const ReplayShape& shape,
                   size_t num_reads, size_t num_writes, RunResult* out) {
  const std::map<std::string, LayerTotals> totals = rec.Totals();
  auto& m = out->metrics;
  const double reads = static_cast<double>(std::max<size_t>(1, num_reads));
  const double writes = static_cast<double>(std::max<size_t>(1, num_writes));
  auto total_us = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us;
  };
  auto count = [&](const std::string& name, const std::string& key) {
    auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    auto c = it->second.counts.find(key);
    return c == it->second.counts.end() ? 0.0 : static_cast<double>(c->second);
  };
  const double facade_us = total_us(shape.facade);
  double layers_us = 0;
  for (const std::string& l : shape.layers) {
    layers_us += total_us(l);
    m[l + "_ms"] = total_us(l) / 1000.0 / reads;
  }
  if (!shape.residual.empty()) {
    m[shape.residual] = std::max(0.0, facade_us - layers_us) / 1000.0 / reads;
  }
  m["trace.requests"] = static_cast<double>(num_reads + num_writes);

  const double enumerated = count("cn.enumerate", "cns");
  m["cn.enumerate_ms"] = total_us("cn.enumerate") / 1000.0 / reads;
  m["cn.cns_enumerated"] = enumerated / reads;
  if (totals.count("cn.enumerate") > 0 && facade_us > 0) {
    m["cn.enumerate_share"] = total_us("cn.enumerate") / facade_us;
  }
  if (totals.count("cn.execute") > 0) {
    const double evaluated = count("cn.execute", "cns_evaluated");
    m["cn.cns_evaluated"] = evaluated / reads;
    m["cn.join_lookups"] = count("cn.execute", "join_lookups") / reads;
    m["cn.eval_per_enum"] = enumerated == 0 ? 0.0 : evaluated / enumerated;
  }
  if (shape.facade == "shard.search") {
    m["shard.search_ms"] = facade_us / 1000.0 / reads;
    m["shard.fanout"] = count("shard.search", "shards_searched") / reads;
    const double total = count("shard.search", "shards_total");
    m["shard.pruned_frac"] =
        total == 0 ? 0.0 : count("shard.search", "shards_pruned") / total;
  }
  if (shape.facade == "xml.search") {
    const double matches = count("lca.match_lists", "matches");
    m["lca.anchors_per_match"] =
        matches == 0 ? 0.0 : count("lca.slca", "anchors") / matches;
  }
  if (num_writes > 0) {
    m["rel.apply_inserts_ms"] = total_us("rel.apply_inserts") / 1000.0 / writes;
    m["serve.notify_write_ms"] =
        total_us("serve.notify_write") / 1000.0 / writes;
    m["rel.touched_terms"] =
        count("rel.apply_inserts", "touched_terms") / writes;
    m["serve.tuple_entries_invalidated"] =
        count("serve.notify_write", "tuple_entries_invalidated") / writes;
  }

  // The layer table: self time, share of a read's whole work, counts.
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "traced replay: %zu reads, %zu writes; %s %.3f ms/read",
                num_reads, num_writes, shape.facade.c_str(),
                facade_us / 1000.0 / reads);
  out->notes.push_back(buf);
  out->notes.push_back(
      "span                       spans    self_ms  self_ms/read"
      "            share  counts");
  for (const auto& [name, t] : totals) {
    std::string counts;
    for (const auto& [key, value] : t.counts) {
      counts += key + "=" + std::to_string(value) + " ";
    }
    std::snprintf(buf, sizeof(buf), "%-26s %6zu %10.3f %13.4f %16.4f  %s",
                  name.c_str(), t.spans, t.self_us / 1000.0,
                  t.self_us / 1000.0 / reads,
                  facade_us > 0 ? t.self_us / facade_us : 0.0, counts.c_str());
    out->notes.push_back(buf);
  }
}

// ----------------------------------------------------------------------
// Workloads. Each constructor is the set-up's data generation and engine
// and server construction; WarmUp is the rest of the set-up.

struct Context {
  const RunConfig& config;
  ThreadPool& clients;
  /// The closed loop's window: all of `seconds`, or half of it when the
  /// serial replays share the run.
  double window_s;
};

/// zipf_sharded: the production read path — Zipf replay of the DBLP log
/// pool through the result cache onto the 4-shard scatter-gather backend.
class ZipfSharded {
 public:
  explicit ZipfSharded(const Context& ctx)
      : ctx_(ctx),
        corpus_(shard::MakeShardedDblp(relational::DblpOptions{}, kShards)),
        sharded_(corpus_),
        pool_(DblpPool(*corpus_.combined, SIZE_MAX)),
        mix_(pool_.size(), kZipfTheta, ctx.config.seed),
        server_(nullptr, nullptr, &sharded_, Options()),
        loop_(server_, pool_, serve::QueryRequest{}) {}

  /// First one serial search per distinct pool keyword, then the
  /// closed-loop warm-up. `ShardedEngine::Search` fills its shard
  /// selector's keyword-distance index lazily, on the first query with a
  /// keyword, and without a lock: two concurrent searches that both index
  /// a new keyword race on it (ThreadSanitizer reports the race, and a
  /// release run crashed on it). The serial pass indexes every keyword the
  /// run can send, so the concurrent searches only read the index.
  void WarmUp() {
    std::set<std::string> keywords;
    for (const std::string& q : pool_) {
      for (std::string& k : sharded_.Normalize(q)) keywords.insert(std::move(k));
    }
    shard::ShardedSearchOptions so;
    so.k = kTopK;
    for (const std::string& k : keywords) sharded_.Search(k, so);
    RequestSequence warm(mix_.WarmStreams());
    ClosedLoop loop(server_, pool_, serve::QueryRequest{});
    loop.Run(ctx_.clients, warm, {.requests = kWarmupRequests});
  }

  bool Measure(Window* w, Verdicts* v, std::string* /*error*/) {
    const serve::CacheStats before = server_.cache_stats();
    RequestSequence requests(mix_.Streams());
    const double cpu0 = CpuSeconds();
    const Stopwatch wall;
    loop_.Run(ctx_.clients, requests, {.seconds = ctx_.window_s});
    w->wall_s = wall.ElapsedMicros() * 1e-6;
    w->cpu_s = CpuSeconds() - cpu0;
    evictions_ = server_.cache_stats().evictions - before.evictions;

    // Oracle: the unsharded CN search over the combined corpus.
    Rng rng(SplitSeed(ctx_.config.seed, kOracleStream));
    const std::set<size_t> sample =
        SampleQueries(loop_.served(), 0, Scaled(24, ctx_.config.seconds), rng);
    const cn::CnKeywordSearch unsharded(*corpus_.combined);
    std::map<size_t, std::vector<cn::SearchResult>> want;
    for (size_t q : sample) {
      cn::SearchOptions so;
      so.k = kTopK;
      so.max_cn_size = kMaxCnSize;
      want[q] = unsharded.Search(pool_[q], so, nullptr);
    }
    const kws::text::Tokenizer tokenizer;
    for (const Served& s : loop_.served()) {
      if (sample.count(s.query) == 0 || !s.outcome.status.ok()) continue;
      const engine::EngineResponse& got = *s.outcome.relational;
      std::vector<cn::SearchResult> ranked;
      for (const engine::EngineResult& r : got.results) {
        ranked.push_back({0, r.tuples, r.score});
      }
      if (got.cleaned_query != tokenizer.Tokenize(pool_[s.query])) {
        v->Add("cleaned", true);
      } else {
        v->Add(SameRanked(ranked, want[s.query]) ? "" : "results", true);
      }
    }
    return true;
  }

  ClosedLoop& loop() { return loop_; }

  void LayerMetrics(RunResult* out) {
    out->metrics["serve.cache_evictions"] = PerRequest(evictions_, loop_);
  }

  static ReplayShape Shape() { return {"shard.search", {"cn.enumerate"}, ""}; }

  void PrepareReplay() {}

  std::vector<size_t> ReplayPlan() const {
    return mix_.Sequence(Scaled(48, ctx_.config.seconds));
  }

  void ReplayStep(size_t q, uint64_t request, SpanRecorder& rec) {
    ScopedSpan root(rec, "request", 0, request);
    {
      ScopedSpan span(rec, "shard.search", root.id(), request);
      shard::ShardedSearchOptions so;
      so.k = kTopK;
      const shard::ShardedResponse r = sharded_.Search(pool_[q], so);
      span.Count("shards_total", r.stats.shards_total);
      span.Count("shards_searched", r.stats.shards_searched);
      span.Count("shards_pruned", r.stats.shards_pruned);
    }
    // The coordinator enumerates one CN list per query from the
    // corpus-wide table masks, which are the combined corpus's masks.
    const cn::TupleSets ts(*corpus_.combined,
                           kws::text::Tokenizer().Tokenize(pool_[q]));
    ScopedSpan span(rec, "cn.enumerate", root.id(), request);
    cn::CnEnumOptions eo;
    eo.max_size = kMaxCnSize;
    span.Count("cns", cn::EnumerateCandidateNetworks(
                          *corpus_.combined, ts.table_masks(), ts.full_mask(),
                          eo)
                          .size());
  }

 private:
  static serve::ServeOptions Options() {
    serve::ServeOptions so = ServerOptions(kShardedCacheCapacity);
    so.num_shards = kShards;
    return so;
  }

  const Context& ctx_;
  shard::ShardedCorpus corpus_;
  shard::ShardedEngine sharded_;
  std::vector<std::string> pool_;
  Mix mix_;
  serve::ServingEngine server_;
  ClosedLoop loop_;
  uint64_t evictions_ = 0;
};

/// The unsharded relational pipeline shared by rel_cold and rel_write.
class Relational {
 public:
  ClosedLoop& loop() { return loop_; }

  static ReplayShape Shape() {
    return {"request",
            {"engine.normalize", "cn.tuple_sets", "cn.enumerate", "cn.execute",
             "engine.render_suggest"},
            ""};
  }

  /// Builds the replay's copy of the facade's suggestion index the way
  /// the facade builds it, once, in its constructor (the text of every
  /// data-graph node). It runs after the timed set-ups and outside every
  /// span, and like the facade's it reflects the data as of the replay's
  /// start.
  void PrepareReplay() {
    suggest_index_ = std::make_unique<kws::text::InvertedIndex>();
    const kws::graph::RelationalGraph g = kws::graph::BuildDataGraph(*dblp_.db);
    for (kws::graph::NodeId n = 0; n < g.graph.num_nodes(); ++n) {
      const std::string& text = g.graph.text(n);
      if (!text.empty()) suggest_index_->AddDocument(n, text);
    }
  }

 protected:
  Relational(const Context& ctx, size_t max_keywords, double theta,
             bool bypass_cache)
      : ctx_(ctx),
        dblp_(relational::MakeDblpDatabase()),
        engine_(*dblp_.db),
        pool_(DblpPool(*dblp_.db, max_keywords)),
        mix_(pool_.size(), theta, ctx.config.seed),
        server_(&engine_, nullptr, ServerOptions(kCacheCapacity)),
        loop_(server_, pool_, Request(bypass_cache)) {}

  static serve::QueryRequest Request(bool bypass_cache) {
    serve::QueryRequest r;
    r.k = kTopK;
    r.bypass_cache = bypass_cache;
    return r;
  }

  void WarmUpLoop(bool bypass_cache) {
    RequestSequence warm(mix_.WarmStreams());
    ClosedLoop loop(server_, pool_, Request(bypass_cache));
    loop.Run(ctx_.clients, warm, {.requests = kWarmupRequests});
  }

  /// Compares every response in `served[from..)` to a query in `queries`
  /// with a freshly built engine over the current data. With
  /// `stale_suggestions` the served suggestions are known to lag the data
  /// (the facade builds its suggestion index once), so a suggestions
  /// mismatch lowers agree_frac without clearing `correct`.
  void CheckServed(size_t from, const std::set<size_t>& queries,
                   bool stale_suggestions, Verdicts* v) {
    const std::vector<Served>& served = loop_.served();
    if (queries.empty()) return;
    const engine::KeywordSearchEngine fresh(*dblp_.db);
    std::map<size_t, engine::EngineResponse> want;
    for (size_t q : queries) {
      engine::EngineOptions eo;
      eo.k = kTopK;
      want[q] = fresh.Search(pool_[q], eo);
    }
    for (size_t i = from; i < served.size(); ++i) {
      const Served& s = served[i];
      if (queries.count(s.query) == 0 || !s.outcome.status.ok()) continue;
      const std::string field =
          DiffRelational(*s.outcome.relational, want[s.query]);
      v->Add(field, field != "suggestions" || !stale_suggestions);
    }
  }

  /// One read of the replay: the stages of `KeywordSearchEngine::Search`
  /// as layer calls, each in its own span under the request's root span.
  void ReplayRead(SpanRecorder& rec, uint64_t request,
                  const std::string& query) {
    ScopedSpan root(rec, "request", 0, request);
    std::vector<std::string> tokens;
    {
      ScopedSpan span(rec, "engine.normalize", root.id(), request);
      tokens = engine_.Normalize(query);
    }
    if (tokens.empty()) return;
    std::unique_ptr<cn::TupleSets> ts;
    {
      ScopedSpan span(rec, "cn.tuple_sets", root.id(), request);
      ts = std::make_unique<cn::TupleSets>(*dblp_.db, tokens,
                                           server_.tuple_cache());
    }
    std::vector<cn::CandidateNetwork> cns;
    {
      ScopedSpan span(rec, "cn.enumerate", root.id(), request);
      cn::CnEnumOptions eo;
      eo.max_size = kMaxCnSize;
      cns = cn::EnumerateCandidateNetworks(*dblp_.db, ts->table_masks(),
                                           ts->full_mask(), eo);
      span.Count("cns", cns.size());
    }
    std::vector<cn::SearchResult> results;
    {
      ScopedSpan span(rec, "cn.execute", root.id(), request);
      cn::SearchOptions so;
      so.k = kTopK;
      so.max_cn_size = kMaxCnSize;
      cn::SearchStats stats;
      results = cn::EvaluateCns(*dblp_.db, cns, *ts, so, &stats);
      span.Count("cns_evaluated", stats.cns_evaluated);
      span.Count("join_lookups", stats.join_lookups);
    }
    // The facade's last stage: a description per result, then refinement
    // suggestions over its index of all tuple text (see PrepareReplay).
    ScopedSpan span(rec, "engine.render_suggest", root.id(), request);
    size_t rendered = 0;
    for (const cn::SearchResult& r : results) {
      for (const relational::TupleId& t : r.tuples) {
        rendered += dblp_.db->TupleToString(t).size();
      }
    }
    span.Count("rendered_bytes", rendered);
    if (!results.empty()) {
      span.Count("suggestions", kws::refine::SuggestTerms(
                                    *suggest_index_, kws::Join(tokens, " "),
                                    kws::refine::TermRanking::kRelevance,
                                    kNumSuggestions)
                                    .size());
    }
  }

  const Context& ctx_;
  relational::DblpDatabase dblp_;
  engine::KeywordSearchEngine engine_;
  std::vector<std::string> pool_;
  Mix mix_;
  serve::ServingEngine server_;
  ClosedLoop loop_;
  std::unique_ptr<kws::text::InvertedIndex> suggest_index_;
  double tuple_hit_rate_ = 0;
};

/// rel_cold: every request bypasses the result cache, uniform over the
/// 1-3 keyword pool — CN enumeration does nearly all the work.
class RelCold : public Relational {
 public:
  explicit RelCold(const Context& ctx) : Relational(ctx, 3, 0.0, true) {}

  void WarmUp() { WarmUpLoop(true); }

  bool Measure(Window* w, Verdicts* v, std::string* /*error*/) {
    const cn::TupleSetCache::Stats before = server_.tuple_cache()->stats();
    RequestSequence requests(mix_.Streams());
    const double cpu0 = CpuSeconds();
    const Stopwatch wall;
    loop_.Run(ctx_.clients, requests, {.seconds = ctx_.window_s});
    w->wall_s = wall.ElapsedMicros() * 1e-6;
    w->cpu_s = CpuSeconds() - cpu0;
    tuple_hit_rate_ = TupleHitRate(before, server_.tuple_cache()->stats());
    Rng rng(SplitSeed(ctx_.config.seed, kOracleStream));
    // The data never changes here, so suggestions must agree too.
    CheckServed(0,
                SampleQueries(loop_.served(), 0,
                              Scaled(24, ctx_.config.seconds), rng),
                /*stale_suggestions=*/false, v);
    return true;
  }

  void LayerMetrics(RunResult* out) {
    out->metrics["serve.tuple_cache_hit_rate"] = tuple_hit_rate_;
  }

  std::vector<size_t> ReplayPlan() const {
    return mix_.Sequence(Scaled(32, ctx_.config.seconds));
  }

  void ReplayStep(size_t q, uint64_t request, SpanRecorder& rec) {
    ReplayRead(rec, request, pool_[q]);
  }
};

/// rel_write: Zipf reads through the result cache, interleaved with
/// insert batches under the documented write protocol.
class RelWrite : public Relational {
 public:
  explicit RelWrite(const Context& ctx)
      : Relational(ctx, SIZE_MAX, kZipfTheta, false) {
    for (size_t q = 0; q < 3 && q < pool_.size(); ++q) {
      const kws::Result<uint64_t> id = server_.RegisterQuery(pool_[q], kTopK);
      if (id.ok()) {
        standing_.push_back({id.value(), engine_.Normalize(pool_[q])});
      }
    }
  }

  void WarmUp() { WarmUpLoop(false); }

  bool Measure(Window* w, Verdicts* v, std::string* error) {
    const cn::TupleSetCache::Stats before = server_.tuple_cache()->stats();
    const serve::CacheStats cache_before = server_.cache_stats();
    RequestSequence requests(mix_.Streams());
    for (uint64_t batch = 0;; ++batch) {
      const size_t from = loop_.served().size();
      const double cpu0 = CpuSeconds();
      const Stopwatch reads;
      loop_.Run(ctx_.clients, requests, {.requests = kPhaseReads});
      w->wall_s += reads.ElapsedMicros() * 1e-6;
      w->cpu_s += CpuSeconds() - cpu0;
      // The clients are quiesced: check the first phases in full against
      // the data they were served from, before the next batch lands. A
      // fixed number of phases keeps agree_frac independent of how many
      // batches a run's throughput lets it apply.
      const size_t checked = Scaled(kCheckedPhases, ctx_.config.seconds);
      if (batch < checked) {
        std::set<size_t> queries;
        for (size_t i = from; i < loop_.served().size(); ++i) {
          queries.insert(loop_.served()[i].query);
        }
        CheckServed(from, queries, /*stale_suggestions=*/true, v);
      }
      if (!Write(batch, w, nullptr, 0, error)) return false;
      if (batch + 1 >= checked &&
          WindowDone(w->wall_s, loop_.served().size(), ctx_.window_s)) {
        break;
      }
    }
    tuple_hit_rate_ = TupleHitRate(before, server_.tuple_cache()->stats());
    evictions_ = server_.cache_stats().evictions - cache_before.evictions;
    CheckStanding(v);
    return true;
  }

  void LayerMetrics(RunResult* out) {
    out->metrics["serve.tuple_cache_hit_rate"] = tuple_hit_rate_;
    out->metrics["serve.cache_evictions"] = PerRequest(evictions_, loop_);
  }

  /// Phases of reads, each followed by an insert batch.
  std::vector<size_t> ReplayPlan() const {
    const size_t phases = Scaled(3, ctx_.config.seconds);
    std::vector<size_t> plan;
    for (size_t q : mix_.Sequence(phases * kPhaseReads)) {
      plan.push_back(q);
      if (plan.size() % (kPhaseReads + 1) == kPhaseReads) {
        plan.push_back(kWriteStep);
      }
    }
    return plan;
  }

  void ReplayStep(size_t q, uint64_t request, SpanRecorder& rec) {
    if (q != kWriteStep) {
      ReplayRead(rec, request, pool_[q]);
      return;
    }
    Window unused;
    std::string error;
    KWS_CHECK_MSG(Write(replay_writes_++, &unused, &rec, request, &error),
                  error.c_str());
  }

 private:
  /// Applies insert batch `batch` under the write protocol (clients are
  /// quiesced by the caller) and times it.
  bool Write(uint64_t batch, Window* w, SpanRecorder* rec, uint64_t request,
             std::string* error) {
    relational::DblpInsertOptions io;
    io.seed = SplitSeed(ctx_.config.seed, kBatchStream + batch);
    std::vector<relational::RowInsert> rows =
        relational::MakeDblpInsertBatch(dblp_, io);
    SpanRecorder off(false);
    SpanRecorder& r = rec != nullptr ? *rec : off;
    const uint64_t invalidated0 = server_.tuple_cache()->stats().invalidations;
    const double cpu0 = CpuSeconds();
    const Stopwatch watch;
    ScopedSpan root(r, "write", 0, request);
    kws::Result<relational::WriteReport> report = [&] {
      ScopedSpan span(r, "rel.apply_inserts", root.id(), request);
      kws::Result<relational::WriteReport> applied =
          dblp_.db->ApplyInserts(std::move(rows));
      if (applied.ok()) {
        span.Count("touched_terms", applied.value().touched_terms.size());
      }
      return applied;
    }();
    if (!report.ok()) {
      ++w->failed_writes;
      *error = "ApplyInserts failed: " + report.status().ToString();
      return false;
    }
    {
      ScopedSpan span(r, "serve.notify_write", root.id(), request);
      server_.NotifyWrite(report.value());
      span.Count("tuple_entries_invalidated",
                 server_.tuple_cache()->stats().invalidations - invalidated0);
    }
    w->write_ms.push_back(watch.ElapsedMicros() / 1000.0);
    w->wall_s += watch.ElapsedMicros() * 1e-6;
    w->cpu_s += CpuSeconds() - cpu0;
    return true;
  }

  /// Standing queries must equal a fresh search over the written data.
  void CheckStanding(Verdicts* v) {
    const cn::CnKeywordSearch fresh(*dblp_.db);
    for (const auto& [id, keywords] : standing_) {
      const kws::Result<std::vector<cn::SearchResult>> got =
          server_.StandingResults(id);
      cn::SearchOptions so;
      so.k = kTopK;
      so.max_cn_size = kMaxCnSize;
      if (!got.ok() ||
          !SameRanked(got.value(),
                      fresh.Search(kws::Join(keywords, " "), so, nullptr))) {
        v->answers_ok = false;
        ++v->kinds["standing"];
      }
    }
  }

  std::vector<std::pair<uint64_t, std::vector<std::string>>> standing_;
  uint64_t replay_writes_ = 0;
  uint64_t evictions_ = 0;
};

/// xml_cold: 2-keyword Zipf queries over a ~40k-node bibliography,
/// bypassing the cache — the only workload on lca/xml, and it never
/// touches cn.
class XmlCold {
 public:
  explicit XmlCold(const Context& ctx)
      : ctx_(ctx),
        doc_(kws::xml::MakeBibDocument({.num_venues = kXmlVenues})),
        engine_(doc_.tree),
        pool_(Pool(doc_)),
        mix_(pool_.size(), kZipfTheta, ctx.config.seed),
        server_(nullptr, &engine_, ServerOptions(0)),
        loop_(server_, pool_, Request()) {}

  void WarmUp() {
    RequestSequence warm(mix_.WarmStreams());
    ClosedLoop loop(server_, pool_, Request());
    loop.Run(ctx_.clients, warm, {.requests = kWarmupRequests});
  }

  bool Measure(Window* w, Verdicts* v, std::string* /*error*/) {
    RequestSequence requests(mix_.Streams());
    const double cpu0 = CpuSeconds();
    const Stopwatch wall;
    loop_.Run(ctx_.clients, requests, {.seconds = ctx_.window_s});
    w->wall_s = wall.ElapsedMicros() * 1e-6;
    w->cpu_s = CpuSeconds() - cpu0;

    Rng rng(SplitSeed(ctx_.config.seed, kOracleStream));
    const std::set<size_t> sample =
        SampleQueries(loop_.served(), 0, Scaled(64, ctx_.config.seconds), rng);
    const engine::XmlKeywordSearch direct(doc_.tree);
    std::map<size_t, engine::XmlResponse> want;
    for (size_t q : sample) want[q] = direct.Search(pool_[q], {.k = kTopK});
    for (const Served& s : loop_.served()) {
      if (sample.count(s.query) == 0 || !s.outcome.status.ok()) continue;
      v->Add(DiffXml(*s.outcome.xml, want[s.query]), true);
    }
    return true;
  }

  ClosedLoop& loop() { return loop_; }

  void LayerMetrics(RunResult* out) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "bibliography: %zu nodes, %zu pool queries",
                  doc_.tree.size(), pool_.size());
    out->notes.push_back(buf);
  }

  static ReplayShape Shape() {
    return {"xml.search", {"lca.match_lists", "lca.slca"},
            "xml.rank_render_ms"};
  }

  void PrepareReplay() {}

  std::vector<size_t> ReplayPlan() const {
    return mix_.Sequence(Scaled(150, ctx_.config.seconds));
  }

  void ReplayStep(size_t q, uint64_t request, SpanRecorder& rec) {
    ScopedSpan root(rec, "request", 0, request);
    {
      ScopedSpan span(rec, "xml.search", root.id(), request);
      engine_.Search(pool_[q], {.k = kTopK});
    }
    std::vector<std::vector<kws::xml::XmlNodeId>> lists;
    {
      ScopedSpan span(rec, "lca.match_lists", root.id(), request);
      lists = kws::lca::MatchLists(doc_.tree,
                                   kws::text::Tokenizer().Tokenize(pool_[q]));
      size_t matches = 0;
      for (const auto& l : lists) matches += l.size();
      span.Count("matches", matches);
    }
    if (lists.empty()) return;
    ScopedSpan span(rec, "lca.slca", root.id(), request);
    span.Count("anchors",
               kws::lca::SlcaIndexedLookupEager(doc_.tree, lists).size());
  }

 private:
  static serve::QueryRequest Request() {
    serve::QueryRequest r;
    r.pipeline = serve::Pipeline::kXml;
    r.k = kTopK;
    r.bypass_cache = true;
    return r;
  }

  /// Pairs of the most frequent title terms, most frequent pairs first.
  static std::vector<std::string> Pool(const kws::xml::BibDocument& doc) {
    std::vector<std::pair<size_t, std::string>> pairs;
    const size_t n = std::min(kXmlPoolTerms, doc.vocabulary.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        pairs.push_back({i + j, doc.vocabulary[i] + " " + doc.vocabulary[j]});
      }
    }
    std::stable_sort(
        pairs.begin(), pairs.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::string> pool;
    for (auto& p : pairs) pool.push_back(std::move(p.second));
    return pool;
  }

  const Context& ctx_;
  kws::xml::BibDocument doc_;
  engine::XmlKeywordSearch engine_;
  std::vector<std::string> pool_;
  Mix mix_;
  serve::ServingEngine server_;
  ClosedLoop loop_;
};

template <typename W>
bool Run(const RunConfig& config, RunResult* out, std::string* error) {
  ThreadPool clients(kClients);
  const Context ctx{config, clients,
                    config.trace ? config.seconds / 2 : config.seconds};

  // Set-up: data generation, engine and server construction, warm-up —
  // timed kMinSetups times, and for a cheap set-up more often, until
  // kSetupBudgetS of set-up time has accumulated; the last instance is
  // measured. The per-layer run reports no set-up time: it sets up once.
  std::unique_ptr<W> w;
  std::vector<double> setup_s;
  double spent = 0;
  const size_t min_setups = config.trace ? 1 : kMinSetups;
  for (size_t i = 0;
       i < min_setups || (!config.trace && spent < kSetupBudgetS); ++i) {
    w.reset();
    const Stopwatch watch;
    w = std::make_unique<W>(ctx);
    w->WarmUp();
    setup_s.push_back(watch.ElapsedMicros() * 1e-6);
    spent += setup_s.back();
  }
  out->metrics["setup_s"] = Percentile(setup_s, 0.5);

  Window window;
  Verdicts verdicts;
  if (!w->Measure(&window, &verdicts, error)) return false;
  WindowMetrics(w->loop(), window, verdicts, out);
  w->LayerMetrics(out);
  if (!config.trace) return true;
  w.reset();

  // Serial replays of the same request sequence on two fresh set-ups,
  // one untraced and one traced, step by step in alternating order so
  // that drift in machine speed hits both alike. Their time ratio is the
  // tracing overhead.
  W untraced(ctx);
  W traced(ctx);
  untraced.PrepareReplay();
  traced.PrepareReplay();
  const std::vector<size_t> plan = untraced.ReplayPlan();
  SpanRecorder off(false);
  SpanRecorder rec(true);
  double off_us = 0;
  double on_us = 0;
  const auto step = [&](W& w, SpanRecorder& r, size_t j, double* us) {
    const Stopwatch watch;
    w.ReplayStep(plan[j], j + 1, r);
    *us += watch.ElapsedMicros();
  };
  for (size_t j = 0; j < plan.size(); ++j) {
    if (j % 2 == 0) {
      step(untraced, off, j, &off_us);
      step(traced, rec, j, &on_us);
    } else {
      step(traced, rec, j, &on_us);
      step(untraced, off, j, &off_us);
    }
  }
  out->metrics["trace.overhead_frac"] = on_us / off_us - 1.0;
  const size_t writes =
      static_cast<size_t>(std::count(plan.begin(), plan.end(), kWriteStep));
  ReplayMetrics(rec, W::Shape(), plan.size() - writes, writes, out);
  if (!config.trace_path.empty() && !rec.WriteJsonl(config.trace_path)) {
    *error = "cannot write spans to " + config.trace_path;
    return false;
  }
  return true;
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error) {
  const std::string& w = config.workload;
  if (w == "zipf_sharded") return Run<ZipfSharded>(config, result, error);
  if (w == "rel_cold") return Run<RelCold>(config, result, error);
  if (w == "rel_write") return Run<RelWrite>(config, result, error);
  if (w == "xml_cold") return Run<XmlCold>(config, result, error);
  *error = "unknown workload " + config.workload;
  return false;
}

}  // namespace kwbench
