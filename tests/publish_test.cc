// The incremental epoch publish: bad input is rejected at the boundary, and
// at every epoch of a seeded churn run the published view equals a
// from-scratch build of the same inputs bit for bit.
//
// The tier-1 build is Release, so these tests run with NDEBUG defined: the
// rejections they check cannot come from an assert.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/policy/policy_factory.h"
#include "core/rank_merge.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serving_view.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using testutil::Fixture;

std::shared_ptr<const StochasticRankingPolicy> Policy(
    const std::string& label) {
  std::string error;
  auto policy = MakePolicyFromLabel(label, &error);
  EXPECT_NE(policy, nullptr) << error;
  return policy;
}

/// From-scratch build of the inputs: det is every non-pool page under one
/// full std::sort, pool is ascending. `in_pool` gives membership per page.
ServingView ScratchView(const Fixture& fx, const std::vector<bool>& in_pool) {
  ServingView view;
  for (uint32_t p = 0; p < fx.popularity.size(); ++p) {
    (in_pool[p] ? view.pool : view.det).push_back(p);
  }
  std::sort(view.det.begin(), view.det.end(), [&](uint32_t a, uint32_t b) {
    return RankOrderBefore(fx.popularity[a], fx.birth[a], a,
                           fx.popularity[b], fx.birth[b], b);
  });
  for (const uint32_t p : view.det) view.det_score.push_back(fx.popularity[p]);
  return view;
}

/// Membership the policy gives each page; for a rule that draws (uniform)
/// the draw the server made is read back from its published pool.
std::vector<bool> Membership(const StochasticRankingPolicy& policy,
                             const Fixture& fx, const ServingView& published) {
  std::vector<bool> in_pool(fx.zero.size());
  Rng probe(1);
  Rng untouched = probe;
  policy.PoolMembership(true, probe);
  policy.PoolMembership(false, probe);
  if (probe() != untouched()) {
    for (const uint32_t p : published.pool) in_pool[p] = true;
    return in_pool;
  }
  for (size_t p = 0; p < in_pool.size(); ++p) {
    in_pool[p] = policy.PoolMembership(fx.zero[p] != 0, probe);
  }
  return in_pool;
}

void ExpectScratchEqual(const ShardedRankServer& server, const Fixture& fx,
                        const std::string& where) {
  SCOPED_TRACE(where);
  const auto view = server.view();
  ASSERT_NE(view, nullptr);
  const ServingView scratch =
      ScratchView(fx, Membership(*view->policy, fx, *view));
  EXPECT_EQ(view->det, scratch.det);
  EXPECT_EQ(view->det_score, scratch.det_score);
  EXPECT_EQ(view->pool, scratch.pool);
  EXPECT_EQ(CheckEpochInvariants(*view, fx.zero, fx.birth), "");
}

/// Changes about `fraction` of the pages: new popularity (a few levels, so
/// score ties are common), an occasional rebirth, and flipped awareness.
void Churn(double fraction, Rng& rng, Fixture* fx) {
  for (size_t p = 0; p < fx->popularity.size(); ++p) {
    if (!rng.NextBernoulli(fraction)) continue;
    switch (rng.NextIndex(3)) {
      case 0:
        fx->popularity[p] = 0.05 * static_cast<double>(rng.NextIndex(8));
        break;
      case 1:
        fx->birth[p] = static_cast<int64_t>(rng.NextIndex(16));
        fx->popularity[p] = 0.0;
        break;
      default:
        fx->zero[p] = fx->zero[p] != 0 ? 0 : 1;
        fx->popularity[p] = fx->zero[p] != 0 ? 0.0 : 0.05;
        break;
    }
  }
}

// --- Equivalence: incremental vs from-scratch ------------------------------

constexpr size_t kChunk = EpochBuilder::kChunkPages;
/// Three page-id chunks, the last one ragged (n is not a multiple of 64).
constexpr size_t kMultiChunkPages = 2 * kChunk + 1037;

const char* const kFamilies[] = {
    "selective(r=0.10,k=2)", "uniform(r=0.20,k=1)", "plackett-luce(T=0.05)",
    "eps-tail(eps=0.10,k=10)", "ts-promo(a=1.00,b=3.00,c=20.0,k=1)"};

void RunChurn(const std::string& label, double fraction,
              const std::string& swap_to) {
  const size_t n = 700;
  Fixture fx(n, 120, 3);
  for (size_t p = 0; p < n; ++p) fx.birth[p] = static_cast<int64_t>(p % 16);
  ShardedRankServer server(Policy(label), n);
  Rng rng(41);
  for (int epoch = 1; epoch <= 12; ++epoch) {
    if (epoch > 1) Churn(fraction, rng, &fx);
    const bool swap = epoch == 6 && !swap_to.empty();
    ASSERT_TRUE(swap ? server.Update(fx.popularity, fx.zero, fx.birth,
                                     Policy(swap_to))
                     : server.Update(fx.popularity, fx.zero, fx.birth));
    ExpectScratchEqual(server, fx,
                       label + " churn " + std::to_string(fraction) +
                           " epoch " + std::to_string(epoch));
  }
}

TEST(IncrementalPublishTest, EqualsScratchBuildAtEveryEpoch) {
  for (const char* family : kFamilies) {
    for (const double fraction : {0.0, 0.03, 1.0}) {
      RunChurn(family, fraction, "");
    }
  }
}

TEST(IncrementalPublishTest, EqualsScratchBuildAcrossAHotSwap) {
  const size_t families = std::size(kFamilies);
  for (size_t f = 0; f < families; ++f) {
    RunChurn(kFamilies[f], 0.03, kFamilies[(f + 1) % families]);
  }
}

TEST(IncrementalPublishTest, RollbackKeepsTheBaseForNewInputs) {
  // A fault kills the publish of inputs B after the diff ran; the next
  // publish, of different inputs C, must still diff against A. Once with
  // one build chunk, once with several (rank splitters, per-chunk streams).
  for (const size_t n : {size_t{500}, kMultiChunkPages}) {
    for (const std::string_view point :
         {fault::kPublishShards, fault::kPublishMerge,
          fault::kPublishEpochState, fault::kPublishRcu}) {
      SCOPED_TRACE(std::string(point) + " n=" + std::to_string(n));
      Fixture fx(n, n * 4 / 25, 7);
      ShardedRankServer server(Policy("selective(r=0.10,k=2)"), n);
      ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
      Rng rng(5);
      Churn(0.05, rng, &fx);
      {
        fault::FaultPlan plan;
        std::string error;
        ASSERT_TRUE(fault::FaultPlan::Parse(
            "point=" + std::string(point) + ",action=fail,nth=1,max_fires=1",
            &plan, &error))
            << error;
        fault::FaultInjector injector(plan, nullptr);
        fault::ScopedFaultInjector scoped(&injector);
        EXPECT_FALSE(server.Update(fx.popularity, fx.zero, fx.birth));
      }
      Churn(0.05, rng, &fx);
      ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
      ExpectScratchEqual(server, fx, "after rollback");
    }
  }
}

// --- Chunk boundaries: n spanning several build chunks ----------------------

/// A corpus for multi-chunk n whose scores take four levels and whose
/// births take 16, so long runs of equal scores (and equal births) straddle
/// every rank split and the birth and id tie-breaks decide the order there.
Fixture TiedFixture(size_t n) {
  Fixture fx(n, n / 10, 9);
  Rng rng(17);
  for (size_t p = 0; p < n; ++p) {
    if (fx.zero[p] == 0) {
      fx.popularity[p] = 0.05 * static_cast<double>(1 + rng.NextIndex(4));
    }
    fx.birth[p] = static_cast<int64_t>(rng.NextIndex(16));
  }
  return fx;
}

TEST(ChunkedPublishTest, SpansSeveralChunksWithARaggedTail) {
  static_assert(kMultiChunkPages % 64 != 0);
  static_assert(kMultiChunkPages > 2 * kChunk);
  for (const char* family : kFamilies) {
    Fixture fx = TiedFixture(kMultiChunkPages);
    ShardedRankServer server(Policy(family), kMultiChunkPages);
    Rng rng(23);
    for (int epoch = 1; epoch <= 4; ++epoch) {
      if (epoch > 1) Churn(0.02, rng, &fx);
      ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
      ExpectScratchEqual(server, fx,
                         std::string(family) + " epoch " +
                             std::to_string(epoch));
    }
  }
}

TEST(ChunkedPublishTest, ChangedPagesOnTheRankSplits) {
  // Once an epoch is served, the builder splits its det order at ranks
  // b * P / B (B = 3 rank chunks here). Move the pages
  // sitting exactly on those ranks, and the ranks either side of them:
  // up, down, and into the pool.
  Fixture fx = TiedFixture(kMultiChunkPages);
  ShardedRankServer server(Policy("selective(r=0.10,k=2)"), kMultiChunkPages);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  for (int round = 0; round < 3; ++round) {
    const auto view = server.view();
    const size_t det = view->det.size();
    for (size_t b = 1; b < 3; ++b) {
      const size_t rank = b * det / 3;
      const uint32_t on = view->det[rank];
      const uint32_t above = view->det[rank - 1];
      const uint32_t below = view->det[rank + 1];
      fx.popularity[on] = round == 0 ? 0.5 : 0.0;
      fx.birth[on] += 50;
      fx.birth[above] += 100;
      fx.zero[below] = 1;
      fx.popularity[below] = 0.0;
    }
    ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
    ExpectScratchEqual(server, fx, "round " + std::to_string(round));
  }
}

TEST(ChunkedPublishTest, EveryPageChangedOnFirstPublishAndHotSwap) {
  obs::MetricsRegistry metrics;
  ServeOptions opts;
  opts.metrics = &metrics;
  Fixture fx = TiedFixture(kMultiChunkPages);
  ShardedRankServer server(Policy("selective(r=0.10,k=2)"), kMultiChunkPages,
                           opts);
  const auto changed_pages = [&] {
    return metrics.Snapshot().gauges.at("serve/publish_changed_pages");
  };
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  EXPECT_EQ(changed_pages(), static_cast<double>(kMultiChunkPages));
  ExpectScratchEqual(server, fx, "first publish");
  // Every score moves and the policy swaps in the same publish.
  for (double& score : fx.popularity) score += 0.5;
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth,
                            Policy("eps-tail(eps=0.10,k=10)")));
  EXPECT_EQ(changed_pages(), static_cast<double>(kMultiChunkPages));
  ExpectScratchEqual(server, fx, "hot-swap");
  Rng rng(3);
  Churn(0.03, rng, &fx);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  ExpectScratchEqual(server, fx, "after the hot-swap");
}

/// The uniform rule, except that while armed PoolMembership throws on its
/// `fail_at`th call, on whichever build thread makes it. Records whether a
/// call ran on a thread other than the one that created it.
class ThrowingMembership final : public StochasticRankingPolicy {
 public:
  ThrowingMembership() : inner_(Policy("uniform(r=0.20,k=1)")) {}
  std::string Label() const override { return inner_->Label(); }
  PolicyCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }
  bool PoolMembership(bool zero_awareness, Rng& rng) const override {
    if (std::this_thread::get_id() != creator_) off_creator = true;
    if (armed && calls.fetch_add(1) == fail_at) {
      throw std::runtime_error("membership store unavailable");
    }
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

  std::atomic<bool> armed{false};
  mutable std::atomic<size_t> calls{0};
  mutable std::atomic<bool> off_creator{false};
  size_t fail_at = 0;

 private:
  std::shared_ptr<const StochasticRankingPolicy> inner_;
  const std::thread::id creator_ = std::this_thread::get_id();
};

TEST(ChunkedPublishTest, ExceptionOnABuildThreadRollsBack) {
  obs::TraceLog trace;
  ServeOptions opts;
  opts.trace = &trace;
  auto policy = std::make_shared<ThrowingMembership>();
  Fixture fx = TiedFixture(kMultiChunkPages);
  ShardedRankServer server(policy, kMultiChunkPages, opts);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  const auto before = server.view();
  trace.Drain();
  // One publish fails late in its diff pass, the next early: whichever
  // worker makes the failing call, the publish rolls back with its reason
  // and the workers are ready for the next one.
  for (const size_t fail_at : {kMultiChunkPages - 9, size_t{5}}) {
    policy->fail_at = fail_at;
    policy->calls = 0;
    policy->armed = true;
    EXPECT_FALSE(server.Update(fx.popularity, fx.zero, fx.birth));
    policy->armed = false;
  }
  EXPECT_EQ(server.publish_failures(), 2u);
  EXPECT_EQ(server.view(), before);
  size_t reasons = 0;
  for (const std::string& line : trace.Drain()) {
    if (line.find("publish/aborted") != std::string::npos &&
        line.find("membership store unavailable") != std::string::npos) {
      ++reasons;
    }
  }
  EXPECT_EQ(reasons, 2u);
  Rng rng(6);
  Churn(0.03, rng, &fx);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  ExpectScratchEqual(server, fx, "after the failed builds");
  // Say so when no diff chunk ran on a pool thread: below 4 hardware
  // threads there is no pool, and on a loaded host the caller can take
  // every chunk before a pool thread wakes. Then only the caller's
  // rollback was checked.
  if (!policy->off_creator) {
    std::cout << "[   NOTE   ] no diff chunk ran on a pool thread ("
              << std::thread::hardware_concurrency()
              << " hardware threads): only the caller's rollback was "
                 "checked\n";
  }
}

TEST(ChunkedPublishTest, SameSeedUniformServersPublishIdenticalViews) {
  Fixture fx = TiedFixture(kMultiChunkPages);
  ServeOptions opts;
  opts.seed = 77;
  ShardedRankServer a(Policy("uniform(r=0.20,k=1)"), kMultiChunkPages, opts);
  ShardedRankServer b(Policy("uniform(r=0.20,k=1)"), kMultiChunkPages, opts);
  opts.seed = 78;
  ShardedRankServer other(Policy("uniform(r=0.20,k=1)"), kMultiChunkPages,
                          opts);
  Rng rng(4);
  for (int epoch = 1; epoch <= 3; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    if (epoch > 1) Churn(0.03, rng, &fx);
    ASSERT_TRUE(a.Update(fx.popularity, fx.zero, fx.birth));
    ASSERT_TRUE(b.Update(fx.popularity, fx.zero, fx.birth));
    ASSERT_TRUE(other.Update(fx.popularity, fx.zero, fx.birth));
    EXPECT_EQ(a.view()->det, b.view()->det);
    EXPECT_EQ(a.view()->det_score, b.view()->det_score);
    EXPECT_EQ(a.view()->pool, b.view()->pool);
    // The draws are real: another seed pools other pages, about r of them
    // in every chunk, and each chunk draws from its own stream.
    EXPECT_NE(a.view()->pool, other.view()->pool);
    std::vector<uint32_t> offsets[2];
    for (const uint32_t p : a.view()->pool) {
      if (p < 2 * kChunk) offsets[p / kChunk].push_back(p % kChunk);
    }
    EXPECT_NE(offsets[0], offsets[1]);
    for (size_t c = 0; c < 3; ++c) {
      const auto in_chunk = std::count_if(
          a.view()->pool.begin(), a.view()->pool.end(),
          [&](uint32_t p) { return p / kChunk == c; });
      const double pages =
          static_cast<double>(std::min(kChunk, kMultiChunkPages - c * kChunk));
      EXPECT_NEAR(static_cast<double>(in_chunk) / pages, 0.2, 0.02)
          << "chunk " << c;
    }
    ExpectScratchEqual(a, fx, "uniform");
  }
}

// --- Bad input is rejected at the publish boundary -------------------------

/// Publishes clean n-page inputs, then `bad`, and checks the bad publish is
/// a counted rollback whose reason names `why`; the previous epoch keeps
/// serving and the next clean publish matches a from-scratch build.
void ExpectRejected(Fixture bad, const std::string& why, size_t n = 300) {
  SCOPED_TRACE(why);
  Fixture fx(n, 40);
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  ServeOptions opts;
  opts.metrics = &metrics;
  opts.trace = &trace;
  ShardedRankServer server(Policy("selective(r=0.10,k=2)"), n, opts);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  const auto before = server.view();
  trace.Drain();

  EXPECT_FALSE(server.Update(bad.popularity, bad.zero, bad.birth));
  EXPECT_EQ(server.publish_failures(), 1u);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve/publish_failures"), 1u);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.view(), before);
  bool reason_seen = false;
  for (const std::string& line : trace.Drain()) {
    if (line.find("publish/aborted") != std::string::npos &&
        line.find(why) != std::string::npos) {
      reason_seen = true;
    }
  }
  EXPECT_TRUE(reason_seen) << "no publish/aborted span naming \"" << why
                           << "\"";

  Rng rng(2);
  Churn(0.05, rng, &fx);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  ExpectScratchEqual(server, fx, "clean publish after rejection");
}

TEST(PublishValidationTest, RejectsShortPopularity) {
  Fixture bad(300, 40);
  bad.popularity.pop_back();
  ExpectRejected(bad, "input sizes 299/300/300");
}

TEST(PublishValidationTest, RejectsLongZeroAwareness) {
  Fixture bad(300, 40);
  bad.zero.push_back(0);
  ExpectRejected(bad, "input sizes 300/301/300");
}

TEST(PublishValidationTest, RejectsShortBirthSteps) {
  Fixture bad(300, 40);
  bad.birth.clear();
  ExpectRejected(bad, "input sizes 300/300/0");
}

TEST(PublishValidationTest, RejectsNaNPopularity) {
  Fixture bad(300, 40);
  bad.popularity[17] = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(bad, "popularity[17]");
}

TEST(PublishValidationTest, RejectsInfinitePopularity) {
  Fixture bad(300, 40);
  bad.popularity[250] = std::numeric_limits<double>::infinity();
  ExpectRejected(bad, "popularity[250]");
}

TEST(PublishValidationTest, RejectsNegativePopularity) {
  Fixture bad(300, 40);
  bad.popularity[3] = -0.25;
  ExpectRejected(bad, "popularity[3]");
}

TEST(PublishValidationTest, RejectsBadPopularityInTheLastChunk) {
  // Chunks validate in parallel; the reason still names the lowest bad
  // page, as one serial pass would.
  Fixture bad(kMultiChunkPages, 40);
  bad.popularity[kMultiChunkPages - 5] = -1.0;
  ExpectRejected(bad, "popularity[" + std::to_string(kMultiChunkPages - 5) +
                          "] = -1.0",
                 kMultiChunkPages);
  bad.popularity[kChunk + 3] = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(bad, "popularity[" + std::to_string(kChunk + 3) + "]",
                 kMultiChunkPages);
}

TEST(PublishValidationTest, RejectsBadFirstPublish) {
  Fixture fx(100, 10);
  fx.popularity[0] = std::numeric_limits<double>::quiet_NaN();
  ShardedRankServer server(Policy("selective(r=0.10,k=2)"), 100);
  EXPECT_FALSE(server.Update(fx.popularity, fx.zero, fx.birth));
  EXPECT_EQ(server.view(), nullptr);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  EXPECT_EQ(server.ServeTopM(ctx, 10, &out), 0u);
  fx.popularity[0] = 0.0;
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  ExpectScratchEqual(server, fx, "first clean publish");
}

// --- CheckEpochInvariants ----------------------------------------------------

TEST(EpochInvariantsTest, FlagsEachBrokenInvariant) {
  Fixture fx(60, 10);
  ShardedRankServer server(Policy("selective(r=0.10,k=2)"), 60);
  ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
  const ServingView good = *server.view();
  EXPECT_EQ(CheckEpochInvariants(good, fx.zero, fx.birth), "");

  ServingView unsorted = good;
  std::swap(unsorted.det[3], unsorted.det[4]);
  std::swap(unsorted.det_score[3], unsorted.det_score[4]);
  EXPECT_NE(CheckEpochInvariants(unsorted, fx.zero, fx.birth), "");

  ServingView repeated = good;
  repeated.pool.back() = repeated.pool.front();
  EXPECT_NE(CheckEpochInvariants(repeated, fx.zero, fx.birth), "");

  ServingView missing = good;
  missing.pool.pop_back();
  EXPECT_NE(CheckEpochInvariants(missing, fx.zero, fx.birth), "");

  // A zero-awareness page on the deterministic list breaks the selective
  // rule; under the uniform rule, which draws, membership is not checked.
  ServingView misplaced = good;
  const uint32_t moved = misplaced.pool.front();
  misplaced.pool.erase(misplaced.pool.begin());
  misplaced.det.push_back(moved);
  misplaced.det_score.push_back(0.0);  // lowest score: still sorted
  EXPECT_NE(CheckEpochInvariants(misplaced, fx.zero, fx.birth), "");
  misplaced.policy = Policy("uniform(r=0.20,k=1)");
  EXPECT_EQ(CheckEpochInvariants(misplaced, fx.zero, fx.birth), "");
}

}  // namespace
}  // namespace randrank
