#include "core/policy/stochastic_ranking_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/community.h"
#include "core/policy/epsilon_tail_policy.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/thompson_promotion_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "harness/presets.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "sim/agent_sim.h"
#include "sim/mean_field.h"
#include "util/rng.h"
#include "util/stats.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using testutil::Fixture;

TEST(PolicyCapabilitiesTest, FamiliesDeclareTheExpectedMatrix) {
  const auto promo = MakePromotionPolicy(RankPromotionConfig::Recommended(2));
  EXPECT_TRUE(promo->Capabilities().lazy_prefix);
  EXPECT_TRUE(promo->Capabilities().agent_sim);
  EXPECT_TRUE(promo->Capabilities().mean_field);
  ASSERT_NE(promo->AsPromotion(), nullptr);
  EXPECT_EQ(promo->AsPromotion()->rule, PromotionRule::kSelective);

  const auto pl = MakePlackettLucePolicy(0.1);
  EXPECT_FALSE(pl->Capabilities().lazy_prefix);
  EXPECT_FALSE(pl->Capabilities().agent_sim);
  EXPECT_FALSE(pl->Capabilities().mean_field);
  EXPECT_EQ(pl->AsPromotion(), nullptr);

  const auto eps = MakeEpsilonTailPolicy(0.2, 5);
  EXPECT_TRUE(eps->Capabilities().lazy_prefix);
  EXPECT_FALSE(eps->Capabilities().agent_sim);
  EXPECT_EQ(eps->AsPromotion(), nullptr);

  const auto ts = MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1);
  EXPECT_TRUE(ts->Capabilities().lazy_prefix);
  EXPECT_FALSE(ts->Capabilities().agent_sim);
  EXPECT_FALSE(ts->Capabilities().mean_field);
  EXPECT_EQ(ts->AsPromotion(), nullptr);
}

// Which families actually produce opaque per-epoch state (for the promotion
// and eps-tail families the epoch-invariant state is the view itself, so
// their hook returns null and the serve layer passes nothing extra).
TEST(PolicyCapabilitiesTest, BuildEpochStateProducesStateWhereExpected) {
  const size_t n = 60;
  Fixture fx(n, 0);
  const auto build = [&](std::shared_ptr<const StochasticRankingPolicy> p) {
    Ranker ranker(p);
    Rng rng(17);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const RankView view = {ranker.deterministic_order().data(),
                           ranker.deterministic_scores().data(),
                           ranker.deterministic_order().size(),
                           ranker.pool().data(), ranker.pool().size()};
    return p->BuildEpochState(view);
  };
  EXPECT_EQ(build(MakePromotionPolicy(RankPromotionConfig::None())), nullptr);
  EXPECT_NE(build(MakePlackettLucePolicy(0.2)), nullptr);
  // eps-tail reads its protected head from the view in place.
  EXPECT_EQ(build(MakeEpsilonTailPolicy(0.3, 4)), nullptr);
  EXPECT_EQ(build(MakeEpsilonTailPolicy(0.3, 0)), nullptr);
  // ts-promo precomputes its head's per-rank duel-win probabilities where
  // they have a closed form (an integer a or b); without one it tosses the
  // literal duel and builds nothing.
  EXPECT_NE(build(MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1)), nullptr);
  EXPECT_NE(build(MakeThompsonPromotionPolicy(0.5, 2.0, 20.0, 1)), nullptr);
  EXPECT_EQ(build(MakeThompsonPromotionPolicy(1.5, 1.5, 4.0, 1)), nullptr);
}

// Each epoch state checks itself against its view: sized to it, every
// entry in range, and for ts-promo a head whose pool odds never fall down
// the list (scores fall, so does the evidence against the pool).
TEST(PolicyCapabilitiesTest, EpochStatesCheckThemselves) {
  Fixture fx(100, 20);
  const auto ts = MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1);
  for (const auto& policy :
       {MakePlackettLucePolicy(0.2), ts,
        MakeThompsonPromotionPolicy(0.5, 2.0, 20.0, 1)}) {
    SCOPED_TRACE(policy->Label());
    Ranker ranker(policy);
    Rng rng(18);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const RankView view = {ranker.deterministic_order().data(),
                           ranker.deterministic_scores().data(),
                           ranker.deterministic_order().size(),
                           ranker.pool().data(), ranker.pool().size()};
    const auto state = policy->BuildEpochState(view);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->Check(view), "");
    RankView shorter = view;
    shorter.det_size = 10;
    EXPECT_NE(state->Check(shorter), "");
  }

  // Scores out of order: a low score at det position 1 gives that slot
  // higher pool odds than position 2's.
  Ranker ranker(ts);
  Rng rng(19);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  std::vector<double> scores = ranker.deterministic_scores();
  scores[1] = scores.back();
  const RankView out_of_order = {ranker.deterministic_order().data(),
                                 scores.data(), scores.size(),
                                 ranker.pool().data(), ranker.pool().size()};
  EXPECT_NE(ts->BuildEpochState(out_of_order)->Check(out_of_order), "");
}

TEST(PolicyFactoryTest, LabelsRoundTripThroughMakePolicyFromLabel) {
  for (const auto& policy : StandardPolicyFamilies()) {
    const auto parsed = MakePolicyFromLabel(policy->Label());
    ASSERT_NE(parsed, nullptr) << policy->Label();
    EXPECT_EQ(parsed->Label(), policy->Label());
  }
  // Parameters survive the round trip, not just the family name.
  const auto pl = MakePolicyFromLabel("plackett-luce(T=0.33)");
  ASSERT_NE(pl, nullptr);
  EXPECT_EQ(pl->Label(), "plackett-luce(T=0.33)");
  const auto eps = MakePolicyFromLabel("eps-tail(eps=0.25,k=7)");
  ASSERT_NE(eps, nullptr);
  EXPECT_EQ(eps->Label(), "eps-tail(eps=0.25,k=7)");
  const auto ts = MakePolicyFromLabel("ts-promo(a=1.50,b=2.00,c=12.0,k=2)");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->Label(), "ts-promo(a=1.50,b=2.00,c=12.0,k=2)");

  EXPECT_EQ(MakePolicyFromLabel("thompson(alpha=1)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=-1.00)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=0.05)x"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=0.05"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=0.10,k=5)junk"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=2.00,k=5)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=0.00,b=3.00,c=20.0,k=1)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=1.00,b=3.00,c=20.0,k=1)x"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel(""), nullptr);
  // %lf reads "nan" and "inf", so these parse; Valid() rejects them. k is
  // digits only, so "-1" is rejected rather than wrapped to SIZE_MAX.
  EXPECT_EQ(MakePolicyFromLabel("uniform(r=nan,k=1)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("selective(r=nan,k=2)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=inf)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=inf,b=3.00,c=20.0,k=1)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=1.00,b=3.00,c=inf,k=0)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=0.10,k=-1)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("selective(r=0.10,k=-1)"), nullptr);
  // A k past 2^64 - 1 is rejected, not saturated to 2^64 - 1 (which would
  // map the label to a different one), and so is a sign or a space.
  EXPECT_EQ(
      MakePolicyFromLabel("eps-tail(eps=0.10,k=99999999999999999999999)"),
      nullptr);
  EXPECT_EQ(MakePolicyFromLabel("selective(r=0.10,k=18446744073709551616)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("uniform(r=0.10,k=99999999999999999999999)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel(
                "ts-promo(a=1.00,b=3.00,c=20.0,k=99999999999999999999999)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=0.10,k=+5)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=1.00,b=3.00,c=20.0,k= 1)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("selective(r=0.10,k=2))"), nullptr);
  // The largest k still parses and round-trips.
  const auto big = MakePolicyFromLabel("eps-tail(eps=0.10,k=18446744073709551615)");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->Label(), "eps-tail(eps=0.10,k=18446744073709551615)");
}

// Rejections carry a diagnostic that echoes the offending label; unknown
// families additionally list the known family vocabulary.
TEST(PolicyFactoryTest, RejectionsEchoTheLabelAndKnownFamilies) {
  std::string error;
  EXPECT_EQ(MakePolicyFromLabel("thompson(alpha=1)", &error), nullptr);
  EXPECT_NE(error.find("thompson(alpha=1)"), std::string::npos) << error;
  for (const std::string& prefix : KnownPolicyFamilyPrefixes()) {
    EXPECT_NE(error.find(prefix), std::string::npos)
        << "known-family list missing \"" << prefix << "\": " << error;
  }

  // Known family, out-of-range parameter: a specific message, not the
  // unknown-family one.
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=-1.00)", &error), nullptr);
  EXPECT_NE(error.find("plackett-luce(T=-1.00)"), std::string::npos) << error;
  EXPECT_NE(error.find("temperature"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=2.00,k=5)", &error), nullptr);
  EXPECT_NE(error.find("eps-tail(eps=2.00,k=5)"), std::string::npos) << error;
  EXPECT_NE(error.find("epsilon"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=0.00,b=3.00,c=20.0,k=1)", &error),
            nullptr);
  EXPECT_NE(error.find("ts-promo(a=0.00,b=3.00,c=20.0,k=1)"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("a > 0"), std::string::npos) << error;
  // Promotion-shaped labels with bad parameters get the promotion-specific
  // message, not the contradictory "unknown family" one.
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("uniform(r=2.00,k=2)", &error), nullptr);
  EXPECT_NE(error.find("uniform(r=2.00,k=2)"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_EQ(error.find("unknown"), std::string::npos) << error;

  // A successful parse leaves the error untouched.
  error = "sentinel";
  EXPECT_NE(MakePolicyFromLabel("plackett-luce(T=0.25)", &error), nullptr);
  EXPECT_EQ(error, "sentinel");
}

// Family slug of a label or of a KnownPolicyFamilyPrefixes entry: the text
// up to the parameter list ("selective(r=0.10,k=2)" -> "selective").
std::string FamilySlug(const std::string& label) {
  return label.substr(0, label.find('('));
}

// The label vocabulary, swept generically instead of per-family statics:
// every family MakePolicyFromLabel knows (KnownPolicyFamilyPrefixes) must
// have representative labels here that (a) round-trip exactly and (b)
// reject a standard battery of malformations derived from the label itself.
// A new family added to the factory without representatives in the standard
// sets fails the coverage assertion — joining the sweep is the admission
// ticket.
TEST(PolicyFactoryTest, EveryKnownFamilyRoundTripsAndRejectsMalformedLabels) {
  // Representatives: one hand-picked label per shipped family (including
  // the parameterless "none") plus everything the standard policy sets
  // produce, deduplicated.
  std::set<std::string> labels = {
      "none",
      "uniform(r=0.30,k=3)",
      "selective(r=0.10,k=2)",
      "plackett-luce(T=0.33)",
      "eps-tail(eps=0.25,k=7)",
      "ts-promo(a=1.50,b=2.00,c=12.0,k=2)",
  };
  for (const auto& policy : StandardPolicyFamilies()) {
    labels.insert(policy->Label());
  }
  for (const auto& policy : PolicyTuningGrid()) {
    labels.insert(policy->Label());
  }

  // Coverage: every known family prefix has at least one representative.
  std::set<std::string> covered;
  for (const std::string& label : labels) covered.insert(FamilySlug(label));
  for (const std::string& prefix : KnownPolicyFamilyPrefixes()) {
    EXPECT_TRUE(covered.count(FamilySlug(prefix)))
        << "family \"" << prefix
        << "\" has no representative label in the round-trip sweep";
  }

  for (const std::string& label : labels) {
    // Round trip: parse succeeds and reproduces the label byte for byte.
    std::string error;
    const auto parsed = MakePolicyFromLabel(label, &error);
    ASSERT_NE(parsed, nullptr) << label << ": " << error;
    EXPECT_EQ(parsed->Label(), label);
    EXPECT_TRUE(parsed->Valid()) << label;

    // Malformation battery, derived from the label so every family gets the
    // same treatment: trailing garbage, truncation, and a bare parameter
    // list must all be rejected (strict parsing — a mangled label must
    // never silently map to a policy whose Label() differs from the input).
    for (const std::string& bad :
         {label + "x", label + " ", label.substr(0, label.size() - 1),
          FamilySlug(label) + "(", "x" + label}) {
      EXPECT_EQ(MakePolicyFromLabel(bad), nullptr)
          << "malformed \"" << bad << "\" (from \"" << label
          << "\") was accepted";
    }
  }
}

// Mutation fuzz of the label boundary: labels derived from the standard
// families by byte flips, truncations and splices of signs, non-finite
// spellings and long digit runs. Whatever is accepted must be a Valid()
// policy whose Label() parses back to itself and which serves a permutation;
// whatever is rejected must say why.
TEST(PolicyFactoryTest, FuzzedLabelsParseOrReject) {
  std::vector<std::string> seeds;
  for (const auto& policy : StandardPolicyFamilies()) {
    seeds.push_back(policy->Label());
  }
  const std::vector<std::string> splices = {
      "-", "+", "nan", "inf", "-inf", "1e999", "0", std::string(40, '9'),
      std::string(400, '9')};
  const size_t n = 12;
  Fixture fx(n, 3);
  Rng rng(2026);
  size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string label = seeds[rng.NextIndex(seeds.size())];
    const size_t edits = 1 + rng.NextIndex(3);
    for (size_t e = 0; e < edits && !label.empty(); ++e) {
      switch (rng.NextIndex(3)) {
        case 0:  // byte flip
          label[rng.NextIndex(label.size())] =
              static_cast<char>(rng.NextIndex(256));
          break;
        case 1:  // truncation
          label.resize(rng.NextIndex(label.size()));
          break;
        default: {  // splice, usually over one parameter's value
          const std::string& text = splices[rng.NextIndex(splices.size())];
          size_t at = rng.NextIndex(label.size() + 1);
          size_t len = 0;
          const size_t eq = label.find('=', at);
          if (eq != std::string::npos && rng.NextBernoulli(0.8)) {
            at = eq + 1;
            len = label.find_first_of(",)", at);
            len = (len == std::string::npos ? label.size() : len) - at;
          }
          label.replace(at, len, text);
        }
      }
    }
    std::string error;
    const auto policy = MakePolicyFromLabel(label, &error);
    if (policy == nullptr) {
      EXPECT_FALSE(error.empty()) << label;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(policy->Valid()) << label;
    const auto again = MakePolicyFromLabel(policy->Label(), &error);
    ASSERT_NE(again, nullptr) << label << " -> " << policy->Label() << ": "
                              << error;
    EXPECT_EQ(again->Label(), policy->Label()) << label;
    Ranker ranker(policy);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const std::vector<uint32_t> list = ranker.TopM(n, rng);
    ASSERT_EQ(std::set<uint32_t>(list.begin(), list.end()).size(), n)
        << label;
    // Extreme parameters (c = 1e40, a = 1e40, ...) still build a
    // well-formed epoch state.
    const RankView view = {ranker.deterministic_order().data(),
                           ranker.deterministic_scores().data(),
                           ranker.deterministic_order().size(),
                           ranker.pool().data(), ranker.pool().size()};
    if (const auto state = policy->BuildEpochState(view); state != nullptr) {
      EXPECT_EQ(state->Check(view), "") << label;
    }
  }
  // Parameter splices keep a share of the labels well-formed.
  EXPECT_GT(accepted, 100u);
}

TEST(PolicyFactoryTest, StandardFamiliesAreValidAndDistinct) {
  const auto families = StandardPolicyFamilies();
  ASSERT_EQ(families.size(), 4u);
  std::set<std::string> labels;
  for (const auto& policy : families) {
    EXPECT_TRUE(policy->Valid()) << policy->Label();
    labels.insert(policy->Label());
  }
  EXPECT_EQ(labels.size(), families.size());
}

TEST(EpsilonTailPolicyTest, ZeroEpsilonReproducesTheDeterministicOrder) {
  const size_t n = 120;
  Fixture fx(n, 0);
  Ranker ranker(MakeEpsilonTailPolicy(0.0, 5));
  Rng rng(3);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_TRUE(ranker.pool().empty());
  EXPECT_EQ(ranker.MaterializeList(rng), ranker.deterministic_order());
  EXPECT_EQ(ranker.TopM(n, rng), ranker.deterministic_order());
}

TEST(EpsilonTailPolicyTest, ProtectedPrefixIsStableAndListIsPermutation) {
  const size_t n = 150;
  const size_t protect = 7;
  Fixture fx(n, 0);
  Ranker ranker(MakeEpsilonTailPolicy(0.8, protect));
  Rng rng(5);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t>& det = ranker.deterministic_order();
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<uint32_t> list = ranker.TopM(n, rng);
    ASSERT_EQ(list.size(), n);
    for (size_t j = 0; j < protect; ++j) {
      ASSERT_EQ(list[j], det[j]) << "trial " << trial << " slot " << j;
    }
    const std::set<uint32_t> seen(list.begin(), list.end());
    EXPECT_EQ(seen.size(), n);
  }
}

TEST(PlackettLucePolicyTest, TemperatureInterpolatesDeterminismToUniform) {
  const size_t n = 30;
  const int kTrials = 4000;
  // Evenly spaced scores: the rank-1 gap is 0.4/n, so at T = 0.002 the best
  // page's weight beats the runner-up by e^6.7 (near-deterministic) while
  // T = 50 flattens the whole ladder to within 0.4/50 (near-uniform).
  std::vector<double> popularity(n);
  std::vector<uint8_t> zero(n, 0);
  std::vector<int64_t> birth(n, 0);
  for (size_t p = 0; p < n; ++p) {
    popularity[p] = 0.4 * static_cast<double>(n - p) / static_cast<double>(n);
  }

  std::map<double, double> top_rate;
  for (const double t : {0.002, 50.0}) {
    Ranker ranker(MakePlackettLucePolicy(t));
    Rng rng(7);
    ranker.Update(popularity, zero, birth, rng);
    const uint32_t best = ranker.deterministic_order().front();
    int wins = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      wins += ranker.TopM(1, rng).front() == best;
    }
    top_rate[t] = static_cast<double>(wins) / kTrials;
  }
  EXPECT_GT(top_rate[0.002], 0.97);
  EXPECT_NEAR(top_rate[50.0], 1.0 / static_cast<double>(n), 0.03);
}

TEST(PlackettLucePolicyTest, FullRealizationIsAPermutation) {
  const size_t n = 80;
  Fixture fx(n, 10);
  Ranker ranker(MakePlackettLucePolicy(0.2));
  Rng rng(9);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_TRUE(ranker.pool().empty());  // weighted families keep no pool
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  const std::set<uint32_t> seen(list.begin(), list.end());
  EXPECT_EQ(seen.size(), n);
}

// --- Satellite: chi-squared serve-vs-materialize equivalence -------------

/// Serves `trials` top-m queries through a server and accumulates the
/// categorical statistic `stat(list)`.
template <typename Stat>
std::vector<double> ServeCounts(
    std::shared_ptr<const StochasticRankingPolicy> policy, const Fixture& fx,
    size_t n, size_t m, int trials, size_t cells, uint64_t seed,
    const Stat& stat) {
  ServeOptions opts;
  opts.seed = seed;
  ShardedRankServer server(std::move(policy), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  std::vector<double> counts(cells, 0.0);
  std::vector<uint32_t> out;
  for (int t = 0; t < trials; ++t) {
    EXPECT_EQ(server.ServeTopM(ctx, m, &out), m);
    counts[stat(out)] += 1.0;
  }
  return counts;
}

/// Materializes `trials` full reference lists through the Ranker (which
/// routes non-promotion families to MaterializeReference) and accumulates
/// the same statistic over the top-m prefix.
template <typename Stat>
std::vector<double> MaterializeCounts(
    std::shared_ptr<const StochasticRankingPolicy> policy, const Fixture& fx,
    size_t m, int trials, size_t cells, uint64_t seed, const Stat& stat) {
  Ranker ranker(std::move(policy));
  Rng rng(seed);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  std::vector<double> counts(cells, 0.0);
  std::vector<uint32_t> prefix;
  for (int t = 0; t < trials; ++t) {
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    prefix.assign(list.begin(), list.begin() + static_cast<ptrdiff_t>(m));
    counts[stat(prefix)] += 1.0;
  }
  return counts;
}

void ExpectChiSquaredAgreement(std::vector<double> a, std::vector<double> b,
                               const char* what) {
  MergeSparseCells(&a, &b, 32.0);
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(a, b, &df);
  ASSERT_GT(df, 0u) << what;
  EXPECT_LE(chi2, ChiSquaredCritical(df, 0.001))
      << what << ": serve distribution drifted from materialize (df=" << df
      << ")";
}

// The acceptance property for the epsilon-tail family: the serve path
// realizes exactly the law of the naive materialized reference. Statistic:
// how many of the deterministic top-m pages appear in the served top-m (a
// categorical in 0..m).
TEST(PolicyEquivalenceTest, EpsilonTailServeMatchesMaterializeChiSquared) {
  const size_t n = 90;
  const size_t m = 10;
  const int kTrials = 20000;
  Fixture fx(n, 0);
  const auto policy = MakeEpsilonTailPolicy(0.35, 3);

  Ranker ranker(policy);
  Rng rng(2);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::set<uint32_t> det_top(ranker.deterministic_order().begin(),
                                   ranker.deterministic_order().begin() + m);
  const auto stat = [&](const std::vector<uint32_t>& prefix) {
    size_t hits = 0;
    for (const uint32_t page : prefix) hits += det_top.count(page);
    return hits;
  };

  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, m + 1, 101, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, m, kTrials, m + 1, 102, stat);
  ExpectChiSquaredAgreement(served, reference, "eps-tail");
}

// Same acceptance property for Plackett-Luce: the server serves through the
// per-epoch alias table (rejection against the served set), which must
// realize exactly the sequential-softmax reference law. Statistic: the
// identity of the page served at rank 1 (categorical over all n pages;
// sparse cells are merged before the test).
TEST(PolicyEquivalenceTest, PlackettLuceServeMatchesMaterializeChiSquared) {
  const size_t n = 40;
  const size_t m = 5;
  const int kTrials = 20000;
  Fixture fx(n, 6);
  const auto policy = MakePlackettLucePolicy(0.15);

  const auto stat = [](const std::vector<uint32_t>& prefix) {
    return static_cast<size_t>(prefix.front());
  };
  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, n, 201, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, m, kTrials, n, 202, stat);
  ExpectChiSquaredAgreement(served, reference, "plackett-luce rank 1");
}

// Cross-check at a deeper rank so the without-replacement coupling is
// exercised (the alias path's rejection against already-served pages), not
// just the first draw.
TEST(PolicyEquivalenceTest, PlackettLuceRankMarginalsMatchAtDepth) {
  const size_t n = 40;
  const size_t m = 8;
  const int kTrials = 20000;
  Fixture fx(n, 6);
  const auto policy = MakePlackettLucePolicy(0.15);

  const auto stat = [](const std::vector<uint32_t>& prefix) {
    return static_cast<size_t>(prefix.back());  // page at rank m
  };
  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, n, 301, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, m, kTrials, n, 302, stat);
  ExpectChiSquaredAgreement(served, reference, "plackett-luce rank m");
}

// A temperature small enough that the softmax mass concentrates on the top
// pages forces the alias path's rejection cap to trip mid-query (the served
// prefix absorbs nearly all the mass), exercising the Gumbel fallback for
// the remaining slots. The law must stay exactly the reference's.
TEST(PolicyEquivalenceTest, PlackettLuceAliasFallbackPreservesTheLawChiSquared) {
  const size_t n = 30;
  const size_t m = 12;
  const int kTrials = 20000;
  Fixture fx(n, 0);
  const auto policy = MakePlackettLucePolicy(0.01);  // near-deterministic

  const auto stat = [](const std::vector<uint32_t>& prefix) {
    return static_cast<size_t>(prefix.back());
  };
  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, n, 401, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, m, kTrials, n, 402, stat);
  ExpectChiSquaredAgreement(served, reference, "plackett-luce fallback");
}

// Same acceptance property for the Thompson-promotion family: the served
// duels must realize exactly the naive reference law.
// Statistic: how many of the deterministic top-m pages survive in the
// served top-m (the duel decides exactly this exchange).
TEST(PolicyEquivalenceTest, ThompsonPromoServeMatchesMaterializeChiSquared) {
  const size_t n = 90;
  const size_t m = 10;
  const int kTrials = 20000;
  Fixture fx(n, 20);  // selective pool: the zero-awareness pages
  const auto policy = MakeThompsonPromotionPolicy(1.0, 2.0, 6.0, 1);

  Ranker ranker(policy);
  Rng rng(4);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  ASSERT_FALSE(ranker.pool().empty());
  const std::set<uint32_t> det_top(ranker.deterministic_order().begin(),
                                   ranker.deterministic_order().begin() + m);
  const auto stat = [&](const std::vector<uint32_t>& prefix) {
    size_t hits = 0;
    for (const uint32_t page : prefix) hits += det_top.count(page);
    return hits;
  };

  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, m + 1, 501, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, m, kTrials, m + 1, 502, stat);
  ExpectChiSquaredAgreement(served, reference, "ts-promo");
}

// The stronger form for ts-promo: which source fills each slot. Statistic:
// the det/pool pattern of a window of ranks (bit j set when rank from + j
// holds a pool page), over the head of the list and over ranks whose det
// cursor runs past the epoch state's kHeadPositions, served with the
// published epoch state and with none, against the literal-duel reference.
// Points: the benchmark's prior (the sum in a), a non-integer a (the
// mirror), and a prior with no closed form, which builds no state and
// tosses the literal duel throughout.
TEST(PolicyEquivalenceTest, ThompsonPromoSlotSourcesMatchMaterializeChiSquared) {
  const size_t n = 160;
  const size_t m = 90;
  constexpr size_t kWindow = 10;
  Fixture fx(n, 40);  // 120 det pages: cursors reach past the 64-page head
  ASSERT_GT(n - 40, ThompsonPromotionPolicy::kHeadPositions + kWindow);
  const size_t cells = size_t{1} << kWindow;
  constexpr int kTrials = 20000;
  // Window starts: the head, and the tail of a served prefix.
  const size_t from[2] = {0, m - kWindow};
  // Pattern counts per window over kTrials prefixes drawn by `draw`.
  const auto count = [&](const auto& draw) {
    std::vector<std::vector<double>> counts(2, std::vector<double>(cells, 0.0));
    std::vector<uint32_t> prefix;
    for (int t = 0; t < kTrials; ++t) {
      prefix.clear();
      draw(&prefix);
      for (size_t w = 0; w < 2; ++w) {
        size_t bits = 0;
        for (size_t j = 0; j < kWindow; ++j) {
          bits |= size_t{fx.zero[prefix[from[w] + j]]} << j;
        }
        counts[w][bits] += 1.0;
      }
    }
    return counts;
  };
  const struct {
    double a, b;
    bool has_state;
  } points[] = {{1.0, 3.0, true}, {0.5, 2.0, true}, {0.5, 0.5, false}};
  for (const auto& point : points) {
    const auto policy = MakeThompsonPromotionPolicy(point.a, point.b, 20.0, 1);
    Ranker ranker(policy);
    Rng rng(601);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const auto reference = count([&](std::vector<uint32_t>* prefix) {
      const std::vector<uint32_t> list = ranker.MaterializeList(rng);
      prefix->assign(list.begin(), list.begin() + static_cast<ptrdiff_t>(m));
    });

    ServeOptions opts;
    opts.seed = 602;
    ShardedRankServer server(policy, n, opts);
    server.Update(fx.popularity, fx.zero, fx.birth);
    ASSERT_EQ(server.view()->policy_state != nullptr, point.has_state);
    auto ctx = server.CreateContext();
    const auto with_state = count([&](std::vector<uint32_t>* prefix) {
      ASSERT_EQ(server.ServeTopM(ctx, m, prefix), m);
    });

    const RankView view = {ranker.deterministic_order().data(),
                           ranker.deterministic_scores().data(),
                           ranker.deterministic_order().size(),
                           ranker.pool().data(), ranker.pool().size()};
    PolicyScratch scratch;
    const auto without_state = count([&](std::vector<uint32_t>* prefix) {
      ASSERT_EQ(policy->ServePrefix(view, nullptr, scratch, m, rng, prefix),
                m);
    });

    const std::string what = policy->Label();
    ExpectChiSquaredAgreement(with_state[0], reference[0],
                              (what + " with state, head").c_str());
    ExpectChiSquaredAgreement(with_state[1], reference[1],
                              (what + " with state, past the head").c_str());
    ExpectChiSquaredAgreement(without_state[0], reference[0],
                              (what + " without state, head").c_str());
    ExpectChiSquaredAgreement(without_state[1], reference[1],
                              (what + " without state, tail").c_str());
  }
}

// --- Every family serves from the published view ------------------------

TEST(PolicyServingTest, EveryFamilyServesFullPermutations) {
  const size_t n = 120;
  Fixture fx(n, 24);
  for (const auto& policy : StandardPolicyFamilies()) {
    ShardedRankServer server(policy, n);
    EXPECT_EQ(server.view(), nullptr);  // nothing published yet
    ASSERT_TRUE(server.Update(fx.popularity, fx.zero, fx.birth));
    auto ctx = server.CreateContext();
    std::vector<uint32_t> out;
    ASSERT_EQ(server.ServeTopM(ctx, n, &out), n) << policy->Label();
    const std::set<uint32_t> seen(out.begin(), out.end());
    EXPECT_EQ(seen.size(), n) << policy->Label();
  }
}

TEST(PolicyServingTest, AllStandardFamiliesServeThroughBatchesAndWorkload) {
  const size_t n = 300;
  Fixture fx(n, 60);
  for (const auto& policy : StandardPolicyFamilies()) {
    ShardedRankServer server(policy, n);
    server.Update(fx.popularity, fx.zero, fx.birth);

    auto ctx = server.CreateContext();
    QueryBatch batch(12, 8);
    EXPECT_EQ(server.ServeBatch(ctx, &batch), 8u * 12u) << policy->Label();
    for (const auto& result : batch.results) {
      EXPECT_EQ(result.size(), 12u) << policy->Label();
    }

    WorkloadOptions wl;
    wl.threads = 2;
    wl.queries_per_thread = 200;
    wl.top_m = 10;
    wl.seed = 21;
    const WorkloadResult res = RunQueryWorkload(server, wl);
    EXPECT_EQ(res.queries, 400u) << policy->Label();
    EXPECT_EQ(res.visits, 400u) << policy->Label();
  }
}

// --- Explicit rejection by the simulation layers -------------------------

TEST(PolicySimRejectionTest, AgentSimulatorRejectsNonPromotionFamilies) {
  const CommunityParams params = CommunityParams::Default();
  EXPECT_THROW(AgentSimulator(params, MakePlackettLucePolicy(0.1)),
               std::invalid_argument);
  EXPECT_THROW(AgentSimulator(params, MakeEpsilonTailPolicy(0.1, 5)),
               std::invalid_argument);
  // The promotion family passes through the same constructor.
  SimOptions sim_opts;
  sim_opts.warmup_days = 1;
  sim_opts.measure_days = 1;
  sim_opts.ghost_count = 0;
  AgentSimulator sim(params,
                     MakePromotionPolicy(RankPromotionConfig::Recommended(1)),
                     sim_opts);
  sim.StepDay(false);
  EXPECT_EQ(sim.day(), 1u);
}

TEST(PolicySimRejectionTest, MeanFieldModelRejectsNonPromotionFamilies) {
  const CommunityParams params = CommunityParams::Default();
  EXPECT_THROW(MeanFieldModel(params, MakePlackettLucePolicy(0.1)),
               std::invalid_argument);
  EXPECT_THROW(MeanFieldModel(params, MakeEpsilonTailPolicy(0.1, 5)),
               std::invalid_argument);
  MeanFieldModel model(params,
                       MakePromotionPolicy(RankPromotionConfig::None()));
  (void)model;
}

}  // namespace
}  // namespace randrank
