#include "core/policy/policy_factory.h"

#include "core/policy/epsilon_tail_policy.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/thompson_promotion_policy.h"
#include "core/ranking_policy.h"

namespace randrank {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

std::string JoinPrefixes() {
  std::string joined;
  for (const std::string& prefix : KnownPolicyFamilyPrefixes()) {
    if (!joined.empty()) joined += ", ";
    joined += prefix;
  }
  return joined;
}

}  // namespace

const std::vector<std::string>& KnownPolicyFamilyPrefixes() {
  static const std::vector<std::string> kPrefixes = {
      "none",
      "uniform(r=...,k=...)",
      "selective(r=...,k=...)",
      "plackett-luce(T=...)",
      "eps-tail(eps=...,k=...)",
      "ts-promo(a=...,b=...,c=...,k=...)",
  };
  return kPrefixes;
}

std::shared_ptr<const StochasticRankingPolicy> MakePolicyFromLabel(
    const std::string& label, std::string* error) {
  // Each family's ParseLabel is syntax-only and strict (trailing garbage,
  // truncated labels and signed counts are rejected, so a mangled label never
  // silently maps to a policy whose Label() differs from the input); the
  // range check follows the parse so "known family, bad parameters" gets a
  // specific diagnostic instead of the generic unknown-family one.
  RankPromotionConfig config;
  if (RankPromotionConfig::ParseLabel(label, &config)) {
    return MakePromotionPolicy(config);
  }
  // RankPromotionConfig::ParseLabel folds its range check into the parse,
  // so a promotion-shaped label that failed it would otherwise fall through
  // to the self-contradictory unknown-family message below (which lists the
  // promotion prefixes as known).
  if (label.rfind("uniform(", 0) == 0 || label.rfind("selective(", 0) == 0) {
    SetError(error, "policy label \"" + label +
                        "\": promotion parameters malformed or out of range "
                        "(expect r in [0, 1] and an unsigned k >= 1)");
    return nullptr;
  }
  // Every other family: parse the syntax, then let the policy judge its own
  // parameters, so the range check lives in exactly one place (Valid()).
  std::shared_ptr<const StochasticRankingPolicy> policy;
  const char* ranges = nullptr;
  double temperature = 0.0;
  double epsilon = 0.0;
  double pool_a = 0.0;
  double pool_b = 0.0;
  double evidence = 0.0;
  size_t protect = 0;
  if (PlackettLucePolicy::ParseLabel(label, &temperature)) {
    policy = MakePlackettLucePolicy(temperature);
    ranges = "plackett-luce temperature must be finite and > 0";
  } else if (EpsilonTailPolicy::ParseLabel(label, &epsilon, &protect)) {
    policy = MakeEpsilonTailPolicy(epsilon, protect);
    ranges = "eps-tail epsilon must be in [0, 1]";
  } else if (ThompsonPromotionPolicy::ParseLabel(label, &pool_a, &pool_b,
                                                 &evidence, &protect)) {
    policy = MakeThompsonPromotionPolicy(pool_a, pool_b, evidence, protect);
    ranges = "ts-promo needs finite a > 0, b > 0, c >= 0";
  } else {
    SetError(error, "unknown policy label \"" + label +
                        "\"; known families: " + JoinPrefixes());
    return nullptr;
  }
  if (!policy->Valid()) {
    SetError(error, "policy label \"" + label + "\": " + ranges);
    return nullptr;
  }
  return policy;
}

std::vector<std::shared_ptr<const StochasticRankingPolicy>>
StandardPolicyFamilies() {
  return {
      MakePromotionPolicy(RankPromotionConfig::Recommended(2)),
      MakePlackettLucePolicy(0.05),
      MakeEpsilonTailPolicy(0.1, 10),
      // Beta(1, 3) pool prior (mean 0.25) against c = 20 pseudo-observations
      // per head: top-ranked heads (~mean 0.95) almost never lose the duel,
      // deep-tail heads (~0.05) lose often — rank-adaptive promotion.
      MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1),
  };
}

}  // namespace randrank
