#include "core/policy/thompson_promotion_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rank_merge.h"
#include "util/distributions.h"

namespace randrank {

namespace {

/// Marsaglia–Tsang squeeze sampler for Gamma(alpha, 1); the alpha < 1 case
/// boosts through Gamma(alpha + 1) * U^(1/alpha).
double SampleGamma(double alpha, Rng& rng) {
  assert(alpha > 0.0);
  double boost = 1.0;
  if (alpha < 1.0) {
    const double u = rng.NextDouble();
    boost = std::pow(u > 0.0 ? u : 1e-300, 1.0 / alpha);
    alpha += 1.0;
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = rng.NextGaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return boost * d * v;
    }
  }
}

double SampleBeta(double a, double b, Rng& rng) {
  const double x = SampleGamma(a, rng);
  const double y = SampleGamma(b, rng);
  const double total = x + y;
  return total > 0.0 ? x / total : 0.5;
}

/// Normalized evidence score of a deterministic head: its rank score over
/// the view's maximum, clamped to [0, 1] (degenerate all-zero scores give a
/// neutral 1/2).
double NormalizedScore(double score, double max_score) {
  if (!(max_score > 0.0)) return 0.5;
  return std::clamp(score / max_score, 0.0, 1.0);
}

/// Per-epoch state: p for the first det positions of the view it was
/// built from, each computed in closed form.
class ThompsonPromoEpochState final : public PolicyEpochState {
 public:
  std::vector<double> head;

  /// Sized to the view, finite, in [0, 1] and non-decreasing down the det
  /// list (scores fall, so does the head's evidence). The slack admits a
  /// rounding dip between two near-equal scores, far below any real
  /// inversion.
  std::string Check(const RankView& view) const override {
    const size_t expected =
        std::min(ThompsonPromotionPolicy::kHeadPositions, view.det_size);
    if (head.size() != expected) {
      return "ts-promo head holds " + std::to_string(head.size()) +
             " positions, expected " + std::to_string(expected);
    }
    for (size_t i = 0; i < head.size(); ++i) {
      if (!(head[i] >= 0.0 && head[i] <= 1.0)) {
        return "ts-promo p at det position " + std::to_string(i) +
               " is not a probability";
      }
      if (i > 0 && head[i] < head[i - 1] - 1e-9) {
        return "ts-promo p falls at det position " + std::to_string(i);
      }
    }
    return "";
  }
};

}  // namespace

std::optional<double> ThompsonPromotionPolicy::PoolOdds(double s) const {
  return BetaDuelWinProbability(a_, b_, 1.0 + evidence_ * s,
                                1.0 + evidence_ * (1.0 - s));
}

bool ThompsonPromotionPolicy::PoolWinsDuel(double s, Rng& rng) const {
  const double theta_det =
      SampleBeta(1.0 + evidence_ * s, 1.0 + evidence_ * (1.0 - s), rng);
  const double theta_pool = SampleBeta(a_, b_, rng);
  return theta_pool > theta_det;
}

std::string ThompsonPromotionPolicy::Label() const {
  return FormatLabel("ts-promo(a=%.2f,b=%.2f,c=%.1f,k=%zu)", a_, b_, evidence_,
                     protect_);
}

bool ThompsonPromotionPolicy::ParseLabel(const std::string& label, double* a,
                                         double* b, double* evidence,
                                         size_t* protect) {
  double pa = 0.0;
  double pb = 0.0;
  double pc = 0.0;
  uint64_t k = 0;
  int k_at = 0;
  if (std::sscanf(label.c_str(), "ts-promo(a=%lf,b=%lf,c=%lf,k=%n", &pa, &pb,
                  &pc, &k_at) != 3 ||
      k_at == 0 || !ParseLabelCount(label, static_cast<size_t>(k_at), &k)) {
    return false;
  }
  *a = pa;
  *b = pb;
  *evidence = pc;
  *protect = k;
  return true;
}

std::shared_ptr<const PolicyEpochState>
ThompsonPromotionPolicy::BuildEpochState(const RankView& view) const {
  assert(view.det_size == 0 || view.det_score != nullptr);
  auto state = std::make_shared<ThompsonPromoEpochState>();
  const size_t head = std::min(kHeadPositions, view.det_size);
  state->head.reserve(head);
  const double max_score = view.det_size > 0 ? view.det_score[0] : 0.0;
  for (size_t i = 0; i < head; ++i) {
    const std::optional<double> p =
        PoolOdds(NormalizedScore(view.det_score[i], max_score));
    if (!p.has_value()) return nullptr;  // no closed form for this prior
    state->head.push_back(*p);
  }
  return state;
}

size_t ThompsonPromotionPolicy::ServePrefix(const RankView& view,
                                            const PolicyEpochState* epoch_state,
                                            PolicyScratch& scratch, size_t m,
                                            Rng& rng,
                                            std::vector<uint32_t>* out) const {
  assert(view.det_size == 0 || view.det_score != nullptr);
  scratch.pool_sampler.Reset(view.pool, view.pool_size);
  std::span<const double> head;
  if (epoch_state != nullptr) {
    head = static_cast<const ThompsonPromoEpochState*>(epoch_state)->head;
  }
  // The duel normalizes head scores by the maximum, the first entry of the
  // descending det list.
  const double max_score = view.det_size > 0 ? view.det_score[0] : 0.0;
  const auto coin = [&](size_t d, Rng& coin_rng) {
    return d < head.size()
               ? coin_rng.NextBernoulli(head[d])
               : PoolWinsDuel(NormalizedScore(view.det_score[d], max_score),
                              coin_rng);
  };
  return MergePrefix(view.det, view.det_size, protect_, scratch.pool_sampler,
                     m, coin, rng, out);
}

std::vector<uint32_t> ThompsonPromotionPolicy::MaterializeReference(
    const RankView& view, Rng& rng) const {
  // Naive slot-by-slot realization over explicit remaining lists; the
  // independent reference the distribution-equivalence tests compare
  // ServePrefix against. Same duel, different plumbing: the pool is an
  // explicit swap-pop vector instead of a lazy sampler.
  std::vector<uint32_t> pool(view.pool, view.pool + view.pool_size);
  std::vector<uint32_t> out;
  out.reserve(view.n());
  const double max_score =
      view.det_size > 0 && view.det_score != nullptr ? view.det_score[0]
                                                         : 0.0;
  size_t det_cursor = 0;
  while (out.size() < view.n()) {
    bool from_pool;
    const size_t det_remaining = view.det_size - det_cursor;
    if (out.size() < protect_ && det_remaining > 0) {
      from_pool = false;
    } else if (det_remaining == 0) {
      from_pool = true;
    } else if (pool.empty()) {
      from_pool = false;
    } else {
      assert(view.det_score != nullptr);
      from_pool = PoolWinsDuel(
          NormalizedScore(view.det_score[det_cursor], max_score), rng);
    }
    if (from_pool) {
      const size_t pick = static_cast<size_t>(rng.NextIndex(pool.size()));
      out.push_back(pool[pick]);
      pool[pick] = pool.back();
      pool.pop_back();
    } else {
      out.push_back(view.det[det_cursor++]);
    }
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakeThompsonPromotionPolicy(
    double a, double b, double evidence, size_t protect) {
  return std::make_shared<ThompsonPromotionPolicy>(a, b, evidence, protect);
}

}  // namespace randrank
