#ifndef RANDRANK_CORE_POLICY_THOMPSON_PROMOTION_POLICY_H_
#define RANDRANK_CORE_POLICY_THOMPSON_PROMOTION_POLICY_H_

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "core/policy/stochastic_ranking_policy.h"

namespace randrank {

/// Thompson-sampling promotion: the pool/list partition of the paper's
/// selective rule (undiscovered pages form the stochastic pool) with the
/// fixed promotion coin replaced by a per-slot Bayesian duel. Each contested
/// slot draws
///
///   theta_pool ~ Beta(a, b)                         (the pool prior —
///     every pool page is zero-awareness, so they share one belief)
///   theta_det  ~ Beta(1 + c*s, 1 + c*(1 - s))       (the deterministic
///     head's posterior: its normalized rank score s in [0, 1] acts as c
///     pseudo-observations of quality)
///
/// and fills the slot from the pool iff theta_pool > theta_det. High-scoring
/// heads almost always beat the prior, so the top of the list stays
/// deterministic; deep in the tail the duel flips often and undiscovered
/// pages are promoted — the promotion *rate adapts to the strength of the
/// evidence at each rank* instead of being one global r. The top `protect`
/// slots never duel (the paper's protected prefix).
///
/// Slots draw independently, so the duel is exactly a Bernoulli(p(s)) coin
/// with p(s) = P(Beta(a, b) > Beta(1 + c*s, 1 + c*(1 - s))), which falls as
/// s rises. That is the paper's promotion splice with the constant r
/// replaced by a per-rank coin: ServePrefix serves through MergePrefix.
/// When p has a closed form (BetaDuelWinProbability: an integer a or b, or
/// a point-mass limit) BuildEpochState computes it once per epoch for the
/// first kHeadPositions det positions — p depends on the view only through
/// det_score[i] / det_score[0] — and those slots toss one Bernoulli(p).
/// Deeper slots, calls without a state, and priors without a closed form
/// (no state is built) toss the literal Gamma/Beta duel, the same law at
/// the same cost as before the coin. MaterializeReference draws the duel
/// slot by slot as the independent reference.
///
/// Structurally different from the promotion family (rank-dependent rather
/// than constant promotion odds) and from epsilon-tail (explores a curated
/// zero-awareness pool, not the whole tail) — which is exactly what the
/// best-arm-identification example needs to discriminate.
class ThompsonPromotionPolicy final : public StochasticRankingPolicy {
 public:
  ThompsonPromotionPolicy(double a, double b, double evidence, size_t protect)
      : a_(a), b_(b), evidence_(evidence), protect_(protect) {}

  std::string Label() const override;
  PolicyCapabilities Capabilities() const override {
    return {.lazy_prefix = true, .agent_sim = false, .mean_field = false};
  }
  bool Valid() const override {
    return a_ > 0.0 && b_ > 0.0 && evidence_ >= 0.0 && std::isfinite(a_) &&
           std::isfinite(b_) && std::isfinite(evidence_);
  }

  /// Selective partition: zero-awareness pages form the pool.
  bool PoolMembership(bool zero_awareness, Rng& rng) const override {
    (void)rng;
    return zero_awareness;
  }

  /// Det positions whose duel-win probability the epoch state holds; a
  /// top-m query with m well below this tosses no literal duel.
  static constexpr size_t kHeadPositions = 64;

  /// The duel-win probabilities p of the first min(kHeadPositions, det
  /// size) det positions, or null when the prior has no closed form. No
  /// randomness; at most 256 log-space terms per position.
  std::shared_ptr<const PolicyEpochState> BuildEpochState(
      const RankView& view) const override;

  size_t ServePrefix(const RankView& view, const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override;

  std::vector<uint32_t> MaterializeReference(const RankView& view,
                                             Rng& rng) const override;

  /// Inverse of Label(): parses "ts-promo(a=F,b=F,c=F,k=N)" into the out
  /// params and returns true; false (leaving them untouched) on any other
  /// string, including a signed k. Syntactic only — the caller range-checks
  /// via Valid().
  static bool ParseLabel(const std::string& label, double* a, double* b,
                         double* evidence, size_t* protect);

  double a() const { return a_; }
  double b() const { return b_; }
  double evidence() const { return evidence_; }
  size_t protect() const { return protect_; }

 private:
  /// The chance that a contested slot goes to the pool when the det head
  /// it duels has normalized score s: P(Beta(a, b) > Beta(1 + c*s,
  /// 1 + c*(1 - s))), exact, in [0, 1]; nullopt without a closed form.
  std::optional<double> PoolOdds(double s) const;
  /// The literal duel at normalized head score s: true when the pool's
  /// Beta(a, b) draw beats the head's posterior draw.
  bool PoolWinsDuel(double s, Rng& rng) const;

  /// Pool prior Beta(a, b).
  double a_;
  double b_;
  /// Pseudo-observation count c backing each deterministic head's score.
  double evidence_;
  /// Leading slots that never duel.
  size_t protect_;
};

std::shared_ptr<const StochasticRankingPolicy> MakeThompsonPromotionPolicy(
    double a, double b, double evidence, size_t protect);

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_THOMPSON_PROMOTION_POLICY_H_
