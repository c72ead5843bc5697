#ifndef RANDRANK_CORE_RANK_MERGE_H_
#define RANDRANK_CORE_RANK_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "core/pool_prefix_sampler.h"
#include "core/ranking_policy.h"
#include "util/rng.h"

namespace randrank {

/// The global deterministic ranking key (Appendix A): popularity descending,
/// ties by age (older, i.e. smaller birth step, first), then by page id.
/// Every sorted deterministic list in the system — Ranker::Update and the
/// server's epoch build — must order by exactly this predicate, or serving
/// silently stops matching the simulated distribution. Keep it in one place.
inline bool RankOrderBefore(double score_a, int64_t birth_a, uint32_t page_a,
                            double score_b, int64_t birth_b, uint32_t page_b) {
  if (score_a != score_b) return score_a > score_b;
  if (birth_a != birth_b) return birth_a < birth_b;
  return page_a < page_b;
}

/// The promotion-pool membership decision (paper Section 4): whether a page
/// with the given zero-awareness flag enters Pp under `config`. Like
/// RankOrderBefore, this is the single source of truth — Ranker::Update, the
/// server's epoch build, and the simulator's ghost placement must all agree
/// or serving silently diverges from the simulated distribution. Draws
/// from `rng` only under the uniform rule.
inline bool PromoteToPool(const RankPromotionConfig& config,
                          bool zero_awareness, Rng& rng) {
  switch (config.rule) {
    case PromotionRule::kNone:
      return false;
    case PromotionRule::kUniform:
      return rng.NextBernoulli(config.r);
    case PromotionRule::kSelective:
      return zero_awareness;
  }
  return false;
}

/// One slot of the merge cascade (Section 4): whether the next result-list
/// position is filled from the shuffled pool (true) or the deterministic
/// list (false), given how many entries each side still has. The biased coin
/// is only tossed while both sides are non-empty. Third piece of the
/// single-source-of-truth set (with RankOrderBefore and PromoteToPool):
/// every materialization/lazy merge must consult this helper, and
/// MergePrefix applies the same rule with its per-slot coin in place of
/// Bernoulli(r).
inline bool NextSlotFromPool(double r, size_t det_remaining,
                             size_t pool_remaining, Rng& rng) {
  if (pool_remaining == 0) return false;
  if (det_remaining == 0) return true;
  return rng.NextBernoulli(r);
}

/// Appends the first min(m, det_size + sampler.remaining()) slots of a
/// fresh random realization of the merged list to `out` and returns how many
/// were appended: the first min(protected_count, det_size) entries of `det`
/// (an already merged deterministic order, best first), then the randomized
/// tail spliced in with a caller-owned sampler over the pool. Each slot
/// while both sides remain tosses `coin(d, rng)`, true to fill it from the
/// pool, where d is the det position the slot would otherwise take: the
/// promotion family tosses Bernoulli(r), ts-promo its per-rank duel. A side
/// that is empty decides the slot without a toss, as in NextSlotFromPool.
/// Identical in distribution to the slot-by-slot cascade of
/// MaterializeList, but costs O(m + k) expected time instead of O(n). This
/// is the serve-path primitive of both families.
///
/// `sampler` must be Reset() over the pool before each call; it is consumed
/// by the draws this call makes. While neither side can run dry within the
/// remaining slots the per-slot coins are tossed in chunks (one tight loop
/// over the generator, tracking the det position each coin belongs to),
/// which vectorizes the common case of a small m against a large corpus;
/// the coin outcomes and pool draws stay independent, so the realization
/// distribution is exactly that of the cascade.
template <typename Coin>
size_t MergePrefix(const uint32_t* det, size_t det_size,
                   size_t protected_count, PoolPrefixSampler& sampler,
                   size_t m, const Coin& coin, Rng& rng,
                   std::vector<uint32_t>* out) {
  const size_t count = std::min(m, det_size + sampler.remaining());
  const size_t protected_prefix = std::min(protected_count, det_size);
  size_t d = 0;
  size_t appended = 0;
  while (appended < count && d < protected_prefix) {
    out->push_back(det[d++]);
    ++appended;
  }
  constexpr size_t kCoinChunk = 64;
  bool coins[kCoinChunk];
  while (appended < count) {
    const size_t left = count - appended;
    if (det_size - d >= left && sampler.remaining() >= left) {
      const size_t chunk = std::min(left, kCoinChunk);
      for (size_t i = 0, at = d; i < chunk; ++i) {
        coins[i] = coin(at, rng);
        at += coins[i] ? 0 : 1;
      }
      for (size_t i = 0; i < chunk; ++i) {
        out->push_back(coins[i] ? sampler.Next(rng) : det[d++]);
      }
      appended += chunk;
    } else {
      const bool from_pool = sampler.remaining() > 0 &&
                             (d == det_size || coin(d, rng));
      out->push_back(from_pool ? sampler.Next(rng) : det[d++]);
      ++appended;
    }
  }
  return count;
}

/// Resolves the page occupying `rank` (1-based) in an independent random
/// realization of (det, pool) merged under `config`, in O(rank) time.
/// Backs Ranker::PageAtRank for the promotion family.
uint32_t ResolveRankLazy(const RankPromotionConfig& config,
                         const std::vector<uint32_t>& det,
                         const std::vector<uint32_t>& pool, size_t rank,
                         Rng& rng);

/// Executes the ranking pipeline for one time step under any
/// StochasticRankingPolicy (the paper's Section 4 pipeline is the promotion
/// family):
///
///  1. Split pages into the stochastic pool Pp (per the policy's
///     PoolMembership hook) and the rest, which forms the deterministic
///     list Ld sorted by descending popularity (ties broken by age, older
///     first, as in Appendix A). Scores are kept alongside for weighted
///     families.
///  2. Produce result lists: either a full materialized permutation, or a
///     prefix/per-rank realization through the policy's ServePrefix hook.
///
/// For the promotion family the lazy path exploits two facts: positions are
/// filled left-to-right by independent biased coins, and the s-th element of
/// a uniformly shuffled pool is marginally uniform over the pool.
/// Rank-biased visits concentrate on small j (E[j] ~ 0.77*sqrt(n)), so
/// resolving one visit is far cheaper than materializing all n slots.
/// Families without that structure (Capabilities().lazy_prefix clear) fall
/// back to a length-j prefix realization per visit.
class Ranker {
 public:
  explicit Ranker(std::shared_ptr<const StochasticRankingPolicy> policy);

  /// Recomputes pool membership and the deterministic order from current
  /// page state. `popularity[p]` in [0,1]; `zero_awareness[p]` nonzero when
  /// no monitored user has visited p; `birth_step[p]` breaks popularity ties
  /// (smaller = older = ranked better). The uniform rule re-samples pool
  /// membership on every call. Also rebuilds the policy's per-epoch state
  /// (BuildEpochState over the fresh view — e.g. Plackett-Luce's
  /// alias table), which TopM/PageAtRank then reuse on every realization.
  void Update(const std::vector<double>& popularity,
              const std::vector<uint8_t>& zero_awareness,
              const std::vector<int64_t>& birth_step, Rng& rng);

  /// One realization of the merged result list: a permutation of all pages,
  /// best rank first.
  std::vector<uint32_t> MaterializeList(Rng& rng) const;

  /// Like MaterializeList, but also reports where each deterministic-list
  /// index and each pool slot landed: `det_positions[j]` is the 0-based list
  /// position of deterministic_order()[j]; `pool_positions[s]` the position
  /// of the s-th slot of the shuffled pool. Used by the simulator to place
  /// probe ("ghost") pages into a realized list without rebuilding it.
  /// Promotion family only (the positions describe the two-list cascade).
  std::vector<uint32_t> MaterializeWithPositions(
      Rng& rng, std::vector<uint32_t>* det_positions,
      std::vector<uint32_t>* pool_positions) const;

  /// Resolves the page occupying `rank` (1-based) in an independent random
  /// realization of the merged list, without building the list. O(rank) for
  /// the promotion family; other families realize a length-`rank` prefix.
  uint32_t PageAtRank(size_t rank, Rng& rng) const;

  /// First min(m, n()) slots of an independent random realization, via the
  /// policy's ServePrefix. Marginals match MaterializeList; O(m) expected
  /// when the policy declares Capabilities().lazy_prefix.
  std::vector<uint32_t> TopM(size_t m, Rng& rng) const;

  /// Deterministically ranked pages (Ld), best first.
  const std::vector<uint32_t>& deterministic_order() const { return det_; }
  /// Ranking scores of deterministic_order(), kept for weighted families.
  const std::vector<double>& deterministic_scores() const {
    return det_score_;
  }
  /// Stochastic pool Pp (unshuffled; empty for pool-less families).
  const std::vector<uint32_t>& pool() const { return pool_; }
  const StochasticRankingPolicy& policy() const { return *policy_; }
  /// Promotion-family configuration; must only be called when the policy is
  /// the promotion family (see StochasticRankingPolicy::AsPromotion).
  const RankPromotionConfig& config() const;
  size_t n() const { return det_.size() + pool_.size(); }

 private:
  /// The complete corpus as one view (borrowing this ranker's arrays; valid
  /// until the next Update).
  RankView View() const;

  std::shared_ptr<const StochasticRankingPolicy> policy_;
  std::vector<uint32_t> det_;
  // Scores are kept so weighted families can read them through View().
  std::vector<double> det_score_;
  std::vector<uint32_t> pool_;
  // Policy-owned per-epoch state over View(), rebuilt by Update and
  // handed to every ServePrefix; null for stateless families.
  std::shared_ptr<const PolicyEpochState> epoch_state_;
};

}  // namespace randrank

#endif  // RANDRANK_CORE_RANK_MERGE_H_
