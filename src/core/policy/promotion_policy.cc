#include "core/policy/promotion_policy.h"

#include <algorithm>

#include "core/rank_merge.h"

namespace randrank {

bool PromotionPolicy::PoolMembership(bool zero_awareness, Rng& rng) const {
  return PromoteToPool(config_, zero_awareness, rng);
}

size_t PromotionPolicy::ServePrefix(const RankView& view,
                                    const PolicyEpochState* epoch_state,
                                    PolicyScratch& scratch, size_t m, Rng& rng,
                                    std::vector<uint32_t>* out) const {
  (void)epoch_state;  // stateless: the view carries everything
  // The protected-prefix copy plus the O(m) randomized splice.
  scratch.pool_sampler.Reset(view.pool, view.pool_size);
  const double r = config_.r;
  return MergePrefix(
      view.det, view.det_size, config_.k - 1, scratch.pool_sampler, m,
      [r](size_t, Rng& coin_rng) { return coin_rng.NextBernoulli(r); }, rng,
      out);
}

std::vector<uint32_t> PromotionPolicy::MaterializeReference(
    const RankView& view, Rng& rng) const {
  // The slot-by-slot cascade of Ranker::MaterializeList: explicit
  // Fisher-Yates shuffle of the pool, then biased-coin interleave.
  std::vector<uint32_t> pool(view.pool, view.pool + view.pool_size);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextIndex(i)]);
  }
  std::vector<uint32_t> out;
  out.reserve(view.n());
  const size_t protected_prefix = std::min(config_.k - 1, view.det_size);
  size_t d = 0;
  size_t s = 0;
  while (d < protected_prefix) out.push_back(view.det[d++]);
  while (d < view.det_size || s < pool.size()) {
    const bool from_pool = NextSlotFromPool(config_.r, view.det_size - d,
                                            pool.size() - s, rng);
    out.push_back(from_pool ? pool[s++] : view.det[d++]);
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakePromotionPolicy(
    const RankPromotionConfig& config) {
  return std::make_shared<PromotionPolicy>(config);
}

}  // namespace randrank
