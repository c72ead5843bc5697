#include "core/policy/promotion_policy.h"

#include <algorithm>
#include <cassert>

#include "core/rank_merge.h"

namespace randrank {

bool PromotionPolicy::PoolMembership(bool zero_awareness, Rng& rng) const {
  return PromoteToPool(config_, zero_awareness, rng);
}

bool PromotionPolicy::NextSlot(size_t det_remaining, size_t pool_remaining,
                               Rng& rng) const {
  return NextSlotFromPool(config_.r, det_remaining, pool_remaining, rng);
}

size_t PromotionPolicy::ServePrefix(const ShardView* views, size_t num_views,
                                    const PolicyEpochState* epoch_state,
                                    PolicyScratch& scratch, size_t m, Rng& rng,
                                    std::vector<uint32_t>* out) const {
  (void)epoch_state;  // stateless: the merged view carries everything
  if (num_views == 1) {
    // Pre-merged global view (the cached serve path and the Ranker): the
    // protected-prefix copy plus the O(m) randomized splice.
    scratch.pool_sampler.Reset(views[0].pool, views[0].pool_size);
    return MergePrefixCached(config_, views[0].det, views[0].det_size,
                             scratch.pool_sampler, m, rng, out);
  }
  return ServeSharded(views, num_views, scratch, m, rng, out);
}

size_t PromotionPolicy::ServeSharded(const ShardView* views, size_t num_views,
                                     PolicyScratch& scratch, size_t m, Rng& rng,
                                     std::vector<uint32_t>* out) const {
  scratch.cursors.resize(num_views);
  scratch.samplers.resize(num_views);
  size_t det_remaining = 0;
  size_t pool_remaining = 0;
  for (size_t v = 0; v < num_views; ++v) {
    scratch.cursors[v] = 0;
    scratch.samplers[v].Reset(views[v].pool, views[v].pool_size);
    det_remaining += views[v].det_size;
    pool_remaining += views[v].pool_size;
  }

  const size_t count = std::min(m, det_remaining + pool_remaining);
  const size_t base = out->size();

  // Next element of the global deterministic order: the best head among the
  // views' sorted lists under the global key (BestViewHead). Linear scan
  // over V; the view count is small on purpose.
  auto next_det = [&]() -> uint32_t {
    const size_t best = BestViewHead(views, scratch.cursors.data(), num_views);
    assert(best < num_views);
    --det_remaining;
    return views[best].det[scratch.cursors[best]++];
  };

  const size_t protected_prefix = std::min(config_.k - 1, det_remaining);
  while (out->size() - base < count && out->size() - base < protected_prefix) {
    out->push_back(next_det());
  }
  while (out->size() - base < count) {
    if (NextSlotFromPool(config_.r, det_remaining, pool_remaining, rng)) {
      // Uniform draw from the remaining global pool: pick a shard weighted
      // by its remaining pool mass, then draw without replacement inside it.
      uint64_t t = rng.NextIndex(pool_remaining);
      size_t v = 0;
      while (t >= scratch.samplers[v].remaining()) {
        t -= scratch.samplers[v].remaining();
        ++v;
      }
      out->push_back(scratch.samplers[v].Next(rng));
      --pool_remaining;
    } else {
      out->push_back(next_det());
    }
  }
  return count;
}

std::vector<uint32_t> PromotionPolicy::MaterializeReference(
    const ShardView& global, Rng& rng) const {
  // The slot-by-slot cascade of Ranker::MaterializeList: explicit
  // Fisher-Yates shuffle of the pool, then biased-coin interleave.
  std::vector<uint32_t> pool(global.pool, global.pool + global.pool_size);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextIndex(i)]);
  }
  std::vector<uint32_t> out;
  out.reserve(global.n());
  const size_t protected_prefix =
      std::min(config_.k - 1, global.det_size);
  size_t d = 0;
  size_t s = 0;
  while (d < protected_prefix) out.push_back(global.det[d++]);
  while (d < global.det_size || s < pool.size()) {
    const bool from_pool = NextSlotFromPool(config_.r, global.det_size - d,
                                            pool.size() - s, rng);
    out.push_back(from_pool ? pool[s++] : global.det[d++]);
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakePromotionPolicy(
    const RankPromotionConfig& config) {
  return std::make_shared<PromotionPolicy>(config);
}

}  // namespace randrank
