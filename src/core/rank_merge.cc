#include "core/rank_merge.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace randrank {

uint32_t ResolveRankLazy(const RankPromotionConfig& config,
                         const std::vector<uint32_t>& det,
                         const std::vector<uint32_t>& pool, size_t rank,
                         Rng& rng) {
  assert(rank >= 1 && rank <= det.size() + pool.size());
  const size_t protected_prefix = std::min(config.k - 1, det.size());
  if (rank <= protected_prefix) return det[rank - 1];
  if (pool.empty()) return det[rank - 1];

  size_t d = protected_prefix;  // det entries consumed
  size_t s = 0;                 // pool entries consumed
  for (size_t pos = protected_prefix + 1; pos <= rank; ++pos) {
    const bool from_pool =
        NextSlotFromPool(config.r, det.size() - d, pool.size() - s, rng);
    if (pos == rank) {
      // The s-th element of a uniformly shuffled pool is marginally uniform
      // over the pool, so a single-slot resolution may draw uniformly.
      return from_pool ? pool[rng.NextIndex(pool.size())] : det[d];
    }
    from_pool ? ++s : ++d;
  }
  assert(false && "unreachable");
  return 0;
}

Ranker::Ranker(std::shared_ptr<const StochasticRankingPolicy> policy)
    : policy_(std::move(policy)) {
  assert(policy_ != nullptr);
  assert(policy_->Valid());
}

const RankPromotionConfig& Ranker::config() const {
  const RankPromotionConfig* config = policy_->AsPromotion();
  assert(config != nullptr && "config() is promotion-family-only");
  return *config;
}

RankView Ranker::View() const {
  return {det_.data(), det_score_.data(), det_.size(), pool_.data(),
          pool_.size()};
}

void Ranker::Update(const std::vector<double>& popularity,
                    const std::vector<uint8_t>& zero_awareness,
                    const std::vector<int64_t>& birth_step, Rng& rng) {
  const size_t n = popularity.size();
  assert(zero_awareness.size() == n);
  assert(birth_step.size() == n);

  det_.clear();
  pool_.clear();
  det_.reserve(n);
  for (uint32_t p = 0; p < n; ++p) {
    (policy_->PoolMembership(zero_awareness[p] != 0, rng) ? pool_ : det_)
        .push_back(p);
  }

  std::sort(det_.begin(), det_.end(), [&](uint32_t a, uint32_t b) {
    return RankOrderBefore(popularity[a], birth_step[a], a, popularity[b],
                           birth_step[b], b);
  });
  det_score_.clear();
  det_score_.reserve(det_.size());
  for (const uint32_t p : det_) det_score_.push_back(popularity[p]);
  // Per-epoch policy state (no Rng by contract, so promotion-family bit
  // compatibility with pre-policy seeds is unaffected).
  epoch_state_ = policy_->BuildEpochState(View());
}

std::vector<uint32_t> Ranker::MaterializeList(Rng& rng) const {
  if (policy_->AsPromotion() != nullptr) {
    return MaterializeWithPositions(rng, nullptr, nullptr);
  }
  return policy_->MaterializeReference(View(), rng);
}

std::vector<uint32_t> Ranker::MaterializeWithPositions(
    Rng& rng, std::vector<uint32_t>* det_positions,
    std::vector<uint32_t>* pool_positions) const {
  const RankPromotionConfig& config = this->config();
  std::vector<uint32_t> shuffled_pool = pool_;
  for (size_t i = shuffled_pool.size(); i > 1; --i) {
    std::swap(shuffled_pool[i - 1], shuffled_pool[rng.NextIndex(i)]);
  }
  if (det_positions) det_positions->resize(det_.size());
  if (pool_positions) pool_positions->resize(pool_.size());

  std::vector<uint32_t> out;
  out.reserve(n());
  const size_t protected_prefix = std::min(config.k - 1, det_.size());
  size_t d = 0;
  size_t s = 0;
  auto place = [&](bool from_pool) {
    const auto pos = static_cast<uint32_t>(out.size());
    if (from_pool) {
      if (pool_positions) (*pool_positions)[s] = pos;
      out.push_back(shuffled_pool[s++]);
    } else {
      if (det_positions) (*det_positions)[d] = pos;
      out.push_back(det_[d++]);
    }
  };
  while (d < protected_prefix) place(false);
  while (d < det_.size() || s < shuffled_pool.size()) {
    place(NextSlotFromPool(config.r, det_.size() - d,
                           shuffled_pool.size() - s, rng));
  }
  return out;
}

uint32_t Ranker::PageAtRank(size_t rank, Rng& rng) const {
  const RankPromotionConfig* config = policy_->AsPromotion();
  if (config != nullptr) {
    return ResolveRankLazy(*config, det_, pool_, rank, rng);
  }
  // Generic fallback: the marginal of rank j in a length-j prefix
  // realization equals the full-list marginal.
  const std::vector<uint32_t> prefix = TopM(rank, rng);
  assert(prefix.size() == rank);
  return prefix.back();
}

std::vector<uint32_t> Ranker::TopM(size_t m, Rng& rng) const {
  std::vector<uint32_t> out;
  out.reserve(std::min(m, n()));
  PolicyScratch scratch;
  policy_->ServePrefix(View(), epoch_state_.get(), scratch, m, rng, &out);
  return out;
}

}  // namespace randrank
