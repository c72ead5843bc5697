#include "serve/serving_view.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "core/rank_merge.h"

namespace randrank {

std::string CheckEpochInvariants(const ServingView& view,
                                 const std::vector<uint8_t>& zero_awareness,
                                 const std::vector<int64_t>& birth_step) {
  const size_t n = zero_awareness.size();
  if (view.n() != n || birth_step.size() != n ||
      view.det_score.size() != view.det.size()) {
    return "view holds " + std::to_string(view.n()) + " pages, inputs " +
           std::to_string(n);
  }
  // Membership is checkable only where the policy draws no randomness: a
  // call that leaves the Rng where it was is the policy's fixed answer.
  int expected_pool[2] = {-1, -1};
  for (const bool zero : {false, true}) {
    Rng probe(zero ? 2 : 1);
    Rng untouched = probe;
    const bool member = view.policy->PoolMembership(zero, probe);
    if (probe() == untouched()) expected_pool[zero] = member ? 1 : 0;
  }
  std::vector<uint8_t> seen(n, 0);
  const auto place = [&](uint32_t page, int in_pool) -> std::string {
    if (page >= n || seen[page] != 0) {
      return "page " + std::to_string(page) + " is out of range or repeated";
    }
    seen[page] = 1;
    const int expected = expected_pool[zero_awareness[page] != 0];
    if (expected >= 0 && expected != in_pool) {
      return "page " + std::to_string(page) + " is on the wrong list";
    }
    return "";
  };
  for (size_t i = 0; i < view.det.size(); ++i) {
    const uint32_t page = view.det[i];
    if (std::string error = place(page, 0); !error.empty()) return error;
    if (i > 0) {
      const uint32_t before = view.det[i - 1];
      if (!RankOrderBefore(view.det_score[i - 1], birth_step[before], before,
                           view.det_score[i], birth_step[page], page)) {
        return "det is out of order at rank " + std::to_string(i);
      }
    }
  }
  for (const uint32_t page : view.pool) {
    if (std::string error = place(page, 1); !error.empty()) return error;
  }
  return "";
}

EpochBuilder::EpochBuilder(size_t num_pages)
    : n_(num_pages),
      committed_popularity_(num_pages, 0.0),
      committed_birth_(num_pages, 0),
      committed_pool_(num_pages, 2),
      changed_bits_((num_pages + 63) / 64, 0) {}

size_t EpochBuilder::Diff(const StochasticRankingPolicy& policy,
                          const std::vector<double>& popularity,
                          const std::vector<uint8_t>& zero_awareness,
                          const std::vector<int64_t>& birth_step, Rng& rng) {
  if (popularity.size() != n_ || zero_awareness.size() != n_ ||
      birth_step.size() != n_) {
    throw std::invalid_argument(
        "input sizes " + std::to_string(popularity.size()) + "/" +
        std::to_string(zero_awareness.size()) + "/" +
        std::to_string(birth_step.size()) + " (popularity/zero/birth) != n " +
        std::to_string(n_));
  }
  std::fill(changed_bits_.begin(), changed_bits_.end(), 0);
  det_delta_.clear();
  pool_delta_.clear();
  for (uint32_t p = 0; p < n_; ++p) {
    const double score = popularity[p];
    // One comparison pair rejects NaN, infinities and negatives alike: NaN
    // would break RankOrderBefore's strict weak order (UB in std::sort).
    if (!(score >= 0.0 && score <= std::numeric_limits<double>::max())) {
      throw std::invalid_argument("popularity[" + std::to_string(p) + "] = " +
                                  std::to_string(score) +
                                  " is not finite and >= 0");
    }
    const uint8_t in_pool =
        policy.PoolMembership(zero_awareness[p] != 0, rng) ? 1 : 0;
    // Scores compare by bit pattern, so -0.0 replacing 0.0 republishes it.
    if (std::bit_cast<uint64_t>(score) ==
            std::bit_cast<uint64_t>(committed_popularity_[p]) &&
        birth_step[p] == committed_birth_[p] && in_pool == committed_pool_[p]) {
      continue;
    }
    changed_bits_[p >> 6] |= uint64_t{1} << (p & 63);
    (in_pool != 0 ? pool_delta_ : det_delta_)
        .push_back({score, birth_step[p], p});
  }
  std::sort(det_delta_.begin(), det_delta_.end(),
            [](const Entry& a, const Entry& b) {
              return RankOrderBefore(a.score, a.birth, a.id, b.score, b.birth,
                                     b.id);
            });
  return det_delta_.size() + pool_delta_.size();
}

void EpochBuilder::Merge(const ServingView* prev, ServingView* next) const {
  const size_t prev_det = prev != nullptr ? prev->det.size() : 0;
  const size_t prev_pool = prev != nullptr ? prev->pool.size() : 0;
  next->det.reserve(prev_det + det_delta_.size());
  next->det_score.reserve(prev_det + det_delta_.size());
  next->pool.reserve(prev_pool + pool_delta_.size());

  // Whether delta entry `e` ranks before an unchanged page. Its birth is the
  // committed one (unchanged pages keep theirs), read only on a score tie.
  const auto before = [this](const Entry& e, double score, uint32_t page) {
    return e.score != score
               ? e.score > score
               : RankOrderBefore(e.score, e.birth, e.id, score,
                                 committed_birth_[page], page);
  };
  auto delta = det_delta_.begin();
  for (size_t i = 0; i < prev_det; ++i) {
    const uint32_t page = prev->det[i];
    if (changed(page)) continue;
    const double score = prev->det_score[i];
    for (; delta != det_delta_.end() && before(*delta, score, page); ++delta) {
      next->det.push_back(delta->id);
      next->det_score.push_back(delta->score);
    }
    next->det.push_back(page);
    next->det_score.push_back(score);
  }
  for (; delta != det_delta_.end(); ++delta) {
    next->det.push_back(delta->id);
    next->det_score.push_back(delta->score);
  }

  auto entering = pool_delta_.begin();
  for (size_t i = 0; i < prev_pool; ++i) {
    const uint32_t page = prev->pool[i];
    if (changed(page)) continue;
    for (; entering != pool_delta_.end() && entering->id < page; ++entering) {
      next->pool.push_back(entering->id);
    }
    next->pool.push_back(page);
  }
  for (; entering != pool_delta_.end(); ++entering) {
    next->pool.push_back(entering->id);
  }
}

void EpochBuilder::Commit() {
  for (const std::vector<Entry>* delta : {&det_delta_, &pool_delta_}) {
    const uint8_t in_pool = delta == &pool_delta_ ? 1 : 0;
    const size_t size = delta->size();
    for (size_t i = 0; i < size; ++i) {
      // The det delta is in key order, so these writes land at random; a
      // prefetch a few entries ahead overlaps their cache misses.
      if (i + 16 < size) {
        const uint32_t ahead = (*delta)[i + 16].id;
        __builtin_prefetch(&committed_popularity_[ahead], 1);
        __builtin_prefetch(&committed_birth_[ahead], 1);
        __builtin_prefetch(&committed_pool_[ahead], 1);
      }
      const Entry& e = (*delta)[i];
      committed_popularity_[e.id] = e.score;
      committed_birth_[e.id] = e.birth;
      committed_pool_[e.id] = in_pool;
    }
  }
  // A first publish or a hot-swap can leave an n-sized delta behind.
  det_delta_ = std::vector<Entry>();
  pool_delta_ = std::vector<Entry>();
}

}  // namespace randrank
