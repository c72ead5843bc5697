#include "serve/serving_view.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/rank_merge.h"
#include "util/thread_pool.h"

namespace randrank {

namespace {

/// The pool answer `policy` gives every page with this zero-awareness flag,
/// or -1 when it draws for one: PoolMembership sees nothing but the flag,
/// so a call that leaves the Rng where it was is the policy's fixed answer.
int FixedPoolMembership(const StochasticRankingPolicy& policy, bool zero) {
  Rng probe(zero ? 2 : 1);
  Rng untouched = probe;
  const bool member = policy.PoolMembership(zero, probe);
  return probe() == untouched() ? (member ? 1 : 0) : -1;
}

}  // namespace

std::string CheckEpochInvariants(const ServingView& view,
                                 const std::vector<uint8_t>& zero_awareness,
                                 const std::vector<int64_t>& birth_step) {
  const size_t n = zero_awareness.size();
  if (view.n() != n || birth_step.size() != n ||
      view.det_score.size() != view.det.size()) {
    return "view holds " + std::to_string(view.n()) + " pages, inputs " +
           std::to_string(n);
  }
  // Membership is checkable only where the policy draws no randomness.
  const int expected_pool[2] = {FixedPoolMembership(*view.policy, false),
                                FixedPoolMembership(*view.policy, true)};
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
  if (view.policy_state != nullptr) {
    if (std::string error = view.policy_state->Check(view.AsView());
        !error.empty()) {
      return "policy state: " + error;
    }
  }
  return "";
}

namespace {

/// Rank chunks the det order is split into: one per page-id chunk, capped
/// so a pass can keep a row of per-chunk counters on its stack.
constexpr size_t kMaxBuckets = 64;
/// Keys sampled per rank chunk when the splitters come from the new inputs.
constexpr size_t kSamplesPerBucket = 32;

/// Threads for a build of `chunks` page-id chunks: half the hardware
/// threads (the other half is left to the readers that serve queries
/// beside a publish), at most one per chunk; one means the caller builds
/// alone. On 4 vCPUs beside 2 readers a third or fourth worker bought
/// nothing over two: the passes are bound by memory bandwidth.
size_t BuildWorkers(size_t chunks) {
  if (chunks < 2) return 1;
  const size_t cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores / 2, 1, chunks);
}

/// Calls visit(page) for each page of page-id chunk `chunk` whose bit is
/// set in `words`, ascending, and fetch(page) kLookahead set bits earlier:
/// the pages a pass visits are sparse, so a fetch that prefetches what
/// visit reads overlaps the misses.
constexpr size_t kLookahead = 16;
template <typename Fetch, typename Visit>
void ForEachBit(const std::vector<uint64_t>& words, size_t chunk,
                const Fetch& fetch, const Visit& visit) {
  constexpr size_t kChunkWords = EpochBuilder::kChunkPages / 64;
  uint32_t ahead[kLookahead] = {};
  size_t seen = 0;
  const size_t last = std::min(words.size(), (chunk + 1) * kChunkWords);
  for (size_t w = chunk * kChunkWords; w < last; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const auto page = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      fetch(page);
      if (seen >= kLookahead) visit(ahead[seen % kLookahead]);
      ahead[seen++ % kLookahead] = page;
    }
  }
  for (size_t i = seen > kLookahead ? seen - kLookahead : 0; i < seen; ++i) {
    visit(ahead[i % kLookahead]);
  }
}

/// Whether a popularity is publishable. One comparison pair rejects NaN,
/// infinities and negatives alike: NaN would break RankOrderBefore's strict
/// weak order (UB in std::sort).
bool ValidScore(double score) {
  return score >= 0.0 && score <= std::numeric_limits<double>::max();
}

/// Sort order of keys: RankOrderBefore on (score, birth, id).
constexpr auto KeyBefore = [](const auto& a, const auto& b) {
  return RankOrderBefore(a.score, a.birth, a.id, b.score, b.birth, b.id);
};

}  // namespace

template <typename Body>
void EpochBuilder::Run(size_t tasks, const Body& body) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < tasks; ++i) body(i);
    return;
  }
  // Pool tasks must not throw: keep the first exception (the other tasks
  // still run) and rethrow it here, where Update rolls the publish back.
  // The caller takes tasks too (ParallelFor), so it never waits for a
  // pool thread to wake.
  std::exception_ptr error;
  std::mutex error_mutex;
  ParallelFor(*pool_, tasks, [&](size_t i) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
    }
  });
  if (error != nullptr) std::rethrow_exception(error);
}

EpochBuilder::EpochBuilder(size_t num_pages)
    : n_(num_pages),
      chunks_(std::max<size_t>(1, (num_pages + kChunkPages - 1) / kChunkPages)),
      committed_popularity_(num_pages),
      committed_birth_(num_pages),
      committed_pool_bits_((num_pages + 63) / 64, 0),
      changed_bits_((num_pages + 63) / 64, 0),
      pool_bits_((num_pages + 63) / 64, 0),
      tally_(chunks_),
      entering_(chunks_ * std::min(chunks_, kMaxBuckets)),
      leaving_(entering_.size()) {
  if (const size_t workers = BuildWorkers(chunks_); workers > 1) {
    pool_ = std::make_unique<ThreadPool>(workers - 1);  // and the caller
  }
}

EpochBuilder::~EpochBuilder() = default;

size_t EpochBuilder::BucketOf(double score, int64_t birth,
                              uint32_t page) const {
  return static_cast<size_t>(
      std::partition_point(splitters_.begin(), splitters_.end(),
                           [&](const Entry& s) {
                             return !RankOrderBefore(score, birth, page,
                                                     s.score, s.birth, s.id);
                           }) -
      splitters_.begin());
}

void EpochBuilder::ChooseSplitters(const ServingView* prev,
                                   const double* popularity,
                                   const int64_t* birth) {
  const size_t prev_det = prev != nullptr ? prev->det.size() : 0;
  const size_t buckets = std::min(chunks_, kMaxBuckets);
  splitters_.clear();
  split_rank_.assign(1, 0);
  if (buckets > 1 && prev_det > 0) {
    // The served order is the natural sample: split it at even ranks.
    for (size_t b = 1; b < buckets; ++b) {
      const size_t rank = b * prev_det / buckets;
      const uint32_t page = prev->det[rank];
      splitters_.push_back(
          {prev->det_score[rank], committed_birth_[page], page});
      split_rank_.push_back(rank);
    }
  } else if (buckets > 1) {
    // Nothing served yet to split: take the quantiles of the new keys of
    // pages at fixed strides (bad scores are skipped; the diff rejects
    // them). Every rank chunk then starts at rank 0 of the empty det.
    std::vector<Entry> sample;
    const size_t samples = buckets * kSamplesPerBucket;
    for (size_t s = 0; s < samples; ++s) {
      const auto page = static_cast<uint32_t>((2 * s + 1) * n_ / (2 * samples));
      if (ValidScore(popularity[page])) {
        sample.push_back({popularity[page], birth[page], page});
      }
    }
    std::sort(sample.begin(), sample.end(), KeyBefore);
    for (size_t b = 1; b < buckets && !sample.empty(); ++b) {
      splitters_.push_back(sample[b * sample.size() / buckets]);
      split_rank_.push_back(0);
    }
  }
  split_rank_.push_back(prev_det);
}

size_t EpochBuilder::Diff(const StochasticRankingPolicy& policy,
                          const ServingView* prev,
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
  const double* pop = popularity.data();
  const uint8_t* zero = zero_awareness.data();
  const int64_t* birth = birth_step.data();
  const bool first = !committed_;
  const double* old_pop = committed_popularity_.data();
  const int64_t* old_birth = committed_birth_.data();
  const uint64_t* old_pool = committed_pool_bits_.data();
  ChooseSplitters(prev, pop, birth);
  const size_t buckets = splitters_.size() + 1;
  const size_t stride = std::min(chunks_, kMaxBuckets);

  // Pass 1, per page-id chunk: validate, draw membership, diff against the
  // committed copy (one changed and one pool bit per page), and count the
  // changed pages by rank chunk — under the new key if they enter det, the
  // committed key if they leave the served det — while they are in cache.
  const uint64_t stream_seed = chunks_ > 1 ? rng() : 0;
  Run(chunks_, [&](size_t c) {
    Rng own = chunks_ > 1 ? Rng::ForStream(stream_seed, c) : Rng();
    Rng& draw = chunks_ > 1 ? own : rng;
    size_t enter[kMaxBuckets] = {};
    size_t leave[kMaxBuckets] = {};
    const size_t lo = c * kChunkPages;
    const size_t hi = std::min(n_, lo + kChunkPages);
    ChunkTally tally;
    for (size_t w = lo / 64; w * 64 < hi; ++w) {
      const size_t base = w * 64;
      const size_t end = std::min(hi, base + 64);
      const uint64_t was_pool = first ? 0 : old_pool[w];
      uint64_t changed = 0;
      uint64_t pool = 0;
      for (size_t p = base; p < end; ++p) {
        const double score = pop[p];
        if (!ValidScore(score)) {
          tally.first_bad = p;
          tally_[c] = tally;
          return;
        }
        const uint64_t bit = uint64_t{1} << (p - base);
        const bool in_pool = policy.PoolMembership(zero[p] != 0, draw);
        if (in_pool) pool |= bit;
        // Scores compare by bit pattern, so -0.0 replacing 0.0 republishes.
        if (first ||
            std::bit_cast<uint64_t>(score) !=
                std::bit_cast<uint64_t>(old_pop[p]) ||
            birth[p] != old_birth[p] || in_pool != ((was_pool & bit) != 0)) {
          changed |= bit;
        }
      }
      changed_bits_[w] = changed;
      pool_bits_[w] = pool;
      tally.changed += static_cast<size_t>(std::popcount(changed));
      tally.pool += static_cast<size_t>(std::popcount(pool));
      for (uint64_t bits = changed; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const auto p = static_cast<uint32_t>(base + static_cast<size_t>(b));
        if (((pool >> b) & 1) == 0) ++enter[BucketOf(pop[p], birth[p], p)];
        if (!first && ((was_pool >> b) & 1) == 0) {
          ++leave[BucketOf(old_pop[p], old_birth[p], p)];
        }
      }
    }
    tally_[c] = tally;
    std::copy(enter, enter + buckets, &entering_[c * stride]);
    std::copy(leave, leave + buckets, &leaving_[c * stride]);
  });
  size_t changed = 0;
  size_t first_bad = SIZE_MAX;
  for (const ChunkTally& t : tally_) {
    changed += t.changed;
    first_bad = std::min(first_bad, t.first_bad);
  }
  if (first_bad != SIZE_MAX) {
    throw std::invalid_argument("popularity[" + std::to_string(first_bad) +
                                "] = " + std::to_string(pop[first_bad]) +
                                " is not finite and >= 0");
  }

  // Where each rank chunk starts: in the delta, D = the entering pages
  // before it; in the new det, its first served rank, minus R = the leaving
  // pages before it, plus D. Row cursors place each chunk's entries.
  delta_start_.assign(buckets + 1, 0);
  out_start_.assign(buckets + 1, 0);
  size_t entering = 0;
  size_t left = 0;
  for (size_t b = 0; b < buckets; ++b) {
    delta_start_[b] = entering;
    out_start_[b] = split_rank_[b] - left + entering;
    for (size_t c = 0; c < chunks_; ++c) {
      const size_t count = entering_[c * stride + b];
      entering_[c * stride + b] = entering;
      entering += count;
      left += leaving_[c * stride + b];
    }
  }
  delta_start_[buckets] = entering;
  out_start_[buckets] = split_rank_[buckets] - left + entering;

  // Pass 2, per page-id chunk: scatter the entering pages into their rank
  // chunks' slices of the one delta array.
  delta_.resize(entering);
  Run(chunks_, [&](size_t c) {
    size_t* cursor = &entering_[c * stride];
    ForEachBit(
        changed_bits_, c,
        [&](uint32_t p) {
          __builtin_prefetch(&pop[p]);
          __builtin_prefetch(&birth[p]);
        },
        [&](uint32_t p) {
          if ((pool_bits_[p >> 6] >> (p & 63)) & 1) return;
          delta_[cursor[BucketOf(pop[p], birth[p], p)]++] = {pop[p], birth[p],
                                                            p};
        });
  });

  // Pass 3, per rank chunk: sort its slice; the slices are in key order.
  Run(buckets, [&](size_t b) {
    std::sort(delta_.begin() + static_cast<ptrdiff_t>(delta_start_[b]),
              delta_.begin() + static_cast<ptrdiff_t>(delta_start_[b + 1]),
              KeyBefore);
  });
  return changed;
}

void EpochBuilder::Merge(const ServingView* prev, ServingView* next) {
  const size_t buckets = splitters_.size() + 1;
  assert(split_rank_[buckets] == (prev != nullptr ? prev->det.size() : 0));
  std::vector<size_t> pool_start(chunks_ + 1, 0);
  for (size_t c = 0; c < chunks_; ++c) {
    pool_start[c + 1] = pool_start[c] + tally_[c].pool;
  }
  next->det.resize(out_start_[buckets]);
  next->det_score.resize(out_start_[buckets]);
  next->pool.resize(pool_start[chunks_]);

  // Whether delta entry `e` ranks before an unchanged page. Its birth is the
  // committed one (unchanged pages keep theirs), read only on a score tie.
  const auto before = [this](const Entry& e, double score, uint32_t page) {
    return e.score != score
               ? e.score > score
               : RankOrderBefore(e.score, e.birth, e.id, score,
                                 committed_birth_[page], page);
  };
  // Tasks [0, buckets) merge one rank chunk each: the served pages of its
  // ranks that did not change, with its slice of the delta. The rest write
  // one page-id chunk of the pool each.
  Run(buckets + chunks_, [&](size_t t) {
    if (t >= buckets) {
      const size_t c = t - buckets;
      uint32_t* out = next->pool.data() + pool_start[c];
      ForEachBit(
          pool_bits_, c, [](uint32_t) {}, [&](uint32_t p) { *out++ = p; });
      return;
    }
    uint32_t* out = next->det.data() + out_start_[t];
    double* out_score = next->det_score.data() + out_start_[t];
    const Entry* delta = delta_.data() + delta_start_[t];
    const Entry* const delta_end = delta_.data() + delta_start_[t + 1];
    for (size_t i = split_rank_[t]; i < split_rank_[t + 1]; ++i) {
      const uint32_t page = prev->det[i];
      if (changed(page)) continue;
      const double score = prev->det_score[i];
      for (; delta != delta_end && before(*delta, score, page); ++delta) {
        *out++ = delta->id;
        *out_score++ = delta->score;
      }
      *out++ = page;
      *out_score++ = score;
    }
    for (; delta != delta_end; ++delta) {
      *out++ = delta->id;
      *out_score++ = delta->score;
    }
    assert(out == next->det.data() + out_start_[t + 1]);
  });
}

void EpochBuilder::Commit(const std::vector<double>& popularity,
                          const std::vector<int64_t>& birth_step) {
  Run(chunks_, [&](size_t c) {
    ForEachBit(
        changed_bits_, c,
        [&](uint32_t p) {
          __builtin_prefetch(&popularity[p]);
          __builtin_prefetch(&birth_step[p]);
          __builtin_prefetch(&committed_popularity_[p], 1);
          __builtin_prefetch(&committed_birth_[p], 1);
        },
        [&](uint32_t p) {
          committed_popularity_[p] = popularity[p];
          committed_birth_[p] = birth_step[p];
        });
  });
  committed_pool_bits_.swap(pool_bits_);
  committed_ = true;
  // A first publish or a hot-swap can leave an n-sized delta behind.
  delta_ = PageVector<Entry>();
}

}  // namespace randrank
