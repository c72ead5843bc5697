#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation. Everything here is a pure function of the
// workload seed, the corpus size and the epoch index: the mature page state,
// each epoch's visits and page deaths, and the FoldVisits coin stream. The
// benchmark's own splitmix64 stream is used (not the library's Rng), so a
// change to the serving code cannot change the inputs or their digest; only
// the community constants are read from the library
// (CommunityParams::Default()).

#include <cstdint>
#include <vector>

#include "core/community.h"
#include "serve/feedback.h"

namespace perfbench {

/// splitmix64: the benchmark's input stream.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, bound).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

 private:
  uint64_t state_;
};

/// Mixes two words into a seed for an independent stream.
uint64_t MixSeed(uint64_t a, uint64_t b);

/// One epoch of seeded input: clicks to feed through RecordVisit, then the
/// pages that die and are reborn (nobody aware).
struct EpochInput {
  std::vector<uint32_t> visits;
  std::vector<uint32_t> deaths;
};

/// The traffic model, derived from the paper's default community
/// (CommunityParams::Default(), Section 6.1) and its Section 4-5 dynamics:
///
/// - An epoch is the time in which 1% of the pages die: pages die by a
///   Poisson process of rate 1/lifetime (Section 5.1), so an epoch lasts
///   0.01 x 547.5 = 5.475 days.
/// - Visits per epoch keep the default community's visits per page per day
///   (1000 visits a day over 10,000 pages): 0.1 x n x 5.475 = 0.5475 n.
/// - A visit lands on rank r with probability ~ r^(-3/2) (Eq. 4) of a list
///   in descending quality order. Below the top kProtectK ranks, with
///   probability kPromoteR the slot shows a page promoted uniformly from
///   the pool of pages nobody has visited yet: the selective(r=0.10,k=2)
///   rule the workloads serve. The pool is fixed within an epoch.
/// - A page's visitors are uniform over the users, so after K visits
///   u(1 - (1 - 1/u)^K) users are aware of it in expectation (FoldVisits'
///   conversion model).
struct TrafficModel {
  static constexpr double kDeathFraction = 0.01;
  static constexpr double kPromoteR = 0.10;
  static constexpr size_t kProtectK = 2;

  explicit TrafficModel(size_t n);

  size_t n;
  randrank::CommunityParams community;
  double epoch_days;
  size_t visits_per_epoch;
  size_t deaths_per_epoch;
  /// 1 - 1/sqrt(n + 1): the mass of ranks 1..n under the continuous r^(-3/2)
  /// law the ranks are drawn from.
  double rank_mass;
  /// Mean promoted visits per pool page per epoch in the stationary state,
  /// and the expected pool size it implies.
  double pool_visit_rate;
  double pool_size;

  /// Share of rank draws that land on rank r (1-based).
  double RankShare(size_t r) const;
  /// A rank in 1..n drawn by the r^(-3/2) law.
  size_t DrawRank(InputRng& rng) const;
};

class InputGenerator {
 public:
  InputGenerator(uint64_t seed, size_t n);

  size_t n() const { return model_.n; }
  uint64_t seed() const { return seed_; }
  const TrafficModel& model() const { return model_; }

  /// True quality per page: the paper's stationary power-law quantiles in
  /// seeded order. A reborn page takes over the quality of the page it
  /// replaces, so the corpus keeps exactly this quality distribution.
  const std::vector<double>& quality() const { return quality_; }
  /// interest()[r] is the page at rank r+1 of the quality-ordered list.
  const std::vector<uint32_t>& interest() const { return interest_; }

  /// The stationary community under the traffic model: each page's age is
  /// geometric (1% death per epoch); its visits since birth are Poisson
  /// over its age at its rank's share, plus, once, the promoted visits that
  /// took it out of the pool (unless it is still there); its awareness is
  /// FoldVisits' expectation for that many visits.
  randrank::ServingPageState MatureState() const;

  /// Seed of the Rng handed to FoldVisits in epoch `e`.
  uint64_t FoldSeed(uint64_t e) const { return MixSeed(seed_, 0xf01d0000 + e); }

  /// Digest of the generated inputs: the mature state plus the inputs of
  /// epochs 1..kDigestEpochs. Equal seeds give equal digests.
  static constexpr uint64_t kDigestEpochs = 8;
  uint64_t Digest(const randrank::ServingPageState& mature) const;

 private:
  uint64_t seed_;
  TrafficModel model_;
  std::vector<double> quality_;
  std::vector<uint32_t> interest_;
};

/// The epochs after a mature state, in order. Epoch e's input depends on
/// the seed and on epochs 1..e-1 (through the pool), never on what the
/// program serves or how fast.
class EpochStream {
 public:
  EpochStream(const InputGenerator& gen,
              const randrank::ServingPageState& mature);
  /// The next epoch's input (epochs 1, 2, ...).
  const EpochInput& Next();
  uint64_t epoch() const { return epoch_; }

 private:
  void AddToPool(uint32_t page);
  void RemoveFromPool(uint32_t page);

  const InputGenerator& gen_;
  uint64_t epoch_ = 0;
  /// Pages nobody has visited since their birth, and each page's index in
  /// pool_ (kNotInPool when absent).
  static constexpr uint32_t kNotInPool = UINT32_MAX;
  std::vector<uint32_t> pool_;
  std::vector<uint32_t> pool_index_;
  EpochInput in_;
};

/// Applies the epoch's deaths: each dying page is replaced by a newborn of
/// the same quality with no aware users, born at `epoch`.
void ApplyDeaths(const EpochInput& input, int64_t epoch,
                 randrank::ServingPageState* state);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
