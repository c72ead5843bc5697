#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace perfbench {
namespace {

class Fnv64 {
 public:
  void Add(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddVector(const std::vector<T>& v) {
    const uint64_t size = v.size();
    Add(&size, sizeof(size));
    if (!v.empty()) Add(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Poisson(mean): inversion below 30, the normal approximation above (where
/// awareness hardly depends on the exact count).
uint64_t Poisson(double mean, InputRng& rng) {
  if (mean <= 0) return 0;
  if (mean < 30) {
    double p = std::exp(-mean);
    double cdf = p;
    const double u = rng.Uniform();
    uint64_t k = 0;
    while (u > cdf && k < 1000) {
      ++k;
      p *= mean / static_cast<double>(k);
      cdf += p;
    }
    return k;
  }
  const double u1 = 1.0 - rng.Uniform();
  const double u2 = rng.Uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2 * std::numbers::pi * u2);
  return static_cast<uint64_t>(std::max(0.0, std::round(mean + std::sqrt(mean) * z)));
}

/// Geometric number of failures before the first success.
uint64_t Geometric(double success, InputRng& rng) {
  return static_cast<uint64_t>(std::log(1.0 - rng.Uniform()) /
                               std::log1p(-success));
}

}  // namespace

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  InputRng rng(a ^ (b * 0xd1342543de82ef95ULL));
  rng.Next();
  return rng.Next();
}

TrafficModel::TrafficModel(size_t pages)
    : n(pages), community(randrank::CommunityParams::Default()) {
  epoch_days = kDeathFraction * community.lifetime_days;
  const double visits_per_page_day =
      community.visits_per_day / static_cast<double>(community.n);
  visits_per_epoch = std::max<size_t>(
      1, static_cast<size_t>(std::llround(visits_per_page_day *
                                          static_cast<double>(n) * epoch_days)));
  deaths_per_epoch = std::max<size_t>(
      1, static_cast<size_t>(std::llround(kDeathFraction * static_cast<double>(n))));
  rank_mass = 1.0 - 1.0 / std::sqrt(static_cast<double>(n) + 1.0);
  // Stationary pool: d newborns a epoch, P promoted visits spread over a
  // pool of z pages, so a pool page escapes at rate x = P/z and
  // z (1 - e^-x) = d, i.e. (1 - e^-x) / x = d / P. Bisect on x.
  const double beyond_k =
      (1.0 / std::sqrt(static_cast<double>(kProtectK) + 1.0) -
       1.0 / std::sqrt(static_cast<double>(n) + 1.0)) / rank_mass;
  const double promoted =
      static_cast<double>(visits_per_epoch) * kPromoteR * beyond_k;
  const double target = static_cast<double>(deaths_per_epoch) / promoted;
  double lo = 1e-9;
  double hi = 1e3;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    ((1.0 - std::exp(-mid)) / mid > target ? lo : hi) = mid;
  }
  pool_visit_rate = target < 1.0 ? lo : 0.0;
  pool_size = pool_visit_rate > 0 ? promoted / pool_visit_rate
                                  : static_cast<double>(n);
}

double TrafficModel::RankShare(size_t r) const {
  const auto x = static_cast<double>(r);
  return (1.0 / std::sqrt(x) - 1.0 / std::sqrt(x + 1.0)) / rank_mass;
}

size_t TrafficModel::DrawRank(InputRng& rng) const {
  // Inverts the continuous CDF of the r^(-3/2) law on [1, n + 1).
  const double x = 1.0 - rng.Uniform() * rank_mass;
  return std::min(static_cast<size_t>(1.0 / (x * x)), n);
}

InputGenerator::InputGenerator(uint64_t seed, size_t n)
    : seed_(seed), model_(n), quality_(n), interest_(n) {
  for (size_t i = 0; i < n; ++i) interest_[i] = static_cast<uint32_t>(i);
  InputRng rng(MixSeed(seed_, 1));
  for (size_t i = n; i > 1; --i) {
    std::swap(interest_[i - 1], interest_[rng.Below(i)]);
  }
  // The (i+1)-th largest of n Pareto draws with pdf exponent a scales as
  // (i+1)^(-1/(a-1)) relative to the largest; page interest_[i] gets it.
  const randrank::CommunityParams& c = model_.community;
  for (size_t i = 0; i < n; ++i) {
    quality_[interest_[i]] =
        c.max_quality * std::pow(static_cast<double>(i + 1),
                                 -1.0 / (c.quality_exponent - 1.0));
  }
}

randrank::ServingPageState InputGenerator::MatureState() const {
  const TrafficModel& m = model_;
  randrank::ServingPageState state;
  state.users = m.community.u;
  state.quality = quality_;
  state.aware.resize(m.n);
  state.popularity.resize(m.n);
  state.zero_awareness.resize(m.n);
  state.birth_step.resize(m.n);

  InputRng rng(MixSeed(seed_, 2));
  const auto users = static_cast<double>(state.users);
  const double escape = 1.0 - std::exp(-m.pool_visit_rate);
  for (size_t i = 0; i < m.n; ++i) {
    const uint32_t p = interest_[i];
    const size_t rank = i + 1;
    const uint64_t age = Geometric(TrafficModel::kDeathFraction, rng);
    const double rank_rate =
        static_cast<double>(m.visits_per_epoch) * m.RankShare(rank) *
        (rank > TrafficModel::kProtectK ? 1.0 - TrafficModel::kPromoteR : 1.0);
    uint64_t visits = Poisson(rank_rate * static_cast<double>(age), rng);
    // Promoted visits: the epochs a page waits in the pool are geometric;
    // the epoch it leaves brings at least one promoted visit.
    if (age > 0 && escape > 0 && Geometric(escape, rng) < age) {
      uint64_t promoted = 0;
      while (promoted == 0) promoted = Poisson(m.pool_visit_rate, rng);
      visits += promoted;
    }
    uint32_t aware = 0;
    if (visits > 0) {
      const double expected =
          users * -std::expm1(static_cast<double>(visits) * std::log1p(-1.0 / users));
      aware = static_cast<uint32_t>(expected);
      if (rng.Uniform() < expected - std::floor(expected)) ++aware;
      aware = std::clamp<uint32_t>(aware, 1, static_cast<uint32_t>(state.users));
    }
    state.aware[p] = aware;
    state.popularity[p] = quality_[p] * static_cast<double>(aware) / users;
    state.zero_awareness[p] = aware == 0 ? 1 : 0;
    state.birth_step[p] = -static_cast<int64_t>(age);
  }
  return state;
}

EpochStream::EpochStream(const InputGenerator& gen,
                         const randrank::ServingPageState& mature)
    : gen_(gen), pool_index_(gen.n(), kNotInPool) {
  for (size_t p = 0; p < gen.n(); ++p) {
    if (mature.zero_awareness[p] != 0) AddToPool(static_cast<uint32_t>(p));
  }
}

void EpochStream::AddToPool(uint32_t page) {
  if (pool_index_[page] != kNotInPool) return;
  pool_index_[page] = static_cast<uint32_t>(pool_.size());
  pool_.push_back(page);
}

void EpochStream::RemoveFromPool(uint32_t page) {
  const uint32_t at = pool_index_[page];
  if (at == kNotInPool) return;
  pool_[at] = pool_.back();
  pool_index_[pool_[at]] = at;
  pool_.pop_back();
  pool_index_[page] = kNotInPool;
}

const EpochInput& EpochStream::Next() {
  const TrafficModel& m = gen_.model();
  ++epoch_;
  InputRng rng(MixSeed(gen_.seed(), 0xe0000000 + epoch_));
  in_.visits.resize(m.visits_per_epoch);
  for (uint32_t& page : in_.visits) {
    const size_t rank = m.DrawRank(rng);
    if (rank > TrafficModel::kProtectK && !pool_.empty() &&
        rng.Uniform() < TrafficModel::kPromoteR) {
      page = pool_[rng.Below(pool_.size())];
    } else {
      page = gen_.interest()[rank - 1];
    }
  }
  // The pool is fixed within an epoch: a visited page leaves it only now.
  for (const uint32_t page : in_.visits) RemoveFromPool(page);
  in_.deaths.resize(m.deaths_per_epoch);
  for (uint32_t& page : in_.deaths) {
    page = static_cast<uint32_t>(rng.Below(m.n));
    AddToPool(page);
  }
  return in_;
}

uint64_t InputGenerator::Digest(
    const randrank::ServingPageState& mature) const {
  Fnv64 h;
  const uint64_t header[2] = {n(), mature.users};
  h.Add(header, sizeof(header));
  h.AddVector(mature.quality);
  h.AddVector(mature.aware);
  h.AddVector(mature.popularity);
  h.AddVector(mature.zero_awareness);
  h.AddVector(mature.birth_step);
  EpochStream stream(*this, mature);
  for (uint64_t e = 1; e <= kDigestEpochs; ++e) {
    const EpochInput& in = stream.Next();
    h.AddVector(in.visits);
    h.AddVector(in.deaths);
    const uint64_t fold = FoldSeed(e);
    h.Add(&fold, sizeof(fold));
  }
  return h.value();
}

void ApplyDeaths(const EpochInput& input, int64_t epoch,
                 randrank::ServingPageState* state) {
  for (const uint32_t p : input.deaths) {
    state->aware[p] = 0;
    state->popularity[p] = 0.0;
    state->zero_awareness[p] = 1;
    state->birth_step[p] = epoch;
  }
}

}  // namespace perfbench
