#include "core/pool_prefix_sampler.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace randrank {

void PoolPrefixSampler::Reset(const uint32_t* pool, size_t size) {
  pool_ = pool;
  size_ = size;
  taken_ = 0;
  live_ = 0;
  if (moved_.size() > kKeptEntries) {
    // A deep draw's table is released, not kept for every later query.
    moved_ = {};
    generation_ = 1;
  } else if (++generation_ == 0) {  // wrapped: stale stamps could read live
    for (Moved& entry : moved_) entry.generation = 0;
    generation_ = 1;
  }
}

size_t PoolPrefixSampler::Find(size_t slot) const {
  // Fibonacci hashing: the top log2(size) bits of slot * 2^64 / phi.
  const size_t mask = moved_.size() - 1;
  size_t at = (slot * 0x9e3779b97f4a7c15ULL) >>
              (64 - std::countr_zero(moved_.size()));
  while (moved_[at].generation == generation_ && moved_[at].slot != slot) {
    at = (at + 1) & mask;
  }
  return at;
}

uint32_t PoolPrefixSampler::Value(size_t slot) const {
  if (live_ == 0) return pool_[slot];
  const Moved& entry = moved_[Find(slot)];
  return entry.generation == generation_ ? entry.value : pool_[slot];
}

void PoolPrefixSampler::Store(size_t slot, uint32_t value) {
  if (2 * (live_ + 1) > moved_.size()) {
    // Grow to keep at most half the entries live; rehash the live ones.
    std::vector<Moved> old(std::max<size_t>(32, 2 * moved_.size()));
    old.swap(moved_);
    const uint32_t generation = generation_;
    generation_ = 1;
    live_ = 0;
    for (const Moved& entry : old) {
      if (entry.generation == generation) Store(entry.slot, entry.value);
    }
  }
  Moved& entry = moved_[Find(slot)];
  if (entry.generation != generation_) ++live_;
  entry = {slot, value, generation_};
}

uint32_t PoolPrefixSampler::Next(Rng& rng) {
  assert(taken_ < size_);
  const size_t i = taken_++;
  const size_t j = i + rng.NextIndex(size_ - i);
  const uint32_t result = Value(j);
  // Classic Fisher-Yates swap, recorded sparsely: slot j now holds what
  // slot i held. Slot i is never read again, so its entry is left to die
  // with the generation.
  if (j != i) Store(j, Value(i));
  return result;
}

}  // namespace randrank
