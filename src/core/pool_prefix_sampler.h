#ifndef RANDRANK_CORE_POOL_PREFIX_SAMPLER_H_
#define RANDRANK_CORE_POOL_PREFIX_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace randrank {

/// Draws elements of a fixed pool uniformly at random without replacement,
/// resolving only the slots actually requested (sparse Fisher-Yates: swaps
/// are recorded in a small hash table instead of a copied array). Drawing
/// the first m of z pool elements costs O(m) expected time and memory,
/// independent of z — the property the serving layer relies on to answer
/// top-m queries without materializing the whole pool.
///
/// The referenced pool array must outlive the sampler and stay unchanged
/// until the next Reset(). Reset() is O(1) and keeps a table of up to
/// kKeptEntries entries (draws of up to half that many pool elements), so a
/// per-query sampler does not allocate in steady state.
class PoolPrefixSampler {
 public:
  PoolPrefixSampler() = default;
  PoolPrefixSampler(const uint32_t* pool, size_t size) { Reset(pool, size); }

  /// Rebinds to a new pool and restarts the shuffle.
  void Reset(const uint32_t* pool, size_t size);

  /// Next element of the lazily shuffled pool. remaining() must be > 0.
  uint32_t Next(Rng& rng);

  size_t remaining() const { return size_ - taken_; }
  size_t size() const { return size_; }

  static constexpr size_t kKeptEntries = 1024;

 private:
  /// A displaced value: slot `slot` holds `value`. Live only when stamped
  /// with the current generation, so Reset() clears the table by bumping
  /// the generation instead of touching it.
  struct Moved {
    size_t slot = 0;
    uint32_t value = 0;
    uint32_t generation = 0;
  };

  uint32_t Value(size_t slot) const;
  /// Open-addressing (linear probing) position of `slot`: its live entry,
  /// or the empty entry where it would go.
  size_t Find(size_t slot) const;
  void Store(size_t slot, uint32_t value);

  const uint32_t* pool_ = nullptr;
  size_t size_ = 0;
  size_t taken_ = 0;
  std::vector<Moved> moved_;  // power-of-two size, at most half live
  size_t live_ = 0;
  uint32_t generation_ = 1;
};

}  // namespace randrank

#endif  // RANDRANK_CORE_POOL_PREFIX_SAMPLER_H_
