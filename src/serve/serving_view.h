#ifndef RANDRANK_SERVE_SERVING_VIEW_H_
#define RANDRANK_SERVE_SERVING_VIEW_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "util/rng.h"

namespace randrank {

struct ServeObsHooks;
class ThreadPool;

/// std::allocator that default-initialises where std::vector would
/// value-initialise: resize() on trivial elements reserves the memory and
/// writes nothing, so the epoch build fills (and first touches) its arrays
/// on the threads that compute them, with no serial zero-fill before.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A per-page array of an epoch: a std::vector whose resize() leaves
/// trivial elements unwritten.
template <typename T>
using PageVector = std::vector<T, DefaultInitAllocator<T>>;

/// One published epoch of the whole server: the global deterministic order,
/// the promotion pool, and the policy's per-epoch state, swapped in
/// atomically as a unit. Immutable after publish and shared lock-free by
/// every serving thread; reclaimed once the last reader pinned to it moves
/// on to a later epoch.
struct ServingView {
  uint64_t epoch = 0;
  /// The policy this epoch was ranked and is served under. Queries dispatch
  /// through it — never through server-level mutable state — so a policy
  /// hot-swap is exactly as atomic as the epoch publish itself.
  std::shared_ptr<const StochasticRankingPolicy> policy;
  /// Deterministically ranked pages, best first under RankOrderBefore, and
  /// their scores. Birth steps only break ties while building, so the view
  /// does not carry them.
  PageVector<uint32_t> det;
  PageVector<double> det_score;
  /// Stochastic pool in ascending page id (order is irrelevant to serving:
  /// every draw path samples it uniformly).
  PageVector<uint32_t> pool;
  /// The policy's BuildEpochState product over AsView(); null for families
  /// whose epoch-invariant state is the view alone (promotion).
  std::shared_ptr<const PolicyEpochState> policy_state;
  /// Observability endpoints resolved at publish time (see ServeObsHooks in
  /// serve/sharded_rank_server.h). Carried by the view, so a query pinned
  /// to an old epoch during a hot-swap records into the metrics of the
  /// policy that served it. Null when the server runs without metrics.
  std::shared_ptr<const ServeObsHooks> obs;

  size_t n() const { return det.size() + pool.size(); }
  /// Bytes held by the det, score and pool arrays.
  size_t bytes() const {
    return det.size() * (sizeof(uint32_t) + sizeof(double)) +
           pool.size() * sizeof(uint32_t);
  }
  /// The view as the policies' borrowed RankView (valid while it lives).
  RankView AsView() const {
    return {det.data(), det_score.data(), det.size(), pool.data(),
            pool.size()};
  }
};

/// Structural invariants of a published epoch built from `birth_step` and
/// `zero_awareness`: det is sorted by RankOrderBefore with det_score as the
/// score; det ∪ pool is a permutation of [0, n); and, when the policy's
/// PoolMembership draws no randomness, pool membership is exactly what it
/// says. Returns an empty string when every invariant holds, else the first
/// violation. O(n); run on every publish in debug and sanitizer builds.
std::string CheckEpochInvariants(const ServingView& view,
                                 const std::vector<uint8_t>& zero_awareness,
                                 const std::vector<int64_t>& birth_step);

/// Writer-side incremental builder of ServingViews. It holds a copy of the
/// inputs of the last *committed* epoch (popularity and birth step per page,
/// plus a pool bit: 16 B and 1 bit per page), diffs each new input against
/// it, and builds the next view from the previous one plus the sorted delta
/// — so a publish costs dense passes that parallelise plus work in the pages
/// that changed, not a re-sort of all n. The first publish and a policy
/// hot-swap are the same code with a larger delta.
///
/// Every pass runs per chunk: a page-id chunk of kChunkPages pages (the
/// diff, the pool and the commit) or a rank chunk of the det order (the
/// delta sort and the det merge). The chunk counts are functions of n only,
/// so a view never depends on how many threads built it: it is the
/// from-scratch sort of its inputs, bit for bit. When n spans two or more
/// chunks the builder owns a ThreadPool whose threads and the caller share
/// the chunks of each pass (half the hardware threads in all, at most one
/// per chunk); below that, or with fewer than four hardware threads, the
/// caller runs every pass alone.
///
/// A publish calls Diff, then Merge, then (only once the view is published)
/// Commit, each with the same `prev`: the view being served, null before the
/// first publish. A failure between them leaves the committed copy
/// untouched, so the next Diff starts again from the last published epoch.
class EpochBuilder {
 public:
  /// Pages per page-id chunk; a multiple of 64, so a chunk owns whole words
  /// of the per-page bitsets and chunks write disjoint memory.
  static constexpr size_t kChunkPages = size_t{1} << 17;

  explicit EpochBuilder(size_t num_pages);
  ~EpochBuilder();
  EpochBuilder(const EpochBuilder&) = delete;
  EpochBuilder& operator=(const EpochBuilder&) = delete;

  /// Validates the inputs and diffs them against the committed copy, then
  /// sorts the changed det pages by (score, birth, id). Pool membership
  /// comes from one `policy.PoolMembership` call per page, in id order
  /// within a chunk, drawing from `rng` with one chunk and, with more, from
  /// a stream per chunk seeded by one draw from `rng`. Throws
  /// std::invalid_argument when a size is not n or a popularity is NaN,
  /// infinite or negative (naming the lowest such page). Returns the pages
  /// changed.
  size_t Diff(const StochasticRankingPolicy& policy, const ServingView* prev,
              const std::vector<double>& popularity,
              const std::vector<uint8_t>& zero_awareness,
              const std::vector<int64_t>& birth_step, Rng& rng);

  /// Fills next->det, det_score and pool: `prev`'s det order minus the
  /// changed pages, merged with the sorted delta one rank chunk at a time;
  /// and the pool, ascending, from the new pool bits.
  void Merge(const ServingView* prev, ServingView* next);

  /// Advances the committed copy to the inputs of the last Diff (the same
  /// `popularity` and `birth_step`) and frees the delta. Call only after
  /// the view built from them is published.
  void Commit(const std::vector<double>& popularity,
              const std::vector<int64_t>& birth_step);

 private:
  /// A changed page with its new sort key (and a sort key in general).
  struct Entry {
    double score;
    int64_t birth;
    uint32_t id;
  };
  /// What the diff pass found in one page-id chunk.
  struct ChunkTally {
    size_t changed = 0;
    size_t pool = 0;
    size_t first_bad = SIZE_MAX;  // lowest page with a bad popularity
  };

  bool changed(uint32_t page) const {
    return (changed_bits_[page >> 6] >> (page & 63)) & 1;
  }
  /// Rank chunk of a key: how many splitters it does not rank before.
  size_t BucketOf(double score, int64_t birth, uint32_t page) const;
  /// Picks the rank-chunk splitters: `prev`'s det order at even ranks, or
  /// before the first publish the quantiles of a sample of the new keys.
  void ChooseSplitters(const ServingView* prev, const double* popularity,
                       const int64_t* birth);
  /// Runs body(i) for i in [0, tasks) on the workers; returns when all did.
  template <typename Body>
  void Run(size_t tasks, const Body& body);

  size_t n_;
  size_t chunks_;
  std::unique_ptr<ThreadPool> pool_;  // null when the caller runs every pass

  /// Whether an epoch was ever committed; before that every page changed
  /// and the committed arrays are unwritten.
  bool committed_ = false;
  PageVector<double> committed_popularity_;
  PageVector<int64_t> committed_birth_;
  std::vector<uint64_t> committed_pool_bits_;
  /// Per page, one bit each, from the last Diff: changed, and in the pool.
  std::vector<uint64_t> changed_bits_;
  std::vector<uint64_t> pool_bits_;

  std::vector<ChunkTally> tally_;
  /// Row c, column b: the det-entering (new key) and det-leaving (committed
  /// key) pages of page-id chunk c in rank chunk b. Diff then turns
  /// `entering_` into each row's write cursors for the scatter.
  std::vector<size_t> entering_;
  std::vector<size_t> leaving_;
  /// Rank chunk b holds the keys in [splitters_[b-1], splitters_[b]); the
  /// last Diff split det into splitters_.size() + 1 rank chunks.
  std::vector<Entry> splitters_;
  /// Per rank chunk b (and one past the last): its first rank in prev's
  /// det order, its first delta entry, and its first rank in the new det.
  std::vector<size_t> split_rank_;
  std::vector<size_t> delta_start_;
  std::vector<size_t> out_start_;
  /// Changed pages entering det, sorted within each rank chunk — so sorted.
  PageVector<Entry> delta_;
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_SERVING_VIEW_H_
