#ifndef RANDRANK_SERVE_SERVING_VIEW_H_
#define RANDRANK_SERVE_SERVING_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "util/rng.h"

namespace randrank {

struct ServeObsHooks;

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
  std::vector<uint32_t> det;
  std::vector<double> det_score;
  /// Stochastic pool in ascending page id (order is irrelevant to serving:
  /// every draw path samples it uniformly).
  std::vector<uint32_t> pool;
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
  /// The view as a borrowed single policy view (valid while it lives).
  ShardView AsView() const {
    return {det.data(), det_score.data(), nullptr,
            det.size(), pool.data(),      pool.size()};
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
/// inputs of the last *committed* epoch (popularity, birth step and pool
/// bit per page: 17 B/page), diffs each new input against it, and builds
/// the next view from the previous one plus the sorted delta — so a publish
/// costs one sequential pass plus work in the pages that changed, not a
/// re-sort of all n. The first publish and a policy hot-swap are the same
/// code with a larger delta.
///
/// A publish calls Diff, then Merge, then (only once the view is published)
/// Commit. A failure between them leaves the committed copy untouched, so
/// the next Diff starts again from the last published epoch.
class EpochBuilder {
 public:
  explicit EpochBuilder(size_t num_pages);

  /// Validates the inputs and diffs them against the committed copy, then
  /// sorts the changed det pages by (score, birth, id). Pool membership
  /// comes from `policy.PoolMembership`, called once per page in id order
  /// with `rng`. Throws std::invalid_argument when a size is not n or a
  /// popularity is NaN, infinite or negative. Returns the pages changed.
  size_t Diff(const StochasticRankingPolicy& policy,
              const std::vector<double>& popularity,
              const std::vector<uint8_t>& zero_awareness,
              const std::vector<int64_t>& birth_step, Rng& rng);

  /// Fills next->det, det_score and pool: one linear merge of `prev`'s det
  /// order, minus the changed pages, with the sorted delta; and the same
  /// for the pool in page-id order. `prev` is the last committed view, or
  /// null before the first publish.
  void Merge(const ServingView* prev, ServingView* next) const;

  /// Advances the committed copy to the inputs of the last Diff and frees
  /// the delta. Call only after the view built from them is published.
  void Commit();

 private:
  /// A changed page with its new sort key.
  struct Entry {
    double score;
    int64_t birth;
    uint32_t id;
  };

  bool changed(uint32_t page) const {
    return (changed_bits_[page >> 6] >> (page & 63)) & 1;
  }

  size_t n_;
  std::vector<double> committed_popularity_;
  std::vector<int64_t> committed_birth_;
  /// 0 = det, 1 = pool, 2 = never published (differs from every new bit).
  std::vector<uint8_t> committed_pool_;
  /// Pages the last Diff found changed, one bit each.
  std::vector<uint64_t> changed_bits_;
  /// Changed pages entering det (sorted by key) and the pool (by id).
  std::vector<Entry> det_delta_;
  std::vector<Entry> pool_delta_;
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_SERVING_VIEW_H_
