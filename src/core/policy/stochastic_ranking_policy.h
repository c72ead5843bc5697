#ifndef RANDRANK_CORE_POLICY_STOCHASTIC_RANKING_POLICY_H_
#define RANDRANK_CORE_POLICY_STOCHASTIC_RANKING_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pool_prefix_sampler.h"
#include "core/ranking_policy.h"
#include "util/rng.h"

namespace randrank {

/// What a ranking-policy family supports, declared up front so every layer
/// can pick its fast path (or refuse) without hardwiring per-family
/// knowledge. The simulation and model layers consult this descriptor
/// instead of switching on a concrete type:
///
///  * `Ranker::PageAtRank` uses the O(rank) lazy cascade only under
///    `lazy_prefix` and falls back to a prefix realization otherwise;
///  * `AgentSimulator` / `MeanFieldModel` reject families whose
///    `agent_sim` / `mean_field` bits are clear — explicitly, at
///    construction, instead of silently computing the wrong dynamics.
struct PolicyCapabilities {
  /// Prefix realizations cost O(m) expected time (and rank resolutions
  /// O(rank)) — the property behind MergePrefix/ResolveRankLazy.
  bool lazy_prefix = false;
  /// The agent simulator's ghost placement and visit dynamics apply.
  bool agent_sim = false;
  /// A mean-field visit map exists for this family.
  bool mean_field = false;
};

/// A borrowed, immutable view of the whole ranking state: the
/// deterministically ordered pages (best first, with their scores kept
/// alongside for weighted families) plus the stochastic pool. The serve
/// layer builds one from its published `ServingView`; the core layer builds
/// one from a `Ranker`. All arrays are borrowed — the owner must outlive the
/// view.
struct RankView {
  const uint32_t* det = nullptr;
  /// Sort keys of `det` (popularity; ties elsewhere by birth then id).
  /// May be null when no caller needs weights (promotion-family-only use).
  const double* det_score = nullptr;
  size_t det_size = 0;
  const uint32_t* pool = nullptr;
  size_t pool_size = 0;

  size_t n() const { return det_size + pool_size; }
};

/// Opaque, policy-owned state derived once per epoch from the view and
/// handed back to `ServePrefix` on every query of that epoch. A family
/// subclasses this with whatever it can precompute — Plackett-Luce's
/// Walker/Vose alias table over exp(score/T) — instead of the serve layer
/// growing a bespoke cache per family. Instances must be self-contained (no
/// borrowed pointers into the view they were built from) and immutable after
/// construction, so one instance is shared lock-free by all serving threads
/// and reclaimed with the epoch that built it.
class PolicyEpochState {
 public:
  virtual ~PolicyEpochState() = default;
};

/// Reusable per-caller scratch for ServePrefix: a sampler and buffers that
/// would otherwise allocate on every query. One scratch per serving thread;
/// a scratch must not be shared between concurrent calls. Policies use the
/// subset they need and leave the rest untouched.
struct PolicyScratch {
  /// Pool sampler (promotion and ts-promo families).
  PoolPrefixSampler pool_sampler;
  /// Pages already emitted this query (rejection tracking).
  std::unordered_set<uint32_t> emitted;
  /// (key, page) buffer for weighted families (Plackett-Luce top-m).
  std::vector<std::pair<double, uint32_t>> keyed;
};

/// A family of stochastic rankers: the policy owns (1) how pages are
/// partitioned into the deterministic list Ld versus the stochastic pool Pp,
/// and (2) how a fresh random realization of the result list is drawn from
/// that state. The paper's randomized rank promotion is one family; the
/// interface exists so the next family is a single new class instead of a
/// cross-cutting surgery through core, serve, sim, and bench.
///
/// Contract: each family has one realization path, `ServePrefix` over the
/// one view of the whole corpus. Its prefixes must follow the law of
/// `MaterializeReference` over the same view, with or without the epoch
/// state (the state only makes the draw cheaper). Every realization drawn
/// with the same policy over the same state is independent given `rng`.
class StochasticRankingPolicy {
 public:
  virtual ~StochasticRankingPolicy() = default;

  /// Stable human-readable label like "selective(r=0.10,k=2)" or
  /// "plackett-luce(T=0.25)"; bench JSONL keys perf points by it and
  /// MakePolicyFromLabel() inverts it.
  virtual std::string Label() const = 0;

  virtual PolicyCapabilities Capabilities() const = 0;

  /// True when the family's parameters are finite, in range and consistent.
  virtual bool Valid() const { return true; }

  /// Partition hook (subsumes PromoteToPool): whether a page with the given
  /// zero-awareness flag enters the stochastic pool Pp rather than the
  /// deterministic list Ld. Single source of truth — Ranker::Update, the
  /// server's EpochBuilder, and the simulator's ghost placement all consult
  /// it, or serving silently diverges from the simulated distribution. Must
  /// draw from `rng` a per-page-deterministic number of times (zero for
  /// most families).
  virtual bool PoolMembership(bool zero_awareness, Rng& rng) const = 0;

  /// Derives this family's per-epoch serving state from the view, or
  /// returns null when the family keeps none (the default — correct for
  /// families whose epoch-invariant state is exactly the view itself).
  /// Called once per Ranker::Update / epoch publish, never on the query
  /// path, and must not draw randomness (epoch state is a deterministic
  /// function of the ranking state). The returned object obeys the
  /// PolicyEpochState contract: self-contained and immutable.
  virtual std::shared_ptr<const PolicyEpochState> BuildEpochState(
      const RankView& view) const {
    (void)view;
    return nullptr;
  }

  /// Appends the first min(m, view.n()) slots of a fresh realization over
  /// `view` and returns how many were appended. `epoch_state` is either null
  /// or the product of this policy's BuildEpochState over exactly this view
  /// (never over a different epoch's view — the owner of the view owns its
  /// state); policies with no state ignore it. `scratch` is caller-owned and
  /// reused across queries.
  virtual size_t ServePrefix(const RankView& view,
                             const PolicyEpochState* epoch_state,
                             PolicyScratch& scratch, size_t m, Rng& rng,
                             std::vector<uint32_t>* out) const = 0;

  /// Reference realization of the full list over the view, implemented
  /// naively and independently of the ServePrefix fast path where possible
  /// — the distribution-equivalence tests compare the two. Not a hot path.
  virtual std::vector<uint32_t> MaterializeReference(const RankView& view,
                                                     Rng& rng) const = 0;

  /// Downcast hook: the promotion family's configuration, or nullptr for
  /// every other family. The simulation and analytic layers — whose ghost
  /// placement and visit maps are promotion-specific — use this to extract
  /// the config after checking Capabilities().
  virtual const RankPromotionConfig* AsPromotion() const { return nullptr; }
};

/// snprintf into a string as long as the label needs: a fixed buffer would
/// truncate a large finite parameter, and a truncated Label() no longer
/// parses back.
template <typename... Args>
std::string FormatLabel(const char* format, Args... args) {
  const int size = std::snprintf(nullptr, 0, format, args...);
  std::string label(static_cast<size_t>(size), '\0');
  std::snprintf(label.data(), label.size() + 1, format, args...);
  return label;
}

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_STOCHASTIC_RANKING_POLICY_H_
