#ifndef RANDRANK_HARNESS_SWEEP_H_
#define RANDRANK_HARNESS_SWEEP_H_

#include <memory>
#include <string>
#include <vector>

#include "core/community.h"
#include "core/policy/stochastic_ranking_policy.h"
#include "core/ranking_policy.h"
#include "sim/agent_sim.h"
#include "sim/sim_result.h"

namespace randrank {

/// One point of a figure sweep: a (community, policy) pair plus run options.
struct SweepPoint {
  std::string label;
  /// Numeric x-axis value the point corresponds to (r, n, l, ...).
  double x = 0.0;
  CommunityParams params;
  /// Promotion-family configuration (the paper's figures sweep this).
  RankPromotionConfig config;
  /// General ranking policy; when set it overrides `config`. The simulator
  /// still rejects families without the agent_sim capability, so a sweep
  /// over mixed families fails loudly rather than plotting wrong dynamics.
  std::shared_ptr<const StochasticRankingPolicy> policy;
  SimOptions options;
};

/// A finished point.
struct SweepOutcome {
  SweepPoint point;
  SimResult result;
};

/// Runs every point's agent simulation on `threads` pool threads (0 =
/// hardware) and the calling thread.
/// Outcomes are returned in input order.
std::vector<SweepOutcome> RunAgentSweep(const std::vector<SweepPoint>& points,
                                        size_t threads = 0);

/// Averages `seeds` simulation repetitions per point (seed = base + i).
/// Replaces each outcome's scalar metrics by their mean across seeds.
std::vector<SweepOutcome> RunAgentSweepAveraged(
    const std::vector<SweepPoint>& points, size_t seeds, size_t threads = 0);

}  // namespace randrank

#endif  // RANDRANK_HARNESS_SWEEP_H_
