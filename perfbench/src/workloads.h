#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Everything one run of one workload reports.
struct RunOutput {
  /// Every gate passed: the wire-vs-in-process check, every reply valid,
  /// every publish committed with the visits it was fed.
  bool correct = true;
  std::vector<std::string> problems;
  uint64_t queries_sent = 0;
  uint64_t queries_failed = 0;
  uint64_t publishes_attempted = 0;
  uint64_t publishes_failed = 0;
  uint64_t input_digest = 0;
  /// Extra lines for the human-readable output.
  std::vector<std::string> notes;
  MetricTable end_to_end{kEndToEnd};
  MetricTable per_layer{kPerLayer};
};

/// Runs one workload. Untraced runs fill `end_to_end`; traced runs fill
/// `per_layer` (splitting the time between an untraced and a traced pass,
/// so the tracing overhead can be priced).
RunOutput RunWorkload(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
