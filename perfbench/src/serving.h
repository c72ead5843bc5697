#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

// The two in-process roles every workload is built from: the single writer
// that turns over epochs (RecordVisit -> DrainVisits -> FoldVisits ->
// Update), and reader threads that run ServeBatch without pause and check
// every result they get.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"

namespace perfbench {

/// What one writer measured. Times are per epoch, in ms unless noted.
struct PublishStats {
  uint64_t attempted = 0;
  /// Update calls that rolled back, plus epochs whose drained visit total
  /// differed from what was recorded.
  uint64_t failed = 0;
  /// DrainVisits through Update returning: the time the writer ran or was
  /// blocked (RunnableClock: run-queue delay and steal left out), and, for
  /// reference, its CPU time and the wall time.
  std::vector<double> turnover_ms;
  std::vector<double> turnover_cpu_ms;
  std::vector<double> turnover_wall_ms;
  std::vector<double> update_ms;
  std::vector<double> drain_ms;
  std::vector<double> fold_ms;
  double record_ns = 0;  // total time in RecordVisit + FlushFeedback
  double records = 0;    // visits recorded
  /// Traced runs only: publish phases read from the server's own
  /// publish/* spans, and the share of pages each epoch changed.
  std::vector<double> shards_ms;
  std::vector<double> merge_ms;
  std::vector<double> epoch_state_ms;
  std::vector<double> rcu_ms;
  std::vector<double> changed_frac;
};

/// Turns over epochs on one server from seeded inputs.
class EpochWriter {
 public:
  /// `state` is the page state the server was last published from; it is
  /// advanced in place, and the epochs are the EpochStream after it.
  /// `program_trace` is the TraceLog the server was built with (traced
  /// runs), `spans` the writer thread's span buffer.
  EpochWriter(randrank::ShardedRankServer& server,
              randrank::ServingPageState* state, const InputGenerator& gen,
              randrank::obs::TraceLog* program_trace, SpanLog::Buffer* spans);

  /// The next epoch: seeded visits through RecordVisit, seeded deaths, then
  /// DrainVisits -> FoldVisits -> Update.
  void RunEpoch();

  /// Forgets the epochs run so far (warm-up).
  void ResetStats();
  /// What the epochs since the last reset measured.
  PublishStats Finish() const;

 private:
  void ReadProgramSpans();

  randrank::ShardedRankServer& server_;
  randrank::ServingPageState* state_;
  const InputGenerator& gen_;
  EpochStream stream_;
  RunnableClock clock_;
  randrank::obs::TraceLog* program_trace_;
  SpanLog::Buffer* spans_;
  randrank::ShardedRankServer::Context ctx_;
  PublishStats stats_;
  /// Traced runs: the state as last published, to count changed pages.
  std::vector<double> prev_popularity_;
  std::vector<uint8_t> prev_zero_;
  std::vector<int64_t> prev_birth_;
};

/// What the readers measured inside the window.
struct ReadStats {
  double window_s = 0;
  /// Every query served and checked, warm-up included, and those whose
  /// result was invalid.
  uint64_t checked = 0;
  uint64_t invalid = 0;
  /// Queries served inside the window.
  uint64_t queries = 0;
  /// Sum over readers of queries / the seconds the reader ran or was
  /// blocked in the window (RunnableClock: run-queue delay and steal left
  /// out); and, for reference, of queries / reader CPU seconds.
  double qps = 0;
  double cpu_qps = 0;
  /// Quality per click summed over the scored queries (one batch in
  /// kQpcStride; looking up true qualities for every query would make the
  /// readers' own cache misses a large part of what they measure).
  double qpc_sum = 0;
  uint64_t qpc_queries = 0;
  /// Per server (family): ServeBatch call latency, queries, time in calls.
  std::vector<randrank::obs::HistogramSnapshot> latency_ns;
  std::vector<uint64_t> family_queries;
  std::vector<double> family_ns;
};

inline constexpr uint64_t kQpcStride = 8;
/// ServeBatch calls per RunnableClock interval of a reader (tens of ms).
inline constexpr uint64_t kLapBatches = 4096;

/// Reader threads over one or more servers. Each thread owns a Context per
/// server and serves them in turn, one ServeBatch of kBatch queries each,
/// so every server gets an equal query count.
class ReaderPool {
 public:
  /// Results are scored against `quality` (the pages' true quality).
  ReaderPool(std::vector<randrank::ShardedRankServer*> servers, size_t threads,
             const std::vector<double>& quality, SpanLog* spans);
  ~ReaderPool();
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Starts the threads; they serve (warm-up) until BeginWindow.
  void Start();
  /// Resets the counters and opens the measured window.
  void BeginWindow();
  /// Closes the window, stops and joins the threads.
  ReadStats Stop();

 private:
  void Loop();

  std::vector<randrank::ShardedRankServer*> servers_;
  const size_t threads_;
  const std::vector<double>& quality_;
  SpanLog* spans_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> in_window_{false};
  Clock::time_point window_start_;
  std::mutex mutex_;
  ReadStats merged_;  // guarded by mutex_
  std::vector<std::thread> workers_;
};

/// The mean of `value(f)` over families f — how workloads serving several
/// families report a percentile without letting the gaps between families
/// decide it.
template <typename F>
double MeanOverFamilies(size_t families, F value) {
  double total = 0;
  for (size_t f = 0; f < families; ++f) total += value(f);
  return families > 0 ? total / static_cast<double>(families) : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
