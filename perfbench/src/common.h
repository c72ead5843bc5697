#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark: run options, the metric tables, in-memory
// spans for the traced run, the result check, thread timing, and the host
// record.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  /// Where the traced run writes its spans (JSONL); empty = nowhere.
  std::string trace_out;
};

/// Results slots per query and the rank->visit exponent of paper Eq. 4.
inline constexpr size_t kTopM = 10;
inline constexpr double kRankBiasExponent = 1.5;
/// Queries per in-process ServeBatch call, and per-connection in-flight
/// depth on the wire.
inline constexpr size_t kBatch = 16;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints, and the per-layer
/// metrics every traced run prints (BENCHMARK.json lists the same names).
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// Named metric values in table order; names outside the table throw.
class MetricTable {
 public:
  explicit MetricTable(const std::vector<MetricSpec>& specs);
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  const std::vector<MetricSpec>& specs() const { return *specs_; }

 private:
  const std::vector<MetricSpec>* specs_;
  std::map<std::string, double> values_;
};

/// Median and percentiles of a plain sample; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One span: a timed call into a layer's public API, made from the
/// benchmark's own code.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  double items = 1;     // queries or visits the call covered
};

/// In-memory span sink for the traced run. Each thread records into its
/// own buffer (no locking on the hot path); buffers stop recording at a cap
/// and count what they drop. Written out once, at the end of the run.
class SpanLog {
 public:
  class Buffer {
   public:
    /// A fresh span id, for a span whose children start before it ends.
    uint64_t NewId();
    /// Records a finished span (under `id`, or a fresh one when 0).
    void Add(const char* name, uint64_t start_ns, uint64_t end_ns,
             uint64_t parent = 0, double items = 1, uint64_t id = 0);

   private:
    friend class SpanLog;
    explicit Buffer(SpanLog* log, uint32_t thread) : log_(log), thread_(thread) {}
    SpanLog* log_;
    uint32_t thread_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
  };

  explicit SpanLog(size_t per_thread_cap = 50000) : cap_(per_thread_cap) {}
  /// A new buffer for one thread; stays valid for the log's lifetime.
  Buffer* NewBuffer();
  /// Writes every span as one JSONL line; returns the number written.
  size_t WriteJsonl(const std::string& path) const;
  uint64_t dropped() const;

 private:
  const size_t cap_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Spans of per-query calls (ServeBatch, wire round trips, queue
/// hand-offs) are kept for one call in kSpanStride, so the kept spans cover
/// the whole run; per-epoch calls are always kept.
inline constexpr uint64_t kSpanStride = 64;

/// Times one call into a layer and records it when a buffer is given.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog::Buffer* buf, const char* name, uint64_t parent = 0)
      : buf_(buf),
        name_(name),
        parent_(parent),
        id_(buf != nullptr ? buf->NewId() : 0),
        start_(NowNs()) {}
  /// Ends the span (idempotent) and returns its duration in ns.
  uint64_t End(double items = 1);
  ~ScopedSpan() { End(); }
  uint64_t id() const { return id_; }

 private:
  SpanLog::Buffer* buf_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  uint64_t start_;
  uint64_t dur_ = 0;
  bool done_ = false;
};

/// Checks one served result list: false when it is invalid — wrong length
/// (must be min(m, n)), an id >= n, or a repeated id.
bool CheckResult(const uint32_t* ids, size_t count, size_t m, size_t n);

/// Quality per click of one valid result list: the true quality of each
/// slot weighted by the rank->visit law (paper Eq. 4, exponent 3/2).
double ResultQpc(const uint32_t* ids, size_t count,
                 const std::vector<double>& quality);

/// CPU time of the calling thread, in ns.
uint64_t ThreadCpuNs();

/// Times intervals on one thread counting the time it ran or was blocked
/// (asleep on a lock, waiting for helper threads), and leaving out the
/// time it could not run: its run-queue delay (/proc/thread-self/schedstat)
/// and the hypervisor's steal. /proc/stat counts steal per CPU in 10 ms
/// ticks, too coarse for one interval, so an interval is charged its CPU
/// time times the steal per busy tick, over the whole phase, of the CPU it
/// started on. Keep intervals short enough that the thread seldom migrates
/// inside one (Lap splits a long one).
class RunnableClock {
 public:
  struct Interval {
    double seconds = 0;      // ran or blocked
    double cpu_seconds = 0;  // ran
    double wall_seconds = 0;
  };

  /// Opens the phase.
  RunnableClock();
  /// Opens and closes one interval; Lap closes one and opens the next.
  void Start();
  void Stop();
  void Lap();
  /// Closes the phase; returns the intervals in the order they were timed.
  std::vector<Interval> Finish() const;

 private:
  struct Sample {
    uint64_t wall_ns = 0;
    uint64_t exec_ns = 0;
    uint64_t queued_ns = 0;
    int cpu = -1;
  };
  static Sample Now();

  /// Per CPU id: steal and busy ticks at the start of the phase.
  std::vector<std::pair<uint64_t, uint64_t>> ticks_start_;
  Sample open_;
  std::vector<std::pair<Sample, Sample>> intervals_;
};

/// Peak resident set of the process, in MB (getrusage).
double PeakRssMb();
/// Heap bytes in use (malloc's own count), in MB: unlike RSS it does not
/// hide an allocation that reuses memory freed earlier.
double HeapInUseMb();

/// Aggregate CPU tick counters from /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t idle = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// nproc, CPU model, build type, git sha, and the steal/idle shares of the
/// host over the measured window — printed with every run so runs taken on
/// a noisy host can be set aside.
struct HostRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string git_sha;
  double steal_frac = 0;
  double idle_frac = 0;
};
HostRecord MakeHostRecord(const Options& opts, const CpuTicks& begin,
                          const CpuTicks& end);
std::string HostRecordJson(const HostRecord& host);

/// Formats a double with all its significant digits.
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
