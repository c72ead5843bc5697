#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"query_qps", "1/s"},
    {"query_p50_us", "us"},
    {"query_p90_us", "us"},
    {"publish_p50_ms", "ms"},
    {"publish_p90_ms", "ms"},
    {"rss_peak_mb", "MB"},
    {"result_qpc", "quality"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"net.socket.echo_p50_us", "us"},
    {"net.protocol.encode_ns", "ns"},
    {"net.protocol.decode_ns", "ns"},
    {"net.daemon.request_p50_us", "us"},
    {"net.daemon.bytes_per_query", "bytes"},
    {"net.client.busy_frac", "ratio"},
    {"serve.queue.handoff_p50_us", "us"},
    {"serve.queue.wait_p50_us", "us"},
    {"serve.queue.mean_batch", "queries"},
    {"serve.server.ns_per_query", "ns"},
    {"core.policy.selective.ns_per_query", "ns"},
    {"core.policy.plackett-luce.ns_per_query", "ns"},
    {"core.policy.eps-tail.ns_per_query", "ns"},
    {"core.policy.ts-promo.ns_per_query", "ns"},
    {"serve.publish.update_ms", "ms"},
    {"serve.publish.shards_ms", "ms"},
    {"serve.publish.merge_ms", "ms"},
    {"serve.publish.epoch_state_ms", "ms"},
    {"serve.publish.rcu_ms", "ms"},
    {"serve.publish.rss_step_mb", "MB"},
    {"serve.publish.changed_frac", "ratio"},
    {"serve.feedback.record_ns", "ns"},
    {"serve.feedback.drain_ms", "ms"},
    {"serve.feedback.fold_ms", "ms"},
    {"host.steal_frac", "ratio"},
    {"budget.wire_closure", "ratio"},
    {"budget.publish_closure", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
};

MetricTable::MetricTable(const std::vector<MetricSpec>& specs)
    : specs_(&specs) {
  for (const MetricSpec& s : specs) values_[s.name] = 0.0;
}

void MetricTable::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown metric " + name);
  it->second = value;
}

double MetricTable::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown metric " + name);
  return it->second;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// --- Spans -------------------------------------------------------------------

uint64_t SpanLog::Buffer::NewId() {
  return log_->next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Buffer::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                          uint64_t parent, double items, uint64_t id) {
  if (spans_.size() >= log_->cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, start_ns, end_ns, id != 0 ? id : NewId(), parent,
                    items});
}

SpanLog::Buffer* SpanLog::NewBuffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::unique_ptr<Buffer>(
      new Buffer(this, static_cast<uint32_t>(buffers_.size()))));
  buffers_.back()->spans_.reserve(std::min<size_t>(cap_, 4096));
  return buffers_.back().get();
}

size_t SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return 0;
  size_t written = 0;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans_) {
      out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"thread\":" << buf->thread_
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"items\":" << FormatNumber(s.items) << "}\n";
      ++written;
    }
  }
  return written;
}

uint64_t SpanLog::dropped() const {
  uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->dropped_;
  return total;
}

uint64_t ScopedSpan::End(double items) {
  if (done_) return dur_;
  done_ = true;
  const uint64_t end = NowNs();
  dur_ = end - start_;
  if (buf_ != nullptr) buf_->Add(name_, start_, end, parent_, items, id_);
  return dur_;
}

// --- Result check ------------------------------------------------------------

bool CheckResult(const uint32_t* ids, size_t count, size_t m, size_t n) {
  if (count != std::min(m, n)) return false;
  for (size_t i = 0; i < count; ++i) {
    if (ids[i] >= n) return false;
    for (size_t j = 0; j < i; ++j) {
      if (ids[j] == ids[i]) return false;
    }
  }
  return true;
}

double ResultQpc(const uint32_t* ids, size_t count,
                 const std::vector<double>& quality) {
  static const std::vector<double> kWeights = [] {
    std::vector<double> w(kTopM);
    for (size_t i = 0; i < kTopM; ++i) {
      w[i] = std::pow(static_cast<double>(i + 1), -kRankBiasExponent);
    }
    return w;
  }();
  double score = 0.0;
  double weight = 0.0;
  for (size_t i = 0; i < count && i < kTopM; ++i) {
    score += kWeights[i] * quality[ids[i]];
    weight += kWeights[i];
  }
  return weight > 0 ? score / weight : 0.0;
}

// --- Process and host --------------------------------------------------------

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

/// Steal and busy (user, nice, system, irq, softirq) ticks so far, indexed
/// by CPU id.
std::vector<std::pair<uint64_t, uint64_t>> StealAndBusyTicks() {
  std::vector<std::pair<uint64_t, uint64_t>> ticks;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        line[3] < '0' || line[3] > '9') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    size_t cpu = 0;
    uint64_t v[8] = {};
    fields >> cpu;
    for (uint64_t& x : v) fields >> x;
    if (cpu >= ticks.size()) ticks.resize(cpu + 1);
    ticks[cpu] = {v[7], v[0] + v[1] + v[2] + v[5] + v[6]};
  }
  return ticks;
}

}  // namespace

RunnableClock::Sample RunnableClock::Now() {
  Sample s;
  s.wall_ns = NowNs();
  s.cpu = sched_getcpu();
  // "<ns on a CPU> <ns waiting in a run queue> <timeslices>"
  std::ifstream in("/proc/thread-self/schedstat");
  if (!(in >> s.exec_ns >> s.queued_ns)) {
    s.exec_ns = ThreadCpuNs();
    s.queued_ns = 0;
  }
  return s;
}

RunnableClock::RunnableClock() : ticks_start_(StealAndBusyTicks()) {}

void RunnableClock::Start() { open_ = Now(); }

void RunnableClock::Stop() { intervals_.emplace_back(open_, Now()); }

void RunnableClock::Lap() {
  const Sample now = Now();
  intervals_.emplace_back(open_, now);
  open_ = now;
}

std::vector<RunnableClock::Interval> RunnableClock::Finish() const {
  const auto ticks_end = StealAndBusyTicks();
  auto steal_per_busy = [&](int cpu) {
    const auto c = static_cast<size_t>(cpu);
    if (cpu < 0 || c >= ticks_start_.size() || c >= ticks_end.size()) return 0.0;
    const double busy =
        static_cast<double>(ticks_end[c].second - ticks_start_[c].second);
    return busy > 0 ? static_cast<double>(ticks_end[c].first -
                                          ticks_start_[c].first) / busy
                    : 0.0;
  };
  std::vector<Interval> out;
  for (const auto& [a, b] : intervals_) {
    const double wall = static_cast<double>(b.wall_ns - a.wall_ns);
    const double exec = static_cast<double>(b.exec_ns - a.exec_ns);
    const double queued = static_cast<double>(b.queued_ns - a.queued_ns);
    // The CPU-time counters tick coarsely on some hosts, so `exec` is only
    // used for the small steal share, never as a floor.
    const double runnable =
        std::clamp(wall - queued - exec * steal_per_busy(a.cpu), 0.0, wall);
    out.push_back({runnable * 1e-9, exec * 1e-9, wall * 1e-9});
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal) {
    ticks.idle = idle + iowait;
    ticks.steal = steal;
    ticks.total = user + nice + system + idle + iowait + irq + softirq + steal;
  }
  return ticks;
}

HostRecord MakeHostRecord(const Options& opts, const CpuTicks& begin,
                          const CpuTicks& end) {
  HostRecord host;
  host.nproc = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.git_sha = opts.git_sha;
  const double total = static_cast<double>(end.total - begin.total);
  if (total > 0) {
    host.steal_frac = static_cast<double>(end.steal - begin.steal) / total;
    host.idle_frac = static_cast<double>(end.idle - begin.idle) / total;
  }
  return host;
}

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}
}  // namespace

std::string HostRecordJson(const HostRecord& host) {
  std::ostringstream os;
  os << "{\"nproc\":" << host.nproc
     << ",\"cpu_model\":" << JsonString(host.cpu_model)
     << ",\"build_type\":" << JsonString(host.build_type)
     << ",\"git_sha\":" << JsonString(host.git_sha)
     << ",\"steal_frac\":" << FormatNumber(host.steal_frac)
     << ",\"idle_frac\":" << FormatNumber(host.idle_frac) << "}";
  return os.str();
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace perfbench
