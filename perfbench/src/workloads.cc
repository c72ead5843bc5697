#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/policy/policy_factory.h"
#include "inputs.h"
#include "net/daemon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "serving.h"
#include "wire.h"

namespace perfbench {

using randrank::ServingPageState;
using randrank::ShardedRankServer;
using randrank::StochasticRankingPolicy;

namespace {

constexpr double kWarmupSeconds = 1.0;
/// Pause between set-up repetitions, so one burst of outside load cannot
/// cover all of them.
constexpr double kSetupPauseSeconds = 0.05;

/// The four policy families, by their MakePolicyFromLabel labels, with the
/// slug their per-layer metric uses.
struct Family {
  const char* slug;
  const char* label;
};
constexpr Family kFamilies[] = {
    {"selective", "selective(r=0.10,k=2)"},
    {"plackett-luce", "plackett-luce(T=0.05)"},
    {"eps-tail", "eps-tail(eps=0.10,k=10)"},
    {"ts-promo", "ts-promo(a=1.00,b=3.00,c=20.0,k=1)"},
};

std::shared_ptr<const StochasticRankingPolicy> Policy(const char* label) {
  std::string error;
  auto policy = randrank::MakePolicyFromLabel(label, &error);
  if (policy == nullptr) throw std::runtime_error(error);
  return policy;
}

/// Default ServeOptions apart from the seed and the observability hooks.
randrank::ServeOptions ServeOpts(uint64_t seed, bool traced,
                                 randrank::obs::MetricsRegistry* registry,
                                 randrank::obs::TraceLog* trace) {
  randrank::ServeOptions opts;
  opts.seed = MixSeed(seed, 3);
  if (traced) {
    opts.metrics = registry;
    opts.trace = trace;
  }
  return opts;
}

/// Publish phases are spans the server emits itself; query spans are off
/// (sample_every = 0) so tracing prices only what the benchmark records.
randrank::obs::TraceOptions ProgramTraceOptions() {
  randrank::obs::TraceOptions topts;
  topts.sample_every = 0;
  return topts;
}

void SleepFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

/// Per-layer publish metrics from one or more writers (one per family):
/// medians per writer, averaged over writers.
void SetPublishLayers(const std::vector<PublishStats>& writers,
                      MetricTable* layers) {
  const size_t w = writers.size();
  auto mean_median = [&](auto field) {
    return MeanOverFamilies(w, [&](size_t i) { return Median(writers[i].*field); });
  };
  layers->Set("serve.publish.update_ms", mean_median(&PublishStats::update_ms));
  layers->Set("serve.publish.shards_ms", mean_median(&PublishStats::shards_ms));
  layers->Set("serve.publish.merge_ms", mean_median(&PublishStats::merge_ms));
  layers->Set("serve.publish.epoch_state_ms",
              mean_median(&PublishStats::epoch_state_ms));
  layers->Set("serve.publish.rcu_ms", mean_median(&PublishStats::rcu_ms));
  layers->Set("serve.feedback.drain_ms", mean_median(&PublishStats::drain_ms));
  layers->Set("serve.feedback.fold_ms", mean_median(&PublishStats::fold_ms));
  layers->Set("serve.publish.changed_frac",
              mean_median(&PublishStats::changed_frac));
  double record_ns = 0;
  double records = 0;
  double phases = 0;
  double updates = 0;
  for (const PublishStats& s : writers) {
    record_ns += s.record_ns;
    records += s.records;
    phases += Sum(s.shards_ms) + Sum(s.merge_ms) + Sum(s.epoch_state_ms) +
              Sum(s.rcu_ms);
    updates += Sum(s.update_ms);
  }
  layers->Set("serve.feedback.record_ns", Ratio(record_ns, records));
  layers->Set("budget.publish_closure", Ratio(phases, updates));
}

void WriteSpans(const SpanLog& spans, const Options& opts, RunOutput* out) {
  if (opts.trace_out.empty()) return;
  out->notes.push_back("spans " + opts.trace_out + ": " +
                       std::to_string(spans.WriteJsonl(opts.trace_out)) +
                       " written, " + std::to_string(spans.dropped()) +
                       " dropped at the per-thread cap");
}

void CountPublishes(const std::vector<PublishStats>& writers, RunOutput* out) {
  for (const PublishStats& s : writers) {
    out->publishes_attempted += s.attempted;
    out->publishes_failed += s.failed;
  }
}

// --- wire --------------------------------------------------------------------

constexpr size_t kWirePages = 20000;
constexpr size_t kWireConnections = 3;
constexpr double kWireEpochSeconds = 0.25;
constexpr size_t kWireGateQueries = 4096;
constexpr double kWireProbeSeconds = 6.0;
constexpr double kEchoProbeSeconds = 2.0;
constexpr double kHandoffProbeSeconds = 2.5;

/// Runs before any timing: a NetDaemon with default options over an
/// n=20k selective server must answer, bit for bit, what an in-process
/// server built with the same seed and state serves.
void CheckWire(uint64_t seed, RunOutput* out) {
  const InputGenerator gen(seed, kWirePages);
  const ServingPageState mature = gen.MatureState();
  const auto policy = Policy(kFamilies[0].label);
  const randrank::ServeOptions sopts = ServeOpts(seed, false, nullptr, nullptr);
  ShardedRankServer server(policy, gen.n(), sopts);
  server.Update(mature.popularity, mature.zero_awareness, mature.birth_step);
  randrank::net::NetDaemon daemon(server);
  daemon.Start();
  ShardedRankServer reference(policy, gen.n(), sopts);
  reference.Update(mature.popularity, mature.zero_awareness,
                   mature.birth_step);
  std::string why = "cannot connect to the daemon";
  const int fd = ConnectLoopback(daemon.port());
  const bool ok =
      fd >= 0 && CheckWireAgainstReference(fd, kWireGateQueries, reference, &why);
  if (fd >= 0) ::close(fd);
  daemon.Drain();
  out->queries_sent += kWireGateQueries;
  if (!ok) {
    ++out->queries_failed;
    out->problems.push_back("wire replies differ from in-process serving: " +
                            why);
  }
}

struct WireProbe {
  WireStats client;
  PublishStats publish;
  randrank::net::NetDaemonStats daemon;
  // Read from the program's own histograms over the window.
  double request_p50_us = 0;
  double queue_wait_p50_us = 0;
  double mean_batch = 0;
  double serve_ns_per_query = 0;
};

/// The wire path, traced: an in-process NetDaemon (default options plus a
/// registry) over an n=20k selective server, one generator thread keeping
/// 16 QUERY(m=10) in flight on each of 3 loopback connections, and a writer
/// turning over an epoch every 250 ms.
WireProbe RunWireProbe(uint64_t seed, double seconds, SpanLog* spans) {
  WireProbe probe;
  const InputGenerator gen(seed, kWirePages);
  const ServingPageState mature = gen.MatureState();
  randrank::obs::MetricsRegistry registry;
  randrank::obs::TraceLog trace(ProgramTraceOptions());
  ShardedRankServer server(Policy(kFamilies[0].label), gen.n(),
                           ServeOpts(seed, true, &registry, &trace));
  server.Update(mature.popularity, mature.zero_awareness, mature.birth_step);
  randrank::net::NetDaemonOptions nopts;
  nopts.metrics = &registry;
  randrank::net::NetDaemon daemon(server, nopts);
  daemon.Start();
  std::vector<int> fds;
  for (size_t c = 0; c < kWireConnections; ++c) {
    const int fd = ConnectLoopback(daemon.port());
    if (fd < 0) {
      for (const int open_fd : fds) ::close(open_fd);
      throw std::runtime_error("cannot connect to the daemon");
    }
    fds.push_back(fd);
  }

  ServingPageState state = mature;
  EpochWriter writer(server, &state, gen, &trace, spans->NewBuffer());
  WireClient client(std::move(fds), kBatch, gen.n(), spans->NewBuffer());
  client.Start();
  std::atomic<bool> stop_writer{false};
  std::thread writer_thread;
  // Stops and joins the writer on every way out of this scope.
  struct StopAndJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~StopAndJoin() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } writer_guard{stop_writer, writer_thread};
  writer_thread = std::thread([&] {
    Clock::time_point next = Clock::now();
    while (!stop_writer.load(std::memory_order_acquire)) {
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kWireEpochSeconds));
      while (Clock::now() < next &&
             !stop_writer.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            next - Clock::now(), std::chrono::milliseconds(20)));
      }
      if (stop_writer.load(std::memory_order_acquire)) break;
      writer.RunEpoch();
    }
  });

  SleepFor(kWarmupSeconds);
  const randrank::obs::MetricsSnapshot before = registry.Snapshot();
  client.BeginWindow();
  SleepFor(seconds);
  probe.client = client.Stop();
  const randrank::obs::MetricsSnapshot after = registry.Snapshot();
  stop_writer.store(true, std::memory_order_release);
  writer_thread.join();
  probe.publish = writer.Finish();
  daemon.Drain();
  probe.daemon = daemon.stats();

  auto hist = [&](const std::string& name) {
    auto a = after.histograms.find(name);
    auto b = before.histograms.find(name);
    if (a == after.histograms.end()) return randrank::obs::HistogramSnapshot{};
    return b == before.histograms.end() ? a->second : a->second.Delta(b->second);
  };
  auto counter = [&](const std::string& name) {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    const uint64_t av = a == after.counters.end() ? 0 : a->second;
    const uint64_t bv = b == before.counters.end() ? 0 : b->second;
    return static_cast<double>(av - bv);
  };
  probe.request_p50_us = hist("net/request_ns").Quantile(0.5) * 1e-3;
  probe.queue_wait_p50_us = hist("queue/wait_ns").Quantile(0.5) * 1e-3;
  probe.mean_batch = Ratio(counter("queue/queries_total"),
                           counter("queue/batches_total"));
  randrank::obs::HistogramSnapshot serve;
  for (const auto& [name, snap] : after.histograms) {
    if (name.rfind("serve/latency_ns/", 0) == 0) serve.Merge(hist(name));
  }
  probe.serve_ns_per_query = serve.Mean();
  return probe;
}

/// The net and serve.queue layers: the traced wire probe, the loopback echo
/// floor and the in-process queue hand-off.
void SetWireLayers(uint64_t seed, SpanLog* spans, RunOutput* out) {
  const WireProbe probe = RunWireProbe(seed, kWireProbeSeconds, spans);
  out->queries_sent += probe.client.sent;
  out->queries_failed += probe.client.failed();
  CountPublishes({probe.publish}, out);

  double echo_p50_us = 0;
  {
    EchoServer echo;
    std::vector<int> fds;
    for (size_t c = 0; c < kWireConnections; ++c) {
      const int fd = ConnectLoopback(echo.port());
      if (fd < 0) {
        for (const int open_fd : fds) ::close(open_fd);
        throw std::runtime_error("cannot connect to the echo server");
      }
      fds.push_back(fd);
    }
    WireClient client(std::move(fds), kBatch, kTopM);
    client.Start();
    SleepFor(kWarmupSeconds / 2);
    client.BeginWindow();
    SleepFor(kEchoProbeSeconds);
    echo_p50_us = client.Stop().latency_ns.Quantile(0.5) * 1e-3;
  }
  double handoff_p50_us = 0;
  {
    const InputGenerator gen(seed, kWirePages);
    const ServingPageState mature = gen.MatureState();
    ShardedRankServer server(Policy(kFamilies[0].label), gen.n(),
                             ServeOpts(seed, false, nullptr, nullptr));
    server.Update(mature.popularity, mature.zero_awareness, mature.birth_step);
    handoff_p50_us = HandoffP50Us(server, kWireConnections * kBatch,
                                  kHandoffProbeSeconds, spans->NewBuffer());
  }

  const WireStats& c = probe.client;
  const double encode_ns = Ratio(c.encode_ns, static_cast<double>(c.encoded));
  const double decode_ns = Ratio(c.decode_ns, static_cast<double>(c.decoded));
  const double query_p50_us = c.latency_ns.Quantile(0.5) * 1e-3;
  const randrank::net::NetDaemonStats& d = probe.daemon;
  MetricTable& m = out->per_layer;
  m.Set("net.socket.echo_p50_us", echo_p50_us);
  m.Set("net.protocol.encode_ns", encode_ns);
  m.Set("net.protocol.decode_ns", decode_ns);
  m.Set("net.daemon.request_p50_us", probe.request_p50_us);
  m.Set("net.daemon.bytes_per_query",
        Ratio(static_cast<double>(d.bytes_read + d.bytes_written),
              static_cast<double>(d.queries)));
  m.Set("net.client.busy_frac", Ratio(c.cpu_ns * 1e-9, c.window_s));
  m.Set("serve.queue.handoff_p50_us", handoff_p50_us);
  m.Set("serve.queue.wait_p50_us", probe.queue_wait_p50_us);
  m.Set("serve.queue.mean_batch", probe.mean_batch);
  m.Set("budget.wire_closure",
        Ratio(echo_p50_us + handoff_p50_us +
                  (probe.serve_ns_per_query + encode_ns + decode_ns) * 1e-3,
              query_p50_us));
  out->notes.push_back(
      "net daemon: shed_overloaded " + std::to_string(d.shed_overloaded) +
      ", deadline_exceeded " + std::to_string(d.deadline_exceeded) +
      ", bad_frames " + std::to_string(d.bad_frames) +
      " (the client counts each such reply in failed)");
  out->notes.push_back(
      "wire probe (n=20k, 3 x 16 in flight): query_qps " +
      FormatNumber(Ratio(static_cast<double>(c.replies), c.window_s)) +
      " 1/s, query_p50_us " + FormatNumber(query_p50_us) + ", query_p90_us " +
      FormatNumber(c.latency_ns.Quantile(0.9) * 1e-3) + ", publish_p50_ms " +
      FormatNumber(Quantile(probe.publish.turnover_wall_ms, 0.5)) +
      " (wall clock), serve ns/query " +
      FormatNumber(probe.serve_ns_per_query));
}

// --- in-process workloads ----------------------------------------------------

struct InProcessPass {
  /// Set-up time per repetition: the time the setting-up thread ran or was
  /// blocked (RunnableClock), its CPU time, and the wall time.
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  double rss_step_mb = 0;
  ReadStats reads;
  std::vector<PublishStats> publish;  // one per server
};

/// Builds one server per policy label into the empty `*servers` and
/// publishes `mature` on each; returns the heap growth per first publish,
/// in MB.
double BuildServers(const std::vector<const char*>& labels, size_t n,
                    const randrank::ServeOptions& sopts,
                    const ServingPageState& mature,
                    std::vector<std::unique_ptr<ShardedRankServer>>* servers) {
  double step = 0;
  for (const char* label : labels) {
    servers->push_back(
        std::make_unique<ShardedRankServer>(Policy(label), n, sopts));
    const double heap_before = HeapInUseMb();
    servers->back()->Update(mature.popularity, mature.zero_awareness,
                            mature.birth_step);
    step += HeapInUseMb() - heap_before;
  }
  return step / static_cast<double>(labels.size());
}

/// Sets up `reps` times, recording each set-up's time in `*pass`;
/// `*servers` holds the last set-up's servers.
void BuildServersRepeatedly(
    const std::vector<const char*>& labels, size_t n,
    const randrank::ServeOptions& sopts, const ServingPageState& mature,
    size_t reps, std::vector<std::unique_ptr<ShardedRankServer>>* servers,
    InProcessPass* pass) {
  RunnableClock clock;
  for (size_t rep = 0; rep < reps; ++rep) {
    if (rep > 0) SleepFor(kSetupPauseSeconds);
    servers->clear();
    clock.Start();
    const double step = BuildServers(labels, n, sopts, mature, servers);
    clock.Stop();
    if (rep == 0) pass->rss_step_mb = step;
  }
  for (const RunnableClock::Interval& t : clock.Finish()) {
    pass->setup_s.push_back(t.seconds);
    pass->setup_cpu_s.push_back(t.cpu_seconds);
    pass->setup_wall_s.push_back(t.wall_seconds);
  }
}

/// publish-1m: 2 readers beside a writer turning over epochs back to back.
constexpr size_t kPublishPages = 1000000;
constexpr size_t kPublishReaders = 2;
constexpr size_t kPublishSetupReps = 5;

InProcessPass RunPublishPass(const InputGenerator& gen,
                             const ServingPageState& mature, uint64_t seed,
                             double seconds, size_t setup_reps, bool traced,
                             SpanLog* spans) {
  InProcessPass pass;
  randrank::obs::MetricsRegistry registry;
  randrank::obs::TraceLog trace(ProgramTraceOptions());
  std::vector<std::unique_ptr<ShardedRankServer>> servers;
  BuildServersRepeatedly({kFamilies[0].label}, gen.n(),
                         ServeOpts(seed, traced, &registry, &trace), mature,
                         setup_reps, &servers, &pass);

  ServingPageState state = mature;
  EpochWriter writer(*servers[0], &state, gen, traced ? &trace : nullptr,
                     traced ? spans->NewBuffer() : nullptr);
  ReaderPool readers({servers[0].get()}, kPublishReaders, gen.quality(),
                     traced ? spans : nullptr);
  readers.Start();
  // Warm-up: one epoch, not counted.
  writer.RunEpoch();
  writer.ResetStats();
  readers.BeginWindow();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) writer.RunEpoch();
  pass.reads = readers.Stop();
  pass.publish.push_back(writer.Finish());
  return pass;
}

/// rank-mix: 3 readers over the four families, no publishes while they
/// read; then a fixed run of quiet publishes per family.
constexpr size_t kRankMixPages = 100000;
constexpr size_t kRankMixReaders = 3;
constexpr size_t kRankMixSetupReps = 11;
constexpr uint64_t kQuietEpochs = 30;

InProcessPass RunRankMixPass(const InputGenerator& gen,
                             const ServingPageState& mature, uint64_t seed,
                             double seconds, size_t setup_reps, bool traced,
                             SpanLog* spans) {
  InProcessPass pass;
  randrank::obs::MetricsRegistry registry;
  randrank::obs::TraceLog trace(ProgramTraceOptions());
  std::vector<const char*> labels;
  for (const Family& f : kFamilies) labels.push_back(f.label);
  std::vector<std::unique_ptr<ShardedRankServer>> servers;
  BuildServersRepeatedly(labels, gen.n(),
                         ServeOpts(seed, traced, &registry, &trace), mature,
                         setup_reps, &servers, &pass);

  std::vector<ShardedRankServer*> raw;
  for (auto& s : servers) raw.push_back(s.get());
  {
    ReaderPool readers(raw, kRankMixReaders, gen.quality(),
                       traced ? spans : nullptr);
    readers.Start();
    SleepFor(kWarmupSeconds);
    readers.BeginWindow();
    SleepFor(seconds);
    pass.reads = readers.Stop();
  }

  SpanLog::Buffer* buf = traced ? spans->NewBuffer() : nullptr;
  for (size_t f = 0; f < servers.size(); ++f) {
    ServingPageState state = mature;
    EpochWriter writer(*servers[f], &state, gen, traced ? &trace : nullptr,
                       buf);
    for (uint64_t e = 1; e <= kQuietEpochs; ++e) writer.RunEpoch();
    pass.publish.push_back(writer.Finish());
  }
  return pass;
}

using PassFn = InProcessPass (*)(const InputGenerator&, const ServingPageState&,
                                 uint64_t, double, size_t, bool, SpanLog*);

struct WorkloadSpec {
  size_t pages;
  PassFn run_pass;
  size_t families;  // servers the readers spread their queries over
  size_t setup_reps;
  bool wire_layers;  // whether the traced run also prices the wire path
};

void RunInProcess(const Options& opts, const InputGenerator& gen,
                  const ServingPageState& mature, const WorkloadSpec& w,
                  RunOutput* out) {
  auto account = [&](const InProcessPass& pass) {
    out->queries_sent += pass.reads.checked;
    out->queries_failed += pass.reads.invalid;
    CountPublishes(pass.publish, out);
  };
  auto publish_quantile = [](const InProcessPass& pass, double q, auto field) {
    return MeanOverFamilies(pass.publish.size(), [&](size_t i) {
      return Quantile(pass.publish[i].*field, q);
    });
  };

  if (!opts.trace) {
    const InProcessPass pass = w.run_pass(gen, mature, opts.seed, opts.seconds,
                                          w.setup_reps, false, nullptr);
    account(pass);
    const ReadStats& r = pass.reads;
    MetricTable& m = out->end_to_end;
    m.Set("setup_s", Median(pass.setup_s));
    m.Set("query_qps", r.qps);
    m.Set("query_p50_us", MeanOverFamilies(w.families, [&](size_t f) {
            return r.latency_ns[f].Quantile(0.5) * 1e-3;
          }));
    m.Set("query_p90_us", MeanOverFamilies(w.families, [&](size_t f) {
            return r.latency_ns[f].Quantile(0.9) * 1e-3;
          }));
    m.Set("publish_p50_ms",
          publish_quantile(pass, 0.5, &PublishStats::turnover_ms));
    m.Set("publish_p90_ms",
          publish_quantile(pass, 0.9, &PublishStats::turnover_ms));
    m.Set("result_qpc", Ratio(r.qpc_sum, static_cast<double>(r.qpc_queries)));
    out->notes.push_back(
        "cpu time: setup_s " + FormatNumber(Median(pass.setup_cpu_s)) +
        ", query_qps " + FormatNumber(r.cpu_qps) + ", publish_p50_ms " +
        FormatNumber(
            publish_quantile(pass, 0.5, &PublishStats::turnover_cpu_ms)) +
        ", publish_p90_ms " +
        FormatNumber(
            publish_quantile(pass, 0.9, &PublishStats::turnover_cpu_ms)));
    out->notes.push_back(
        "wall clock: setup_s " + FormatNumber(Median(pass.setup_wall_s)) +
        ", query_qps " +
        FormatNumber(Ratio(static_cast<double>(r.queries), r.window_s)) +
        ", publish_p50_ms " +
        FormatNumber(
            publish_quantile(pass, 0.5, &PublishStats::turnover_wall_ms)) +
        ", publish_p90_ms " +
        FormatNumber(
            publish_quantile(pass, 0.9, &PublishStats::turnover_wall_ms)) +
        " (" + std::to_string(pass.publish[0].turnover_ms.size()) +
        " epochs per writer)");
    return;
  }

  SpanLog spans;
  const double half = opts.seconds / 2;
  const InProcessPass plain =
      w.run_pass(gen, mature, opts.seed, half, 1, false, nullptr);
  const InProcessPass traced =
      w.run_pass(gen, mature, opts.seed, half, 1, true, &spans);
  account(plain);
  account(traced);
  const ReadStats& r = traced.reads;
  MetricTable& m = out->per_layer;
  double total_ns = 0;
  for (size_t f = 0; f < w.families; ++f) {
    m.Set(std::string("core.policy.") + kFamilies[f].slug + ".ns_per_query",
          Ratio(r.family_ns[f], static_cast<double>(r.family_queries[f])));
    total_ns += r.family_ns[f];
  }
  m.Set("serve.server.ns_per_query",
        Ratio(total_ns, static_cast<double>(r.queries)));
  SetPublishLayers(traced.publish, &m);
  m.Set("serve.publish.rss_step_mb", traced.rss_step_mb);
  m.Set("obs.trace_overhead_frac",
        1.0 - Ratio(traced.reads.qps, plain.reads.qps));
  if (w.wire_layers) SetWireLayers(opts.seed, &spans, out);
  WriteSpans(spans, opts, out);
}

}  // namespace

RunOutput RunWorkload(const Options& opts) {
  RunOutput out;
  WorkloadSpec w{};
  if (opts.workload == "publish-1m") {
    w = {kPublishPages, &RunPublishPass, 1, kPublishSetupReps, false};
  } else if (opts.workload == "rank-mix") {
    w = {kRankMixPages, &RunRankMixPass, std::size(kFamilies),
         kRankMixSetupReps, true};
  } else {
    throw std::invalid_argument("unknown workload " + opts.workload);
  }
  // Input generation is the benchmark's own work: it precedes every timer.
  const InputGenerator gen(opts.seed, w.pages);
  const ServingPageState mature = gen.MatureState();
  out.input_digest = gen.Digest(mature);

  CheckWire(opts.seed, &out);
  RunInProcess(opts, gen, mature, w, &out);

  if (out.queries_failed > 0) {
    out.problems.push_back(std::to_string(out.queries_failed) +
                           " queries failed or returned invalid results");
  }
  if (out.publishes_failed > 0) {
    out.problems.push_back(std::to_string(out.publishes_failed) +
                           " publishes rolled back or lost visits");
  }
  out.correct = out.problems.empty();
  out.end_to_end.Set("rss_peak_mb", PeakRssMb());
  return out;
}

}  // namespace perfbench
