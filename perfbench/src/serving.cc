#include "serving.h"

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>

#include "util/rng.h"

namespace perfbench {

using randrank::ShardedRankServer;

EpochWriter::EpochWriter(ShardedRankServer& server,
                         randrank::ServingPageState* state,
                         const InputGenerator& gen,
                         randrank::obs::TraceLog* program_trace,
                         SpanLog::Buffer* spans)
    : server_(server),
      state_(state),
      gen_(gen),
      stream_(gen, *state),
      program_trace_(program_trace),
      spans_(spans),
      ctx_(server.CreateContext()) {
  if (spans_ != nullptr) {
    prev_popularity_ = state_->popularity;
    prev_zero_ = state_->zero_awareness;
    prev_birth_ = state_->birth_step;
  }
  if (program_trace_ != nullptr) program_trace_->Drain();
}

void EpochWriter::ResetStats() {
  stats_ = PublishStats{};
  clock_ = RunnableClock();
}

PublishStats EpochWriter::Finish() const {
  PublishStats out = stats_;
  for (const RunnableClock::Interval& t : clock_.Finish()) {
    out.turnover_ms.push_back(t.seconds * 1e3);
    out.turnover_cpu_ms.push_back(t.cpu_seconds * 1e3);
    out.turnover_wall_ms.push_back(t.wall_seconds * 1e3);
  }
  return out;
}

void EpochWriter::RunEpoch() {
  const EpochInput& in = stream_.Next();
  const uint64_t epoch = stream_.epoch();

  ScopedSpan record(spans_, "serve.feedback.record_visit");
  for (const uint32_t page : in.visits) server_.RecordVisit(ctx_, page);
  server_.FlushFeedback(ctx_);
  stats_.record_ns += static_cast<double>(
      record.End(static_cast<double>(in.visits.size())));
  stats_.records += static_cast<double>(in.visits.size());

  ApplyDeaths(in, static_cast<int64_t>(epoch), state_);

  clock_.Start();
  ScopedSpan turnover(spans_, "serve.publish.turnover");
  ScopedSpan drain(spans_, "serve.feedback.drain_visits", turnover.id());
  const std::vector<uint64_t> visits = server_.DrainVisits();
  const uint64_t drain_ns = drain.End();
  ScopedSpan fold(spans_, "serve.feedback.fold_visits", turnover.id());
  randrank::Rng fold_rng(gen_.FoldSeed(epoch));
  randrank::FoldVisits(visits, state_, fold_rng);
  const uint64_t fold_ns = fold.End();
  ScopedSpan update(spans_, "serve.publish.update", turnover.id());
  const bool ok = server_.Update(state_->popularity, state_->zero_awareness,
                                 state_->birth_step);
  const uint64_t update_ns = update.End();
  turnover.End();
  clock_.Stop();

  ++stats_.attempted;
  const uint64_t drained =
      std::accumulate(visits.begin(), visits.end(), uint64_t{0});
  if (!ok || drained != in.visits.size()) ++stats_.failed;
  stats_.update_ms.push_back(static_cast<double>(update_ns) * 1e-6);
  stats_.drain_ms.push_back(static_cast<double>(drain_ns) * 1e-6);
  stats_.fold_ms.push_back(static_cast<double>(fold_ns) * 1e-6);

  if (program_trace_ != nullptr) ReadProgramSpans();
  if (spans_ != nullptr) {
    size_t changed = 0;
    for (size_t p = 0; p < state_->n(); ++p) {
      changed += state_->popularity[p] != prev_popularity_[p] ||
                 state_->zero_awareness[p] != prev_zero_[p] ||
                 state_->birth_step[p] != prev_birth_[p];
    }
    stats_.changed_frac.push_back(static_cast<double>(changed) /
                                  static_cast<double>(state_->n()));
    prev_popularity_ = state_->popularity;
    prev_zero_ = state_->zero_awareness;
    prev_birth_ = state_->birth_step;
  }
}

void EpochWriter::ReadProgramSpans() {
  // Lines look like {"bench":"span/publish/shards","dur_us":123.4,...}.
  for (const std::string& line : program_trace_->Drain()) {
    const size_t name_at = line.find("\"span/publish/");
    const size_t dur_at = line.find("\"dur_us\":");
    if (name_at == std::string::npos || dur_at == std::string::npos) continue;
    const size_t start = name_at + std::strlen("\"span/publish/");
    const std::string phase = line.substr(start, line.find('"', start) - start);
    const double ms =
        std::strtod(line.c_str() + dur_at + std::strlen("\"dur_us\":"),
                    nullptr) * 1e-3;
    if (phase == "shards") {
      stats_.shards_ms.push_back(ms);
    } else if (phase == "merge") {
      stats_.merge_ms.push_back(ms);
    } else if (phase == "epoch_state") {
      stats_.epoch_state_ms.push_back(ms);
    } else if (phase == "rcu_publish") {
      stats_.rcu_ms.push_back(ms);
    }
  }
}

ReaderPool::ReaderPool(std::vector<ShardedRankServer*> servers, size_t threads,
                       const std::vector<double>& quality, SpanLog* spans)
    : servers_(std::move(servers)),
      threads_(threads),
      quality_(quality),
      spans_(spans) {
  merged_.latency_ns.resize(servers_.size());
  merged_.family_queries.assign(servers_.size(), 0);
  merged_.family_ns.assign(servers_.size(), 0.0);
}

ReaderPool::~ReaderPool() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ReaderPool::Start() {
  for (size_t t = 0; t < threads_; ++t) {
    workers_.emplace_back([this] { Loop(); });
  }
}

void ReaderPool::BeginWindow() {
  window_start_ = Clock::now();
  in_window_.store(true, std::memory_order_release);
}

ReadStats ReaderPool::Stop() {
  const double window_s = SecondsSince(window_start_);
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  merged_.window_s = window_s;
  return merged_;
}

void ReaderPool::Loop() {
  const size_t families = servers_.size();
  std::vector<ShardedRankServer::Context> contexts;
  for (ShardedRankServer* s : servers_) contexts.push_back(s->CreateContext());
  SpanLog::Buffer* buf = spans_ != nullptr ? spans_->NewBuffer() : nullptr;
  randrank::QueryBatch batch(kTopM, kBatch);

  ReadStats local;
  local.family_queries.assign(families, 0);
  local.family_ns.assign(families, 0.0);
  std::vector<std::unique_ptr<randrank::obs::LatencyHistogram>> latency;
  for (size_t f = 0; f < families; ++f) {
    latency.push_back(std::make_unique<randrank::obs::LatencyHistogram>());
  }
  std::vector<randrank::obs::HistogramSnapshot> warmup_latency;
  bool in_window = false;
  std::optional<RunnableClock> clock;
  uint64_t batches = 0;

  while (!stop_.load(std::memory_order_acquire)) {
    if (!in_window && in_window_.load(std::memory_order_acquire)) {
      // Warm-up is over: discard what was measured so far, but keep the
      // failure count.
      in_window = true;
      clock.emplace();
      clock->Start();
      const uint64_t checked = local.checked;
      const uint64_t invalid = local.invalid;
      local = ReadStats{};
      local.checked = checked;
      local.invalid = invalid;
      for (const auto& h : latency) warmup_latency.push_back(h->Snapshot());
      local.family_queries.assign(families, 0);
      local.family_ns.assign(families, 0.0);
    }
    for (size_t f = 0; f < families; ++f) {
      ShardedRankServer& server = *servers_[f];
      const uint64_t t0 = NowNs();
      server.ServeBatch(contexts[f], &batch);
      const uint64_t t1 = NowNs();
      if (buf != nullptr && batches % kSpanStride == 0) {
        buf->Add("serve.server.serve_batch", t0, t1, 0,
                 static_cast<double>(batch.size()));
      }
      latency[f]->Record(t1 - t0);
      local.family_ns[f] += static_cast<double>(t1 - t0);
      local.family_queries[f] += batch.size();
      local.queries += batch.size();
      local.checked += batch.size();
      const bool score = batches++ % kQpcStride == 0;
      // Short intervals, so each is charged the steal of the CPU it ran on.
      if (in_window && batches % kLapBatches == 0) clock->Lap();
      for (const std::vector<uint32_t>& ids : batch.results) {
        if (!CheckResult(ids.data(), ids.size(), batch.m, server.n())) {
          ++local.invalid;
        } else if (score) {
          local.qpc_sum += ResultQpc(ids.data(), ids.size(), quality_);
          ++local.qpc_queries;
        }
      }
    }
  }

  RunnableClock::Interval window;
  if (in_window) {
    clock->Stop();
    for (const RunnableClock::Interval& t : clock->Finish()) {
      window.seconds += t.seconds;
      window.cpu_seconds += t.cpu_seconds;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (in_window) {
    const auto queries = static_cast<double>(local.queries);
    if (window.seconds > 0) merged_.qps += queries / window.seconds;
    if (window.cpu_seconds > 0) merged_.cpu_qps += queries / window.cpu_seconds;
    for (size_t f = 0; f < families; ++f) {
      merged_.latency_ns[f].Merge(
          latency[f]->Snapshot().Delta(warmup_latency[f]));
    }
  }
  merged_.queries += local.queries;
  merged_.checked += local.checked;
  merged_.invalid += local.invalid;
  merged_.qpc_sum += local.qpc_sum;
  merged_.qpc_queries += local.qpc_queries;
  for (size_t f = 0; f < families; ++f) {
    merged_.family_queries[f] += local.family_queries[f];
    merged_.family_ns[f] += local.family_ns[f];
  }
}

}  // namespace perfbench
