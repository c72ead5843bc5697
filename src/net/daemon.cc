#include "net/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace randrank::net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;

/// Fast-clock time since `start_ns`, clamped at 0 (two reads on different
/// cores may be a few ticks out of order).
uint64_t NanosSince(uint64_t start_ns) {
  const uint64_t now = obs::FastNowNs();
  return now > start_ns ? now - start_ns : 0;
}

/// Adds to a stats() counter and to its registry twin, if any.
void Bump(std::atomic<uint64_t>& stat, obs::Counter* counter, uint64_t n = 1) {
  stat.fetch_add(n, std::memory_order_relaxed);
  if (counter != nullptr) counter->Add(n);
}
}  // namespace

/// Per-connection state, owned by the event-loop thread.
struct NetDaemon::Connection {
  int fd = -1;
  uint64_t opened_ns = 0;

  // Inbound: unparsed bytes.
  std::vector<uint8_t> rbuf;

  // Outbound: encoded replies, sent from `woff` on.
  std::vector<uint8_t> wbuf;
  size_t woff = 0;
  bool want_write = false;
  bool paused_read = false;
  /// Fatal protocol error: stop reading, close once the error reply (and
  /// anything before it) has flushed.
  bool close_when_flushed = false;

  size_t unsent() const { return wbuf.size() - woff; }
};

NetDaemon::NetDaemon(ShardedRankServer& server, NetDaemonOptions options)
    : server_(server), opts_(std::move(options)) {
  if (opts_.max_inflight == 0) opts_.max_inflight = 1;
  if (opts_.write_low_watermark > opts_.write_high_watermark) {
    opts_.write_low_watermark = opts_.write_high_watermark;
  }
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    const std::string p = opts_.obs_prefix + "/";
    accepts_ctr_ = &reg.GetCounter(p + "accepts");
    queries_ctr_ = &reg.GetCounter(p + "queries");
    replies_ctr_ = &reg.GetCounter(p + "replies");
    shed_ctr_ = &reg.GetCounter(p + "shed_overloaded");
    draining_ctr_ = &reg.GetCounter(p + "rejected_draining");
    deadline_ctr_ = &reg.GetCounter(p + "deadline_exceeded");
    bad_ctr_ = &reg.GetCounter(p + "bad_frames");
    scrapes_ctr_ = &reg.GetCounter(p + "scrapes");
    health_ctr_ = &reg.GetCounter(p + "health_checks");
    bytes_read_ctr_ = &reg.GetCounter(p + "bytes_read");
    bytes_written_ctr_ = &reg.GetCounter(p + "bytes_written");
    active_gauge_ = &reg.GetGauge(p + "active_conns");
    // Registered under the HEALTH field's name; it stays 0, since every
    // QUERY is answered in the loop pass that decoded it.
    reg.GetGauge(p + "inflight");
    draining_gauge_ = &reg.GetGauge(p + "draining");
    request_hist_ = &reg.GetHistogram(p + "request_ns");
    read_hist_ = &reg.GetHistogram(p + "read_bytes");
    write_hist_ = &reg.GetHistogram(p + "write_bytes");
    conn_hist_ = &reg.GetHistogram(p + "conn_lifetime_ns");
  }
}

NetDaemon::~NetDaemon() { Stop(); }

void NetDaemon::Start() {
  if (started_.load(std::memory_order_acquire)) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("net: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bad bind address " + opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, opts_.listen_backlog) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bind/listen on " + opts_.bind_address + ":" +
                             std::to_string(opts_.port) + " failed: " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw std::runtime_error("net: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  // Created here (not in the constructor) so the loop's context is the
  // server's next Rng stream at Start() time — the property the wire
  // bit-equivalence test pins against an in-process reference server.
  ctx_ = server_.CreateContext();
  read_chunk_.resize(kReadChunk);

  started_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&NetDaemon::Loop, this);
}

void NetDaemon::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing to do.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

bool NetDaemon::Drain() {
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  if (!started_.load(std::memory_order_acquire) ||
      torn_down_.load(std::memory_order_acquire)) {
    return true;
  }
  draining_.store(true, std::memory_order_release);
  if (draining_gauge_ != nullptr) draining_gauge_->Set(1.0);
  Wake();
  loop_thread_.join();
  const bool clean = drain_was_clean_;
  JoinAndTearDown();
  return clean;
}

void NetDaemon::Stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  if (!started_.load(std::memory_order_acquire) ||
      torn_down_.load(std::memory_order_acquire)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  Wake();
  loop_thread_.join();
  JoinAndTearDown();
}

void NetDaemon::JoinAndTearDown() {
  for (const auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  torn_down_.store(true, std::memory_order_release);
}

NetDaemonStats NetDaemon::stats() const {
  NetDaemonStats s;
  s.accepts = accepts_.load(std::memory_order_relaxed);
  s.active_connections = active_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.shed_overloaded = shed_overloaded_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.scrapes = scrapes_.load(std::memory_order_relaxed);
  s.health_checks = health_checks_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void NetDaemon::Loop() {
  using Clock = std::chrono::steady_clock;
  std::vector<epoll_event> events(64);
  bool drain_seen = false;
  Clock::time_point drain_started{};

  while (!stopping_.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (!drain_seen) {
        drain_seen = true;
        drain_started = Clock::now();
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (opts_.drain_timeout_ms > 0 &&
          Clock::now() - drain_started >
              std::chrono::milliseconds(opts_.drain_timeout_ms)) {
        drain_was_clean_ = false;
        break;
      }
    }

    const int timeout_ms = draining ? 10 : 200;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    pass_admitted_ = 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(fd);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && !FlushWrites(conn)) continue;
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0 && !conn.paused_read) {
        HandleReadable(conn);
      }
    }

    if (draining) {
      // Every request already waiting in a socket gets its DRAINING reply,
      // also on connections this pass did not report: each readable one is
      // read until empty before the drain can end.
      // (HandleReadable can close only the connection it reads.)
      for (auto it = connections_.begin(); it != connections_.end();) {
        Connection& conn = *(it++)->second;
        if (!conn.paused_read) HandleReadable(conn);
      }
      if (DrainComplete()) {
        drain_was_clean_ = true;
        break;
      }
    }
  }
}

void NetDaemon::AcceptNew() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: move on
    if (connections_.size() >= opts_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.deadline_us > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    if (conn_hist_ != nullptr) conn->opened_ns = obs::FastNowNs();
    connections_.emplace(fd, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    Bump(accepts_, accepts_ctr_);
    active_.fetch_add(1, std::memory_order_relaxed);
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(static_cast<double>(connections_.size()));
    }
  }
}

void NetDaemon::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (conn_hist_ != nullptr && it->second->opened_ns != 0) {
    conn_hist_->Record(obs::FastNowNs() - it->second->opened_ns);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
  if (active_gauge_ != nullptr) {
    active_gauge_->Set(static_cast<double>(connections_.size()));
  }
}

bool NetDaemon::HandleReadable(Connection& conn) {
  // Read until the socket is empty (a short read), so the pass sees the
  // backlog this connection built up while the loop was busy; what is left
  // after an early stop is reported again by the level-triggered epoll.
  while (true) {
    ReadStamp stamp;
    const ssize_t n = ReadChunk(conn, &stamp);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConnection(conn.fd);  // peer closed, or a read error
      return false;
    }
    const auto got = static_cast<uint64_t>(n);
    Bump(bytes_read_, bytes_read_ctr_, got);
    if (read_hist_ != nullptr) read_hist_->Record(got);
    conn.rbuf.insert(conn.rbuf.end(), read_chunk_.data(),
                     read_chunk_.data() + n);
    if (!ParseFrames(conn, stamp)) {
      // Fatal framing error: the error reply is already staged — stop
      // reading and close once it has flushed.
      conn.paused_read = true;
      conn.close_when_flushed = true;
      UpdateEpollInterest(conn);
      break;
    }
    if (got < read_chunk_.size() || pass_admitted_ >= opts_.max_inflight ||
        conn.unsent() >= opts_.write_high_watermark) {
      break;
    }
  }
  return FlushWrites(conn);
}

ssize_t NetDaemon::ReadChunk(Connection& conn, ReadStamp* stamp) {
  ssize_t n = 0;
  iovec iov{read_chunk_.data(), read_chunk_.size()};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  do {
    n = ::recvmsg(conn.fd, &msg, 0);
  } while (n < 0 && errno == EINTR);
  stamp->read_ns = stamp->arrival_ns = obs::FastNowNs();
  // Only SO_TIMESTAMPNS (set when deadlines are on) attaches a message.
  const cmsghdr* c = n > 0 ? CMSG_FIRSTHDR(&msg) : nullptr;
  if (c != nullptr && c->cmsg_level == SOL_SOCKET &&
      c->cmsg_type == SCM_TIMESTAMPNS) {
    // TCP stamps a read with the receive time of the newest bytes in it, on
    // the realtime clock: the age it gives is a lower bound for every frame
    // the read delivered.
    timespec received{};
    std::memcpy(&received, CMSG_DATA(c), sizeof(received));
    timespec now{};
    ::clock_gettime(CLOCK_REALTIME, &now);
    const int64_t waited_ns =
        (static_cast<int64_t>(now.tv_sec) - received.tv_sec) * 1000000000 +
        (now.tv_nsec - received.tv_nsec);
    if (waited_ns > 0) {
      stamp->arrival_ns -=
          std::min(stamp->arrival_ns, static_cast<uint64_t>(waited_ns));
    }
  }
  return n;
}

bool NetDaemon::ParseFrames(Connection& conn, const ReadStamp& stamp) {
  size_t rpos = 0;
  bool fatal = false;
  while (conn.rbuf.size() - rpos >= kHeaderSize) {
    const uint8_t* base = conn.rbuf.data() + rpos;
    const size_t available = conn.rbuf.size() - rpos;
    FrameHeader header;
    const DecodeStatus status = DecodeHeader(base, available, &header);
    if (status == DecodeStatus::kMalformed ||
        status == DecodeStatus::kUnsupportedVersion) {
      ServeRun(conn, stamp);
      Bump(bad_frames_, bad_ctr_);
      if (status == DecodeStatus::kMalformed) {
        SendError(conn, 0, ErrorCode::kBadFrame, "malformed frame header");
      } else {
        SendError(conn, 0, ErrorCode::kUnsupportedVersion,
                  "server speaks version " + std::to_string(kProtocolVersion));
      }
      fatal = true;
      break;
    }
    if (available < kHeaderSize + header.payload_len) break;  // incomplete
    const uint8_t* payload = base + kHeaderSize;
    const size_t len = header.payload_len;
    rpos += kHeaderSize + len;

    if (header.type == FrameType::kQuery) {
      QueryFrame query;
      const bool decoded = DecodeQuery(payload, len, &query);
      const bool valid = decoded && query.m <= opts_.max_query_m;
      const bool draining = draining_.load(std::memory_order_acquire);
      const bool admit =
          valid && !draining && pass_admitted_ < opts_.max_inflight;
      // Replies leave in request order: a pending run is answered before
      // anything that does not join it.
      if (!admit || query.m != run_m_) ServeRun(conn, stamp);
      if (admit) {
        run_m_ = query.m;
        run_ids_.push_back(query.request_id);
        ++pass_admitted_;
      } else if (!valid) {
        Bump(bad_frames_, bad_ctr_);
        if (!decoded) {
          SendError(conn, 0, ErrorCode::kBadFrame, "bad QUERY payload");
        } else {
          SendError(conn, query.request_id, ErrorCode::kBadFrame,
                    "m exceeds cap " + std::to_string(opts_.max_query_m));
        }
      } else if (draining) {
        Bump(rejected_draining_, draining_ctr_);
        SendError(conn, query.request_id, ErrorCode::kDraining,
                  "server is draining");
      } else {
        Bump(shed_overloaded_, shed_ctr_);
        SendError(conn, query.request_id, ErrorCode::kOverloaded,
                  "admission control: " + std::to_string(opts_.max_inflight) +
                      " queries per loop pass");
      }
      continue;
    }

    ServeRun(conn, stamp);
    switch (header.type) {
      case FrameType::kMetrics: {
        Bump(scrapes_, scrapes_ctr_);
        MetricsReplyFrame reply;
        if (opts_.metrics != nullptr) {
          reply.text = obs::PrometheusText(opts_.metrics->Snapshot());
        }
        AppendMetricsReply(reply, &conn.wbuf);
        break;
      }
      case FrameType::kHealth: {
        Bump(health_checks_, health_ctr_);
        HealthReplyFrame reply;
        reply.status = draining_.load(std::memory_order_acquire)
                           ? HealthStatus::kDraining
                           : HealthStatus::kServing;
        reply.epoch = server_.epoch();
        reply.inflight = 0;  // every earlier QUERY is already answered
        reply.queries = replies_.load(std::memory_order_relaxed);
        reply.degraded = server_.degraded();
        reply.stale_epochs = server_.epochs_since_publish();
        AppendHealthReply(reply, &conn.wbuf);
        break;
      }
      default:
        // Reply frames from a client, or an unknown id: the length is
        // known, so skip the payload and keep the connection.
        Bump(bad_frames_, bad_ctr_);
        SendError(conn, 0, ErrorCode::kBadType,
                  std::string("unexpected frame type ") +
                      FrameTypeName(header.type));
        break;
    }
  }
  ServeRun(conn, stamp);
  conn.rbuf.erase(conn.rbuf.begin(),
                  conn.rbuf.begin() + static_cast<ptrdiff_t>(rpos));
  return !fatal;
}

void NetDaemon::ServeRun(Connection& conn, const ReadStamp& stamp) {
  const size_t count = run_ids_.size();
  if (count == 0) return;
  Bump(queries_, queries_ctr_, count);

  if (opts_.deadline_us > 0 &&
      NanosSince(stamp.arrival_ns) / 1000 >= opts_.deadline_us) {
    // Explicit timeout instead of a late answer. Counted before the reply
    // is staged: a client that has read it never scrapes a count missing it.
    Bump(deadline_exceeded_, deadline_ctr_, count);
    ErrorFrame error;
    error.code = ErrorCode::kDeadlineExceeded;
    error.message = "query deadline expired before serving";
    for (const uint64_t id : run_ids_) {
      error.request_id = id;
      AppendError(error, &conn.wbuf);
    }
  } else {
    batch_.m = run_m_;
    batch_.Resize(count);
    server_.ServeBatch(ctx_, &batch_);
    reply_.epoch = server_.epoch();
    size_t served = 0;
    for (size_t i = 0; i < count; ++i) {
      // Encoded straight from the batch's result vector (swapped in and
      // back out, so both keep their capacity).
      reply_.request_id = run_ids_[i];
      reply_.pages.swap(batch_.results[i]);
      AppendQueryReply(reply_, &conn.wbuf);
      served += reply_.pages.size();
      reply_.pages.swap(batch_.results[i]);
    }
    Bump(replies_, replies_ctr_, count);
    if (request_hist_ != nullptr) {
      const uint64_t dur_ns = NanosSince(stamp.read_ns);
      request_hist_->RecordN(dur_ns, count);
      obs::TraceLog* trace = opts_.trace;
      if (trace != nullptr && trace->sample_every() > 0 &&
          request_seq_++ % trace->sample_every() == 0) {
        trace->EmitSpan("net/request", static_cast<double>(dur_ns) * 1e-3,
                        {{"m", static_cast<double>(batch_.m)},
                         {"queries", static_cast<double>(count)},
                         {"served", static_cast<double>(served)}});
      }
    }
  }
  run_ids_.clear();
}

void NetDaemon::SendError(Connection& conn, uint64_t request_id,
                          ErrorCode code, const std::string& message) {
  ErrorFrame frame;
  frame.request_id = request_id;
  frame.code = code;
  frame.message = message;
  AppendError(frame, &conn.wbuf);
}

bool NetDaemon::FlushWrites(Connection& conn) {
  while (conn.woff < conn.wbuf.size()) {
    size_t want = conn.wbuf.size() - conn.woff;
    // Fault site: partial writes (short-write path coverage), injected
    // connection resets, and slow writes on the reply stream.
    {
      static constexpr uint64_t kHash = fault::Hash(fault::kNetWrite);
      fault::Decision decision;
      if (fault::Check(fault::kNetWrite, kHash, /*epoch=*/0, &decision)) {
        switch (decision.action) {
          case fault::Action::kDelay:
            fault::ApplyDelay(decision);
            break;
          case fault::Action::kPartialWrite:
            want = std::min<size_t>(
                want, static_cast<size_t>(std::max<uint64_t>(1, decision.bytes)));
            break;
          case fault::Action::kReset:
          case fault::Action::kFail:
            // Hard-close mid-stream: the peer sees EOF/ECONNRESET with the
            // reply possibly half-written — exactly the failure a retrying
            // client must survive.
            CloseConnection(conn.fd);
            return false;
        }
      }
    }
    const ssize_t n = ::write(conn.fd, conn.wbuf.data() + conn.woff, want);
    if (n > 0) {
      conn.woff += static_cast<size_t>(n);
      Bump(bytes_written_, bytes_written_ctr_, static_cast<uint64_t>(n));
      if (write_hist_ != nullptr) write_hist_->Record(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn.fd);
    return false;
  }
  if (conn.woff == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.woff = 0;
  }
  if (conn.close_when_flushed && conn.unsent() == 0) {
    CloseConnection(conn.fd);
    return false;
  }
  UpdateEpollInterest(conn);
  return true;
}

void NetDaemon::UpdateEpollInterest(Connection& conn) {
  const size_t unsent = conn.unsent();
  const bool want_write = unsent > 0;
  bool paused = conn.paused_read;
  if (!conn.close_when_flushed) {
    // Write backpressure: a reader slower than its replies stops being read
    // (its queries back up into its kernel socket buffer and TCP window).
    if (!paused && unsent >= opts_.write_high_watermark) paused = true;
    if (paused && unsent < opts_.write_low_watermark) paused = false;
  }
  if (want_write == conn.want_write && paused == conn.paused_read) return;
  conn.want_write = want_write;
  conn.paused_read = paused;
  epoll_event ev{};
  ev.events = (paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool NetDaemon::DrainComplete() const {
  return std::none_of(
      connections_.begin(), connections_.end(),
      [](const auto& entry) { return entry.second->unsent() > 0; });
}

}  // namespace randrank::net
