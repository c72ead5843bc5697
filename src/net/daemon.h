#ifndef RANDRANK_NET_DAEMON_H_
#define RANDRANK_NET_DAEMON_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "serve/sharded_rank_server.h"

namespace randrank::net {

struct NetDaemonOptions {
  /// Listen address; the default binds loopback only (the daemon speaks an
  /// unauthenticated binary protocol — put it behind your own perimeter
  /// before binding wider).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port, readable via port() after Start().
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Connections beyond this are accepted and immediately closed (the
  /// kernel's backlog already smooths bursts; this caps steady-state fds).
  size_t max_connections = 1024;
  /// Admission control: at most this many QUERY frames are served per pass
  /// of the event loop (one epoll_wait's ready connections, each read until
  /// its socket is empty — the backlog built up during the previous pass);
  /// the pass's later QUERYs get an immediate ERROR/OVERLOADED. 0 selects 1.
  size_t max_inflight = 4096;
  /// Per-query result-count cap; QUERYs asking for more get BAD_FRAME.
  uint32_t max_query_m = 1024;
  /// Per-connection write backpressure: while a connection's unsent reply
  /// bytes exceed the high watermark the daemon stops reading from it (its
  /// requests sit in the kernel socket buffer, eventually zeroing the
  /// client's TCP window), resuming below the low watermark. A slow reader
  /// throttles itself, never the event loop or other connections.
  size_t write_high_watermark = 1 << 20;
  size_t write_low_watermark = 1 << 18;
  /// Graceful-drain deadline: Drain() force-closes whatever is left (slow
  /// readers that never drained their replies) after this many ms. 0 waits
  /// forever.
  uint64_t drain_timeout_ms = 10000;
  /// Per-query deadline, measured from the kernel's receive timestamp of the
  /// read that delivered the QUERY (SO_TIMESTAMPNS: the time its newest
  /// bytes reached the socket, so the wait in the socket buffer counts) to
  /// the start of the ServeBatch that would answer it. A query past it is
  /// answered ERROR/DEADLINE_EXCEEDED instead of being served late — an
  /// explicit timeout, never a silent wrong answer. 0 (default) disables it
  /// and the receive timestamps.
  uint64_t deadline_us = 0;
  /// Observability (optional, borrowed; must outlive the daemon). Counters,
  /// gauges, and histograms land under `<obs_prefix>/`; the METRICS scrape
  /// frame answers with PrometheusText over this registry's full snapshot
  /// (every subsystem sharing the registry is visible over the wire).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
  std::string obs_prefix = "net";
};

/// Point-in-time daemon counters (all monotone except active_connections).
struct NetDaemonStats {
  uint64_t accepts = 0;
  uint64_t active_connections = 0;
  uint64_t queries = 0;
  uint64_t replies = 0;
  uint64_t shed_overloaded = 0;
  uint64_t rejected_draining = 0;
  /// Queries answered with ERROR/DEADLINE_EXCEEDED because their
  /// NetDaemonOptions::deadline_us ran out before serving began.
  uint64_t deadline_exceeded = 0;
  uint64_t bad_frames = 0;
  uint64_t scrapes = 0;
  uint64_t health_checks = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// Stand-alone network serving daemon: the service boundary in front of
/// ShardedRankServer. One epoll event loop (its own thread) owns the listen
/// socket and every connection, speaks the length-prefixed binary protocol
/// of net/protocol.h, and answers QUERY frames itself, run to completion:
/// each read pass decodes every complete frame, each run of consecutive
/// same-m QUERYs is answered by one ServeBatch on the loop's own serving
/// Context, and the replies are encoded straight into the connection's
/// write buffer and flushed once per readiness event. A run is answered
/// before any later reply, so every connection gets its replies in request
/// order. METRICS frames answer with the Prometheus exposition of the
/// attached registry ("metrics over the wire"); HEALTH reports epoch and
/// drain state (its in-flight depth reads 0: every QUERY before a HEALTH
/// frame is answered first).
///
/// Threading:
///  * The event loop thread does all socket I/O, all serving, and owns
///    connection lifetimes; nothing it touches per request is shared with
///    another thread except the server's RCU-published view.
///  * The writer thread (whoever calls server.Update()) is untouched:
///    epoch publishes and policy hot-swaps land mid-traffic exactly as for
///    in-process callers — a batch pinned to the old view completes under
///    it, no query is dropped (tests/net_test.cc exercises continuous
///    hot-swaps through the socket under TSan).
///
/// Overload behavior: while the loop serves one pass, new requests wait in
/// the kernel socket buffers. The next pass reads each ready socket until
/// it is empty, so it sees that backlog: admission control serves at most
/// max_inflight QUERYs per pass and answers the rest with an immediate
/// ERROR/OVERLOADED, and deadline_us, counted from the kernel receive
/// timestamp, turns a query that waited too long into
/// ERROR/DEADLINE_EXCEEDED. A flood gets an explicit retry signal instead of
/// a hang. Per-connection write backpressure pauses reading from clients
/// too slow to take their replies.
///
/// Shutdown: Drain() (also the SIGTERM path in tools/randrankd) stops
/// accepting, answers new QUERYs with ERROR/DRAINING — also everything
/// already waiting in any connection's socket when the loop notices the
/// drain (each is read until empty before the drain can end) — flushes
/// every reply, then closes. Stop() is immediate.
class NetDaemon {
 public:
  /// The daemon serves `server` (borrowed; must outlive the daemon). The
  /// loop's serving Context is created at Start(), so it is the server's
  /// next CreateContext() stream.
  NetDaemon(ShardedRankServer& server, NetDaemonOptions options = {});
  ~NetDaemon();

  NetDaemon(const NetDaemon&) = delete;
  NetDaemon& operator=(const NetDaemon&) = delete;

  /// Binds, listens, and starts the event loop thread. Throws
  /// std::runtime_error on bind/listen failure.
  void Start();

  /// The bound port (after Start(); with options.port == 0 this is the
  /// kernel-assigned ephemeral port).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting connections, reject new queries with
  /// ERROR/DRAINING, flush every reply, then close everything and join.
  /// Returns true when everything drained cleanly, false when the drain
  /// deadline force-closed leftovers. Idempotent; concurrent callers are
  /// serialized.
  bool Drain();

  /// Immediate stop: abandon connections and their unsent replies.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  NetDaemonStats stats() const;

 private:
  struct Connection;
  /// When one read's bytes arrived, on the fast clock (obs::FastNowNs).
  struct ReadStamp {
    uint64_t read_ns = 0;     // the read returned
    uint64_t arrival_ns = 0;  // the kernel received them (deadline origin)
  };

  void Loop();
  void AcceptNew();
  /// Reads until the socket is empty, answering every complete frame after
  /// each read; stops early once the pass has admitted max_inflight QUERYs
  /// or the connection hit its write high watermark. Returns false when
  /// the connection was closed (it must not be touched again).
  bool HandleReadable(Connection& conn);
  /// One recvmsg into read_chunk_ (with the kernel receive timestamp when
  /// deadlines are on); returns what read() would.
  ssize_t ReadChunk(Connection& conn, ReadStamp* stamp);
  /// Answers every complete frame in the connection's read buffer; returns
  /// false on a fatal protocol error (the error reply is already staged).
  bool ParseFrames(Connection& conn, const ReadStamp& stamp);
  /// Answers the pending run of same-m QUERYs with one ServeBatch, or with
  /// DEADLINE_EXCEEDED when the bytes that delivered them are too old.
  void ServeRun(Connection& conn, const ReadStamp& stamp);
  void SendError(Connection& conn, uint64_t request_id, ErrorCode code,
                 const std::string& message);
  /// Writes as much buffered output as the socket takes; arms/disarms
  /// EPOLLOUT and read-pause watermarks. Returns false when the connection
  /// was closed.
  bool FlushWrites(Connection& conn);
  void CloseConnection(int fd);
  void UpdateEpollInterest(Connection& conn);
  void Wake();
  /// True when nothing is left to flush.
  bool DrainComplete() const;
  void JoinAndTearDown();

  ShardedRankServer& server_;
  NetDaemonOptions opts_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // Drain()/Stop() wake the loop through it
  uint16_t port_ = 0;
  std::thread loop_thread_;

  /// Event-loop state.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  ShardedRankServer::Context ctx_;
  std::vector<uint8_t> read_chunk_;
  /// The pending run: request ids of consecutive admitted QUERYs of m
  /// `run_m_`.
  std::vector<uint64_t> run_ids_;
  uint32_t run_m_ = 0;
  /// QUERYs admitted in the current loop pass (admission control).
  size_t pass_admitted_ = 0;
  QueryBatch batch_;
  QueryReplyFrame reply_;
  /// Drives 1-in-sample_every net/request span sampling.
  uint64_t request_seq_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> torn_down_{false};
  std::mutex lifecycle_mutex_;  // serializes Drain/Stop/destructor
  /// Written by the event-loop thread before it exits, read after join.
  bool drain_was_clean_ = true;

  /// Written by the event loop only; atomic so stats() can read them from
  /// any thread.
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> replies_{0};
  std::atomic<uint64_t> shed_overloaded_{0};
  std::atomic<uint64_t> rejected_draining_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> scrapes_{0};
  std::atomic<uint64_t> health_checks_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};

  /// Registry endpoints, resolved once at construction (null when
  /// opts_.metrics is null).
  obs::Counter* accepts_ctr_ = nullptr;
  obs::Counter* queries_ctr_ = nullptr;
  obs::Counter* replies_ctr_ = nullptr;
  obs::Counter* shed_ctr_ = nullptr;
  obs::Counter* draining_ctr_ = nullptr;
  obs::Counter* deadline_ctr_ = nullptr;
  obs::Counter* bad_ctr_ = nullptr;
  obs::Counter* scrapes_ctr_ = nullptr;
  obs::Counter* health_ctr_ = nullptr;
  obs::Counter* bytes_read_ctr_ = nullptr;
  obs::Counter* bytes_written_ctr_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* draining_gauge_ = nullptr;
  obs::LatencyHistogram* request_hist_ = nullptr;
  obs::LatencyHistogram* read_hist_ = nullptr;
  obs::LatencyHistogram* write_hist_ = nullptr;
  obs::LatencyHistogram* conn_hist_ = nullptr;
};

}  // namespace randrank::net

#endif  // RANDRANK_NET_DAEMON_H_
