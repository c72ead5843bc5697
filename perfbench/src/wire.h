#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

// The benchmark's client side of the wire, built on net/protocol.h alone:
// a closed-loop generator that keeps a fixed number of QUERY frames in
// flight on each of several loopback connections from one thread, the
// bit-for-bit check of wire replies against an in-process server, the
// loopback echo that prices the socket floor, and the in-process BatchQueue
// hand-off probe.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "serve/sharded_rank_server.h"

namespace perfbench {

/// Blocking loopback connect with TCP_NODELAY and 10 s send/receive
/// timeouts; -1 on failure.
int ConnectLoopback(uint16_t port);

/// Sends `queries` QUERY(m=kTopM) frames on `fd`, kBatch in flight, and
/// requires every reply to equal, bit for bit, what `reference` serves from
/// its next fresh context — the daemon's replies must be the in-process
/// server's. Returns false with a reason on the first difference.
bool CheckWireAgainstReference(int fd, size_t queries,
                               randrank::ShardedRankServer& reference,
                               std::string* why);

struct WireStats {
  double window_s = 0;
  uint64_t replies = 0;  // valid replies received inside the window
  randrank::obs::HistogramSnapshot latency_ns;  // send-to-reply, in the window
  /// Whole run (warm-up, window and the drain after it).
  uint64_t sent = 0;
  uint64_t error_replies = 0;
  uint64_t invalid = 0;  // bad list, wrong id order, or epoch going back
  uint64_t io_errors = 0;
  /// Inside the window: time in AppendQuery and in DecodeHeader +
  /// DecodeQueryReply, and the generator thread's CPU time.
  double encode_ns = 0;
  double decode_ns = 0;
  uint64_t encoded = 0;
  uint64_t decoded = 0;
  double cpu_ns = 0;

  uint64_t failed() const { return error_replies + invalid + io_errors; }
};

/// One generator thread driving every connection it is given, each with
/// `depth` queries in flight, closed loop: a reply is answered at once by
/// the next query on its connection. Owns and closes the fds.
class WireClient {
 public:
  /// Results are checked against a corpus of `n` pages. With `spans`,
  /// sampled round trips are recorded there.
  WireClient(std::vector<int> fds, size_t depth, size_t n,
             SpanLog::Buffer* spans = nullptr);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  void Start();
  /// Discards the warm-up counts and opens the measured window.
  void BeginWindow() { window_.store(true, std::memory_order_release); }
  /// Closes the window, collects the replies still in flight, joins.
  WireStats Stop();

 private:
  struct Conn;
  void Loop();

  std::vector<int> fds_;
  const size_t depth_;
  const size_t n_;
  SpanLog::Buffer* spans_;
  std::atomic<bool> window_{false};
  std::atomic<bool> stop_{false};
  WireStats stats_;  // owned by the generator thread until Stop joins
  std::thread thread_;
};

/// Loopback server answering each QUERY frame at once with a canned
/// QUERY_REPLY of the same size a real one has (kTopM pages): the socket
/// and event-loop cost of the wire with no serving behind it.
class EchoServer {
 public:
  EchoServer();
  ~EchoServer();
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Loop();

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Median Submit -> callback time, in us, of a BatchQueue over `server`
/// with `in_flight` queries kept outstanding by one producer for `seconds`.
double HandoffP50Us(randrank::ShardedRankServer& server, size_t in_flight,
                    double seconds, SpanLog::Buffer* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
