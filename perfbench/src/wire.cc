#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "net/protocol.h"
#include "serve/batch_queue.h"

namespace perfbench {
namespace net = randrank::net;

namespace {

void SetNonBlocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t w = ::send(fd, data, size, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    size -= static_cast<size_t>(w);
  }
  return true;
}

/// Blocking read of one whole frame.
bool ReadFrame(int fd, std::vector<uint8_t>* buf, net::FrameHeader* header,
               std::vector<uint8_t>* payload) {
  auto fill = [&](size_t want) {
    uint8_t chunk[4096];
    while (buf->size() < want) {
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf->insert(buf->end(), chunk, chunk + r);
    }
    return true;
  };
  if (!fill(net::kHeaderSize)) return false;
  if (net::DecodeHeader(buf->data(), buf->size(), header) !=
      net::DecodeStatus::kOk) {
    return false;
  }
  const size_t total = net::kHeaderSize + header->payload_len;
  if (!fill(total)) return false;
  payload->assign(buf->begin() + net::kHeaderSize, buf->begin() + total);
  buf->erase(buf->begin(), buf->begin() + total);
  return true;
}

}  // namespace

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Blocking reads and writes (the correctness check) give up instead of
  // hanging on a daemon that stopped answering.
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool CheckWireAgainstReference(int fd, size_t queries,
                               randrank::ShardedRankServer& reference,
                               std::string* why) {
  randrank::ShardedRankServer::Context ctx = reference.CreateContext();
  randrank::QueryBatch batch(kTopM, kBatch);
  std::vector<uint8_t> rbuf;
  std::vector<uint8_t> payload;
  uint64_t next_id = 1;
  for (size_t done = 0; done < queries; done += kBatch) {
    std::vector<uint8_t> out;
    for (size_t i = 0; i < kBatch; ++i) {
      net::QueryFrame q;
      q.request_id = next_id + i;
      q.user_id = next_id + i;
      q.m = static_cast<uint32_t>(kTopM);
      net::AppendQuery(q, &out);
    }
    if (!WriteAll(fd, out.data(), out.size())) {
      *why = "write failed";
      return false;
    }
    reference.ServeBatch(ctx, &batch);
    for (size_t i = 0; i < kBatch; ++i) {
      net::FrameHeader header;
      net::QueryReplyFrame reply;
      if (!ReadFrame(fd, &rbuf, &header, &payload) ||
          header.type != net::FrameType::kQueryReply ||
          !net::DecodeQueryReply(payload.data(), payload.size(), &reply)) {
        *why = "no valid QUERY_REPLY for request " +
               std::to_string(next_id + i);
        return false;
      }
      if (reply.request_id != next_id + i || reply.epoch != reference.epoch() ||
          reply.pages != batch.results[i]) {
        *why = "reply to request " + std::to_string(next_id + i) +
               " differs from the in-process server";
        return false;
      }
    }
    next_id += kBatch;
  }
  return true;
}

// --- WireClient --------------------------------------------------------------

struct WireClient::Conn {
  int fd = -1;
  std::vector<uint8_t> rbuf;
  std::vector<uint8_t> wbuf;
  size_t wpos = 0;
  bool want_write = false;
  bool broken = false;
  struct Pending {
    uint64_t id;
    uint64_t sent_ns;
  };
  std::deque<Pending> inflight;
  uint64_t next_id = 1;
  uint64_t last_epoch = 0;
};

WireClient::WireClient(std::vector<int> fds, size_t depth,
                       size_t n, SpanLog::Buffer* spans)
    : fds_(std::move(fds)), depth_(depth), n_(n), spans_(spans) {}

WireClient::~WireClient() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  for (const int fd : fds_) ::close(fd);
}

void WireClient::Start() {
  for (const int fd : fds_) SetNonBlocking(fd);
  thread_ = std::thread([this] { Loop(); });
}

WireStats WireClient::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return stats_;
}

void WireClient::Loop() {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<Conn> conns(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i) {
    conns[i].fd = fds_[i];
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fds_[i], &ev);
  }

  bool in_window = false;
  bool stopping = false;
  Clock::time_point window_start;
  Clock::time_point stop_deadline;
  uint64_t cpu_start = 0;
  std::vector<net::QueryReplyFrame> replies;
  randrank::obs::LatencyHistogram latency;  // inside the window only

  auto fail = [&](Conn& c) {
    if (c.broken) return;
    c.broken = true;
    stats_.io_errors += c.inflight.size();
    c.inflight.clear();
    ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
  };
  auto set_write_interest = [&](Conn& c, size_t index, bool want) {
    if (c.want_write == want) return;
    c.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = index;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
  };
  auto flush = [&](Conn& c, size_t index) {
    while (c.wpos < c.wbuf.size()) {
      const ssize_t w = ::send(c.fd, c.wbuf.data() + c.wpos,
                               c.wbuf.size() - c.wpos, MSG_NOSIGNAL);
      if (w > 0) {
        c.wpos += static_cast<size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_write_interest(c, index, true);
        return;
      } else {
        fail(c);
        return;
      }
    }
    c.wbuf.clear();
    c.wpos = 0;
    set_write_interest(c, index, false);
  };
  auto refill = [&](Conn& c, size_t index) {
    if (stopping || c.broken || c.inflight.size() >= depth_) return;
    const uint64_t t0 = NowNs();
    size_t added = 0;
    while (c.inflight.size() < depth_) {
      net::QueryFrame q;
      q.request_id = c.next_id++;
      q.user_id = q.request_id;
      q.m = static_cast<uint32_t>(kTopM);
      net::AppendQuery(q, &c.wbuf);
      c.inflight.push_back({q.request_id, 0});
      ++added;
    }
    const uint64_t t1 = NowNs();
    for (size_t i = c.inflight.size() - added; i < c.inflight.size(); ++i) {
      c.inflight[i].sent_ns = t1;
    }
    stats_.sent += added;
    if (in_window) {
      stats_.encode_ns += static_cast<double>(t1 - t0);
      stats_.encoded += added;
    }
    flush(c, index);
  };
  auto read_replies = [&](Conn& c) {
    uint8_t chunk[16384];
    while (true) {
      const ssize_t r = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (r > 0) {
        c.rbuf.insert(c.rbuf.end(), chunk, chunk + r);
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail(c);
      return;
    }
    const uint64_t now = NowNs();
    // Decode pass (timed), then the checks on the decoded replies.
    replies.clear();
    size_t pos = 0;
    const uint64_t t0 = NowNs();
    while (c.rbuf.size() - pos >= net::kHeaderSize) {
      net::FrameHeader header;
      if (net::DecodeHeader(c.rbuf.data() + pos, c.rbuf.size() - pos,
                            &header) != net::DecodeStatus::kOk) {
        fail(c);
        return;
      }
      const size_t total = net::kHeaderSize + header.payload_len;
      if (c.rbuf.size() - pos < total) break;
      const uint8_t* payload = c.rbuf.data() + pos + net::kHeaderSize;
      if (header.type == net::FrameType::kQueryReply) {
        replies.emplace_back();
        if (!net::DecodeQueryReply(payload, header.payload_len,
                                   &replies.back())) {
          fail(c);
          return;
        }
      } else if (header.type == net::FrameType::kError) {
        net::ErrorFrame error;
        if (!net::DecodeError(payload, header.payload_len, &error)) {
          fail(c);
          return;
        }
        // An error answers one query: keep the order with an empty reply
        // whose epoch marks it as an error.
        replies.emplace_back();
        replies.back().request_id = error.request_id;
        replies.back().epoch = UINT64_MAX;
      } else {
        fail(c);
        return;
      }
      pos += total;
    }
    const uint64_t t1 = NowNs();
    c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<long>(pos));
    if (in_window && !stopping) {
      stats_.decode_ns += static_cast<double>(t1 - t0);
      stats_.decoded += replies.size();
    }
    for (const net::QueryReplyFrame& reply : replies) {
      if (c.inflight.empty() || c.inflight.front().id != reply.request_id) {
        ++stats_.invalid;
        fail(c);
        return;
      }
      const uint64_t sent_ns = c.inflight.front().sent_ns;
      c.inflight.pop_front();
      if (reply.epoch == UINT64_MAX) {
        ++stats_.error_replies;
        continue;
      }
      const bool ok = reply.epoch >= c.last_epoch &&
                      CheckResult(reply.pages.data(), reply.pages.size(),
                                  kTopM, n_);
      c.last_epoch = std::max(c.last_epoch, reply.epoch);
      if (!ok) {
        ++stats_.invalid;
        continue;
      }
      if (in_window && !stopping) {
        ++stats_.replies;
        latency.Record(now - sent_ns);
        if (spans_ != nullptr && stats_.replies % kSpanStride == 0) {
          spans_->Add("net.client.round_trip", sent_ns, now);
        }
      }
    }
  };

  for (size_t i = 0; i < conns.size(); ++i) refill(conns[i], i);
  epoll_event events[16];
  while (true) {
    if (!in_window && window_.load(std::memory_order_acquire)) {
      in_window = true;
      window_start = Clock::now();
      cpu_start = ThreadCpuNs();
      stats_.replies = 0;
    }
    if (!stopping && stop_.load(std::memory_order_acquire)) {
      stopping = true;
      if (in_window) {
        stats_.window_s = SecondsSince(window_start);
        stats_.cpu_ns = static_cast<double>(ThreadCpuNs() - cpu_start);
      }
      stop_deadline = Clock::now() + std::chrono::seconds(5);
    }
    if (stopping) {
      bool idle = true;
      for (const Conn& c : conns) idle = idle && c.inflight.empty();
      if (idle) break;
      if (Clock::now() > stop_deadline) {
        for (Conn& c : conns) fail(c);
        break;
      }
    }
    const int ready = ::epoll_wait(ep, events, 16, 50);
    for (int i = 0; i < ready; ++i) {
      const size_t index = events[i].data.u64;
      Conn& c = conns[index];
      if (c.broken) continue;
      if (events[i].events & EPOLLOUT) flush(c, index);
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read_replies(c);
      refill(c, index);
    }
  }
  stats_.latency_ns = latency.Snapshot();
  ::close(ep);
}

// --- EchoServer --------------------------------------------------------------

EchoServer::EchoServer() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listen_fd_ < 0 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    throw std::runtime_error("echo server: cannot listen on loopback");
  }
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  thread_ = std::thread([this] { Loop(); });
}

EchoServer::~EchoServer() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  ::close(epoll_fd_);
  ::close(listen_fd_);
}

void EchoServer::Loop() {
  struct Peer {
    std::vector<uint8_t> rbuf;
  };
  std::vector<std::pair<int, Peer>> peers;
  net::QueryReplyFrame canned;
  canned.epoch = 1;
  for (size_t i = 0; i < kTopM; ++i) {
    canned.pages.push_back(static_cast<uint32_t>(i));
  }
  std::vector<uint8_t> out;
  epoll_event events[16];
  while (!stop_.load(std::memory_order_acquire)) {
    const int ready = ::epoll_wait(epoll_fd_, events, 16, 50);
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        const int conn = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (conn < 0) continue;
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = conn;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn, &ev);
        peers.push_back({conn, Peer{}});
        continue;
      }
      Peer* peer = nullptr;
      for (auto& p : peers) {
        if (p.first == fd) peer = &p.second;
      }
      if (peer == nullptr) continue;
      uint8_t chunk[16384];
      bool closed = false;
      while (true) {
        const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
        if (r > 0) {
          peer->rbuf.insert(peer->rbuf.end(), chunk, chunk + r);
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        closed = !(r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
      }
      out.clear();
      size_t pos = 0;
      net::FrameHeader header;
      while (peer->rbuf.size() - pos >= net::kHeaderSize &&
             net::DecodeHeader(peer->rbuf.data() + pos,
                               peer->rbuf.size() - pos,
                               &header) == net::DecodeStatus::kOk &&
             peer->rbuf.size() - pos >= net::kHeaderSize + header.payload_len) {
        net::QueryFrame query;
        if (net::DecodeQuery(peer->rbuf.data() + pos + net::kHeaderSize,
                             header.payload_len, &query)) {
          canned.request_id = query.request_id;
          net::AppendQueryReply(canned, &out);
        }
        pos += net::kHeaderSize + header.payload_len;
      }
      peer->rbuf.erase(peer->rbuf.begin(),
                       peer->rbuf.begin() + static_cast<long>(pos));
      // Replies are small; a blocking-style retry loop keeps this simple.
      size_t written = 0;
      while (!closed && written < out.size()) {
        const ssize_t w = ::send(fd, out.data() + written, out.size() - written,
                                 MSG_NOSIGNAL);
        if (w > 0) {
          written += static_cast<size_t>(w);
        } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
          continue;
        } else {
          closed = true;
        }
      }
      if (closed) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        for (size_t k = 0; k < peers.size(); ++k) {
          if (peers[k].first == fd) {
            peers.erase(peers.begin() + static_cast<long>(k));
            break;
          }
        }
      }
    }
  }
  for (auto& p : peers) ::close(p.first);
}

// --- BatchQueue hand-off -----------------------------------------------------

double HandoffP50Us(randrank::ShardedRankServer& server, size_t in_flight,
                    double seconds, SpanLog::Buffer* spans) {
  randrank::obs::LatencyHistogram latency;
  uint64_t recorded = 0;  // written only by the queue's consumer thread
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> measuring{false};
  uint64_t submitted = 0;
  {
    randrank::BatchQueue queue(server);
    const Clock::time_point start = Clock::now();
    const double warmup = std::min(0.5, seconds / 4);
    while (SecondsSince(start) < seconds) {
      if (!measuring.load(std::memory_order_relaxed) &&
          SecondsSince(start) >= warmup) {
        measuring.store(true, std::memory_order_release);
      }
      const uint64_t done = completed.load(std::memory_order_acquire);
      if (submitted - done >= in_flight) {
        completed.wait(done, std::memory_order_acquire);
        continue;
      }
      const uint64_t t0 = NowNs();
      queue.Submit(kTopM, [&, t0](randrank::QueryOutcome,
                                  std::vector<uint32_t>) {
        const uint64_t t1 = NowNs();
        if (measuring.load(std::memory_order_acquire)) {
          latency.Record(t1 - t0);
          if (spans != nullptr && ++recorded % kSpanStride == 0) {
            spans->Add("serve.queue.handoff", t0, t1);
          }
        }
        completed.fetch_add(1, std::memory_order_release);
        completed.notify_one();
      });
      ++submitted;
    }
    queue.Stop();
  }
  return latency.Snapshot().Quantile(0.5) * 1e-3;
}

}  // namespace perfbench
