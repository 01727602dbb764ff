#include "net/fabric.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "fault/fault.h"
#include "prof/prof.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kOutbufHighWater = 1u << 20;  // stop draining sendq
constexpr std::size_t kReadChunk = 64 * 1024;

support::MetricsRegistry::Counter& ctr(const char* name) {
  return support::MetricsRegistry::global().counter(name);
}

// Cached counters: one registry lookup per process, not per frame.
struct Counters {
  support::MetricsRegistry::Counter& frames_sent = ctr("net.frames.sent");
  support::MetricsRegistry::Counter& frames_recv = ctr("net.frames.received");
  support::MetricsRegistry::Counter& bytes_sent = ctr("net.bytes.sent");
  support::MetricsRegistry::Counter& bytes_recv = ctr("net.bytes.received");
  support::MetricsRegistry::Counter& retransmits = ctr("net.retransmits");
  support::MetricsRegistry::Counter& reconnects = ctr("net.reconnect.count");
  support::MetricsRegistry::Counter& heartbeats = ctr("net.heartbeats.sent");
  support::MetricsRegistry::Counter& would_block =
      ctr("net.sendq.would_block");
  support::MetricsRegistry::Counter& conn_refused = ctr("fault.conn.refused");
  support::MetricsRegistry::Counter& conn_dead = ctr("fault.conn.dead");
  support::MetricsRegistry::Counter& conn_half_open =
      ctr("fault.conn.half_open");
};

Counters& counters() {
  static Counters c;
  return c;
}

void set_cloexec_nonblock(int fd) {
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

}  // namespace

Fabric::Fabric(const FabricOptions& opts, DeliverFn deliver)
    : opts_(opts), deliver_(std::move(deliver)) {
  if (opts_.nprocs < 1 || opts_.proc < 0 || opts_.proc >= opts_.nprocs) {
    throw std::invalid_argument("net: bad fabric proc/nprocs");
  }
  peers_.resize(std::size_t(opts_.nprocs));
  for (int p = 0; p < opts_.nprocs; ++p) {
    if (p == opts_.proc) continue;
    peers_[std::size_t(p)] = std::make_unique<Peer>();
    peers_[std::size_t(p)]->id = p;
  }
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("net: pipe() failed");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_cloexec_nonblock(wake_rd_);
  set_cloexec_nonblock(wake_wr_);
  if (opts_.nprocs > 1) open_listener();
  io_ = std::thread([this] { io_main(); });
}

Fabric::~Fabric() {
  shutdown(false);
  if (io_.joinable()) io_.join();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

std::string Fabric::uds_path(int p) const {
  return opts_.session + "/j" + std::to_string(opts_.job) + ".p" +
         std::to_string(p);
}

void Fabric::open_listener() {
  ::mkdir(opts_.session.c_str(), 0700);  // lenient: EEXIST is the norm
  listen_path_ = uds_path(opts_.proc);
  if (listen_path_.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("net: session path too long: " + listen_path_);
  }
  ::unlink(listen_path_.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("net: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, listen_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: uds bind failed: " + listen_path_);
  }
  set_cloexec_nonblock(listen_fd_);
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error("net: listen() failed");
  }
}

void Fabric::wake() {
  if (wake_wr_ >= 0) {
    char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
  }
}

Fabric::SendResult Fabric::try_send(int dst, Frame& f) {
  if (dst < 0 || dst >= opts_.nprocs || dst == opts_.proc) {
    throw std::invalid_argument("net: bad send destination proc");
  }
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return SendResult::kClosed;
    Peer& p = *peers_[std::size_t(dst)];
    if (p.dead) {
      return p.refused ? SendResult::kRefused : SendResult::kPeerDead;
    }
    if (p.sendq.size() >= opts_.sendq_cap) {
      counters().would_block.add();
      prof::Probe().instant(support::trace::Ev::kNetBackpressure,
                            std::uint32_t(dst), p.sendq.size());
      return SendResult::kWouldBlock;
    }
    f.src = std::uint32_t(opts_.proc);
    f.dst = std::uint32_t(dst);
    f.seq = p.tx_next++;
    p.sendq.push_back(std::move(f));
    notify = true;
  }
  if (notify) wake();
  return SendResult::kOk;
}

Fabric::SendResult Fabric::send(int dst, Frame& f) {
  for (;;) {
    SendResult r = try_send(dst, f);
    if (r != SendResult::kWouldBlock) return r;
    std::unique_lock<std::mutex> lk(mu_);
    Peer& p = *peers_[std::size_t(dst)];
    cv_.wait_for(lk, std::chrono::milliseconds(2), [&] {
      return closed_ || p.dead || p.sendq.size() < opts_.sendq_cap;
    });
  }
}

bool Fabric::peer_dead(int p) const {
  std::lock_guard<std::mutex> lk(mu_);
  return p != opts_.proc && peers_[std::size_t(p)]->dead;
}

std::vector<int> Fabric::dead_peers() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int> out;
  for (const auto& p : peers_) {
    if (p && p->dead) out.push_back(p->id);
  }
  return out;
}

bool Fabric::shutdown(bool error) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_done_) {
      bool remote_err = false;
      for (const auto& p : peers_) {
        if (p && p->goodbye_err) remote_err = true;
      }
      return remote_err;
    }
    closed_ = true;
    goodbye_error_ = error;
  }
  wake();
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.shutdown_timeout_ms);
  // Phase 1: flush. Every queued reliable frame acked (dead peers exempt —
  // their acks are never coming; a dark fabric skips the wait entirely).
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_until(lk, deadline, [&] {
      if (dark_ || stop_) return true;
      for (const auto& p : peers_) {
        if (p && !p->dead && (!p->sendq.empty() || p->unacked_count > 0)) {
          return false;
        }
      }
      return true;
    });
    goodbye_phase_ = true;
  }
  wake();
  // Phase 2: goodbye exchange — the implicit job-wide "all ranks done"
  // rendezvous. A peer that is mid-run keeps being served (the IO loop acks
  // and delivers until stop_); we just wait for its goodbye. Waiting for
  // goodbye_flushed too matters: the peer's goodbye can land before we even
  // enter this phase, and stopping then would close the socket with OUR
  // goodbye unsent, leaving the peer to burn its death timeout.
  bool remote_err = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_until(lk, deadline, [&] {
      if (dark_ || stop_) return true;
      for (const auto& p : peers_) {
        if (p && !p->dead && !(p->goodbye_rx && p->goodbye_flushed)) {
          return false;
        }
      }
      return true;
    });
    for (const auto& p : peers_) {
      if (p && p->goodbye_err) remote_err = true;
    }
    stop_ = true;
    shutdown_done_ = true;
  }
  wake();
  if (io_.joinable()) io_.join();
  return remote_err;
}

void Fabric::kill() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    stop_ = true;
    shutdown_done_ = true;
  }
  wake();
  if (io_.joinable()) io_.join();
}

void Fabric::pause_tx(bool on) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = on;
  }
  wake();
}

void Fabric::drop_connections() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    drop_conns_ = true;
  }
  wake();
}

// --- IO thread ---------------------------------------------------------------

void Fabric::check_dark() {
  if (dark_ || opts_.rank_count == 0 || !fault::enabled()) return;
  for (int r = opts_.rank_base; r < opts_.rank_base + opts_.rank_count; ++r) {
    if (fault::rank_dead(r)) {
      // A fault-killed rank means this *process* plays dead: close every
      // socket and stop acking/heartbeating so peers must detect the death
      // the way they would a real crash — by silence.
      close_all_io();
      {
        std::lock_guard<std::mutex> lk(mu_);
        dark_ = true;
      }
      cv_.notify_all();
      return;
    }
  }
}

void Fabric::close_all_io() {
  for (auto& up : peers_) {
    if (up && up->fd >= 0) {
      ::close(up->fd);
      up->fd = -1;
      up->up = false;
      up->connecting = false;
    }
  }
  for (auto& pa : pending_accepts_) ::close(pa.fd);
  pending_accepts_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
}

void Fabric::mark_dead(Peer& p, bool refused, bool half_open) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (p.dead) return;
    p.dead = true;
    p.refused = refused;
  }
  if (p.fd >= 0) {
    ::close(p.fd);
    p.fd = -1;
  }
  p.up = false;
  p.connecting = false;
  p.outbuf.clear();
  p.outoff = 0;
  p.delayed.clear();
  if (refused) {
    counters().conn_refused.add();
    prof::Probe().instant(support::trace::Ev::kConnRefused,
                          std::uint32_t(p.id));
  } else {
    counters().conn_dead.add();
    if (half_open) counters().conn_half_open.add();
    const auto silence = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - p.last_rx);
    prof::Probe().instant(support::trace::Ev::kPeerDead, std::uint32_t(p.id),
                          std::uint64_t(silence.count()));
  }
  cv_.notify_all();
}

void Fabric::conn_down(Peer& p, int err) {
  if (p.fd >= 0) {
    ::close(p.fd);
    p.fd = -1;
  }
  const bool was_up = p.up;
  p.up = false;
  p.connecting = false;
  p.outbuf.clear();
  p.outoff = 0;
  p.delayed.clear();
  p.reader = FrameReader{};
  if (was_up) {
    prof::Probe().instant(support::trace::Ev::kConnDown, std::uint32_t(p.id),
                          std::uint64_t(err));
  }
  p.next_attempt = Clock::now() + std::chrono::milliseconds(p.backoff_ms);
  p.backoff_ms = std::min<std::uint32_t>(p.backoff_ms * 2, 200);
}

void Fabric::attach(Peer& p, int fd, FrameReader reader, Clock::time_point now) {
  const bool re = p.ever_up;
  if (p.fd >= 0 && p.fd != fd) ::close(p.fd);
  p.fd = fd;
  set_cloexec_nonblock(p.fd);
  p.connecting = false;
  p.up = true;
  p.ever_up = true;
  p.reader = std::move(reader);
  p.outbuf.clear();
  p.outoff = 0;
  p.delayed.clear();
  p.last_rx = p.last_tx = now;
  p.backoff_ms = 1;
  // Hello identifies us to the acceptor. Exempt from fault injection: it is
  // neither sequenced nor retransmitted, so dropping it would break
  // liveness, not exercise robustness.
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.a = std::uint16_t(opts_.proc);
  hello.src = std::uint32_t(opts_.proc);
  hello.dst = std::uint32_t(p.id);
  append_frame(p.outbuf, hello);
  // Everything unacked goes again immediately: the old connection may have
  // died mid-frame, and the new byte stream starts from a clean framing
  // boundary (the receiver reset its reader, its reorderer did not).
  for (auto& [seq, u] : p.unacked) u.next_rto = now;
  if (re) {
    counters().reconnects.add();
  }
  prof::Probe().instant(support::trace::Ev::kConnUp, std::uint32_t(p.id),
                        re ? 1 : 0);
}

void Fabric::try_connect(Peer& p, Clock::time_point now) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return;
  set_cloexec_nonblock(fd);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, uds_path(p.id).c_str(),
               sizeof(addr.sun_path) - 1);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    attach(p, fd, FrameReader{}, now);
    return;
  }
  if (errno == EINPROGRESS) {
    p.fd = fd;
    p.connecting = true;
    return;
  }
  // ENOENT / ECONNREFUSED while the peer hasn't bound yet: normal startup
  // churn; capped-backoff retry until the connect window closes.
  ::close(fd);
  p.next_attempt = now + std::chrono::milliseconds(p.backoff_ms);
  p.backoff_ms = std::min<std::uint32_t>(p.backoff_ms * 2, 200);
}

void Fabric::finish_connect(Peer& p) {
  int err = 0;
  socklen_t len = sizeof err;
  ::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err == 0) {
    int fd = p.fd;
    p.connecting = false;
    attach(p, fd, FrameReader{}, Clock::now());
  } else {
    ::close(p.fd);
    p.fd = -1;
    p.connecting = false;
    p.next_attempt =
        Clock::now() + std::chrono::milliseconds(p.backoff_ms);
    p.backoff_ms = std::min<std::uint32_t>(p.backoff_ms * 2, 200);
  }
}

void Fabric::emit_control(Peer& p, const Frame& f, Clock::time_point now) {
  Bytes enc;
  append_frame(enc, f);
  counters().frames_sent.add();
  counters().bytes_sent.add(enc.size());
  // Acks and heartbeats ride the ack lane of the fault plane; hello and
  // goodbye are exempt (see attach()).
  if (fault::enabled() &&
      (f.kind == FrameKind::kAck || f.kind == FrameKind::kHeartbeat)) {
    fault::Decision d = fault::decide(opts_.proc, p.id, fault::kAckLane);
    if (d.drop) return;
    if (d.delay_us != 0) {
      p.delayed.emplace_back(now + std::chrono::microseconds(d.delay_us),
                             std::move(enc));
      return;
    }
    if (d.dup) p.outbuf.insert(p.outbuf.end(), enc.begin(), enc.end());
  }
  p.outbuf.insert(p.outbuf.end(), enc.begin(), enc.end());
  p.last_tx = now;
}

void Fabric::transmit(Peer& p, const Frame& f, int lane,
                      Clock::time_point now) {
  Bytes enc;
  append_frame(enc, f);
  counters().frames_sent.add();
  counters().bytes_sent.add(enc.size());
  if (fault::enabled()) {
    fault::Decision d = fault::decide(opts_.proc, p.id, lane);
    if (d.drop) return;  // the RTO scan retransmits it
    if (d.delay_us != 0) {
      if (d.dup) {
        p.delayed.emplace_back(now + std::chrono::microseconds(d.delay_us),
                               enc);
      }
      p.delayed.emplace_back(now + std::chrono::microseconds(d.delay_us),
                             std::move(enc));
      return;
    }
    if (d.dup) p.outbuf.insert(p.outbuf.end(), enc.begin(), enc.end());
  }
  p.outbuf.insert(p.outbuf.end(), enc.begin(), enc.end());
  p.last_tx = now;
}

void Fabric::drain_sendq(Peer& p, Clock::time_point now) {
  bool popped = false;
  while (p.outbuf.size() - p.outoff < kOutbufHighWater) {
    Frame f;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (p.sendq.empty()) break;
      f = std::move(p.sendq.front());
      p.sendq.pop_front();
      ++p.unacked_count;
      popped = true;
    }
    transmit(p, f, fault::kPayloadLane, now);
    const std::uint64_t seq = f.seq;
    const auto rto = std::chrono::milliseconds(opts_.rto_ms);
    p.unacked.emplace(seq, Unacked{std::move(f), 1, now + rto});
  }
  if (popped) cv_.notify_all();  // senders parked on a full queue
}

void Fabric::flush_out(Peer& p) {
  if (p.fd < 0 || p.connecting) return;
  while (p.outoff < p.outbuf.size()) {
    ssize_t n = ::send(p.fd, p.outbuf.data() + p.outoff,
                       p.outbuf.size() - p.outoff, MSG_NOSIGNAL);
    if (n > 0) {
      p.outoff += std::size_t(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn_down(p, errno);  // EPIPE / ECONNRESET: supervisor reconnects
    return;
  }
  if (p.outoff == p.outbuf.size()) {
    p.outbuf.clear();
    p.outoff = 0;
  } else if (p.outoff > kReadChunk) {
    p.outbuf.erase(p.outbuf.begin(),
                   p.outbuf.begin() + std::ptrdiff_t(p.outoff));
    p.outoff = 0;
  }
}

void Fabric::handle_frame(Peer& p, Frame&& f, Clock::time_point now) {
  p.last_rx = now;
  counters().frames_recv.add();
  switch (f.kind) {
    case FrameKind::kHello:     // duplicate hello after a reconnect race
    case FrameKind::kHeartbeat:
      return;
    case FrameKind::kAck: {
      auto it = p.unacked.find(f.seq);
      if (it == p.unacked.end()) return;  // ack of an already-acked dup
      p.unacked.erase(it);
      {
        std::lock_guard<std::mutex> lk(mu_);
        --p.unacked_count;
      }
      cv_.notify_all();
      return;
    }
    case FrameKind::kGoodbye: {
      {
        std::lock_guard<std::mutex> lk(mu_);
        p.goodbye_rx = true;
        if ((f.flags & kFlagError) != 0) p.goodbye_err = true;
      }
      cv_.notify_all();
      return;
    }
    default:
      break;  // reliable kinds fall through
  }
  const std::uint64_t seq = f.seq;
  std::vector<Frame> released;
  if (!p.reorder.push(std::move(f), &released)) {
    return;  // gap buffer full — no ack, the sender's RTO retries later
  }
  // Ack every accepted frame, including the duplicates the reorderer just
  // dropped: a re-received frame usually means our previous ack was lost.
  Frame ack;
  ack.kind = FrameKind::kAck;
  ack.seq = seq;
  ack.src = std::uint32_t(opts_.proc);
  ack.dst = std::uint32_t(p.id);
  emit_control(p, ack, now);
  if (!deliver_) return;
  for (Frame& r : released) deliver_(std::move(r));
}

void Fabric::read_ready(Peer& p, Clock::time_point now) {
  std::uint8_t buf[kReadChunk];
  bool down = false;
  int down_err = 0;
  for (int round = 0; round < 4; ++round) {
    ssize_t n = ::recv(p.fd, buf, sizeof buf, 0);
    if (n > 0) {
      counters().bytes_recv.add(std::size_t(n));
      p.reader.feed(buf, std::size_t(n));
      if (std::size_t(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {  // orderly EOF (peer closed or crashed with FIN)
      down = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    down = true;
    down_err = errno;
    break;
  }
  if (p.reader.corrupt()) {
    conn_down(p, EPROTO);  // torn/garbage stream: resync via reconnect
    return;
  }
  // Handle complete frames BEFORE reacting to EOF: the peer's goodbye often
  // rides the same read as the close that follows it, and conn_down resets
  // the reader.
  Frame f;
  while (p.reader.next(&f)) handle_frame(p, std::move(f), now);
  if (down) conn_down(p, down_err);
}

void Fabric::accept_ready(Clock::time_point now) {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_cloexec_nonblock(fd);
    PendingAccept pa;
    pa.fd = fd;
    pa.deadline = now + std::chrono::milliseconds(opts_.connect_window_ms);
    pending_accepts_.push_back(std::move(pa));
  }
}

void Fabric::poll_pending_accepts(Clock::time_point now) {
  for (auto it = pending_accepts_.begin(); it != pending_accepts_.end();) {
    PendingAccept& pa = *it;
    std::uint8_t buf[4096];
    bool drop = false;
    for (;;) {
      ssize_t n = ::recv(pa.fd, buf, sizeof buf, 0);
      if (n > 0) {
        pa.reader.feed(buf, std::size_t(n));
        continue;
      }
      if (n == 0) drop = true;
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    Frame f;
    if (!drop && pa.reader.next(&f)) {
      int who = (f.kind == FrameKind::kHello) ? int(f.a) : -1;
      if (who >= 0 && who < opts_.nprocs && who != opts_.proc) {
        Peer& p = *peers_[std::size_t(who)];
        bool dead;
        {
          std::lock_guard<std::mutex> lk(mu_);
          dead = p.dead;
        }
        if (!dead) {
          attach(p, pa.fd, std::move(pa.reader), now);
          // Frames already buffered behind the hello.
          Frame g;
          while (p.fd >= 0 && p.reader.next(&g)) {
            handle_frame(p, std::move(g), now);
          }
        } else {
          ::close(pa.fd);
        }
        it = pending_accepts_.erase(it);
        continue;
      }
      drop = true;  // first frame was not a valid hello
    }
    if (drop || pa.reader.corrupt() || now >= pa.deadline) {
      ::close(pa.fd);
      it = pending_accepts_.erase(it);
      continue;
    }
    ++it;
  }
}

void Fabric::maintain(Peer& p, Clock::time_point now) {
  bool dead, goodbye, paused;
  {
    std::lock_guard<std::mutex> lk(mu_);
    dead = p.dead;
    goodbye = goodbye_phase_;
    paused = paused_;
  }
  if (dead) {
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
      p.up = false;
      p.connecting = false;
    }
    return;
  }
  if (p.fd < 0 && initiator(p.id) && now >= p.next_attempt) {
    try_connect(p, now);
  }
  if (!p.ever_up) {
    // Refused: the peer never came up inside the connect window. Symmetric
    // on both sides — an acceptor can't tell "slow" from "never started"
    // any other way.
    if (now - start_ > std::chrono::milliseconds(opts_.connect_window_ms)) {
      mark_dead(p, /*refused=*/true, /*half_open=*/false);
    }
    return;
  }
  // Silence-based death detection — applies whether or not a connection is
  // currently up (a crashed peer looks like conn_down + failed reconnects).
  // A goodbye exempts the peer: it finished cleanly and owes us no more
  // heartbeats.
  bool gb_rx;
  {
    std::lock_guard<std::mutex> lk(mu_);
    gb_rx = p.goodbye_rx;
  }
  if (!gb_rx &&
      now - p.last_rx > std::chrono::milliseconds(opts_.death_timeout_ms)) {
    mark_dead(p, /*refused=*/false, /*half_open=*/p.up && p.fd >= 0);
    return;
  }
  if (!p.up) return;
  // Fault-delayed bytes whose timer expired.
  while (!p.delayed.empty() && p.delayed.front().first <= now) {
    Bytes& b = p.delayed.front().second;
    p.outbuf.insert(p.outbuf.end(), b.begin(), b.end());
    p.delayed.pop_front();
    p.last_tx = now;
  }
  // RTO scan: capped exponential per frame.
  for (auto& [seq, u] : p.unacked) {
    if (now < u.next_rto) continue;
    transmit(p, u.frame, fault::kPayloadLane, now);
    counters().retransmits.add();
    ++u.attempts;
    const std::uint32_t shift = std::min<std::uint32_t>(u.attempts, 5);
    u.next_rto = now + std::chrono::milliseconds(opts_.rto_ms << shift);
  }
  drain_sendq(p, now);
  // Heartbeat / goodbye cadence (goodbye repeats until acknowledged by the
  // peer's own goodbye — it is unsequenced, so repetition is its delivery
  // guarantee).
  if (goodbye) {
    if (!p.goodbye_sent ||
        now - p.last_tx >= std::chrono::milliseconds(opts_.heartbeat_ms)) {
      Frame bye;
      bye.kind = FrameKind::kGoodbye;
      bool err;
      {
        std::lock_guard<std::mutex> lk(mu_);
        err = goodbye_error_;
      }
      bye.flags = err ? kFlagError : 0;
      bye.src = std::uint32_t(opts_.proc);
      bye.dst = std::uint32_t(p.id);
      append_frame(p.outbuf, bye);  // exempt from injection, like hello
      counters().frames_sent.add();
      p.last_tx = now;
      p.goodbye_sent = true;
    }
  } else if (now - p.last_tx >=
             std::chrono::milliseconds(opts_.heartbeat_ms)) {
    Frame hb;
    hb.kind = FrameKind::kHeartbeat;
    hb.src = std::uint32_t(opts_.proc);
    hb.dst = std::uint32_t(p.id);
    emit_control(p, hb, now);
    counters().heartbeats.add();
  }
  // pause_tx freezes the wire completely: bytes stay in the outbuf.
  if (!paused) flush_out(p);
  if (goodbye && p.goodbye_sent && p.fd >= 0 &&
      p.outoff >= p.outbuf.size()) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!p.goodbye_flushed) {
        p.goodbye_flushed = true;
        notify = true;
      }
    }
    if (notify) cv_.notify_all();
  }
}

void Fabric::io_main() {
  start_ = Clock::now();
  std::unique_ptr<support::trace::Ring> ring;
  if (support::trace::enabled()) {
    ring = std::make_unique<support::trace::Ring>();
    support::trace::set_thread_ring(ring.get());
  }
  for (;;) {
    bool stop, drop, paused;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop = stop_;
      drop = drop_conns_;
      drop_conns_ = false;
      paused = paused_;
    }
    if (stop) break;
    auto now = Clock::now();
    check_dark();
    bool dark;
    {
      std::lock_guard<std::mutex> lk(mu_);
      dark = dark_;
    }
    if (!dark) {
      if (drop) {
        for (auto& up : peers_) {
          if (up && up->fd >= 0) conn_down(*up, 0);
        }
      }
      poll_pending_accepts(now);
      for (auto& up : peers_) {
        if (up) maintain(*up, now);
      }
    }
    // Poll set: wake pipe, listener, pending accepts, live peers.
    std::vector<pollfd> fds;
    std::vector<Peer*> fd_peer;
    fds.push_back({wake_rd_, POLLIN, 0});
    fd_peer.push_back(nullptr);
    if (!dark && listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_peer.push_back(nullptr);
    }
    const std::size_t accept_base = fds.size();
    if (!dark) {
      for (auto& pa : pending_accepts_) {
        fds.push_back({pa.fd, POLLIN, 0});
        fd_peer.push_back(nullptr);
      }
      for (auto& up : peers_) {
        if (!up || up->fd < 0) continue;
        short ev = POLLIN;
        if (up->connecting ||
            (!paused && up->outoff < up->outbuf.size())) {
          ev |= POLLOUT;
        }
        fds.push_back({up->fd, ev, 0});
        fd_peer.push_back(up.get());
      }
    }
    ::poll(fds.data(), nfds_t(fds.size()), 2);
    now = Clock::now();
    if (fds[0].revents != 0) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof buf) > 0) {
      }
    }
    for (std::size_t i = accept_base; i < fds.size(); ++i) {
      Peer* p = fd_peer[i];
      if (p == nullptr) continue;  // pending accepts are re-polled above
      if (p->fd != fds[i].fd) continue;  // closed/reattached this iteration
      if (p->connecting) {
        if ((fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
          finish_connect(*p);
        }
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_ready(*p, now);
      }
      if (p->fd == fds[i].fd && (fds[i].revents & POLLOUT) != 0 && !paused) {
        flush_out(*p);
      }
    }
    if (!dark && listen_fd_ >= 0) accept_ready(now);
  }
  close_all_io();
  if (ring != nullptr) {
    support::trace::set_thread_ring(nullptr);
    support::trace::Track t;
    t.pid = 1000 + opts_.proc;  // off the rank pid range
    t.tid = opts_.job;
    t.name = "net-io p" + std::to_string(opts_.proc);
    t.events = ring->snapshot();
    t.dropped = ring->dropped();
    if (!t.events.empty()) {
      support::trace::Collector::global().add_track(std::move(t));
    }
  }
}

}  // namespace net
