// hc-net Fabric: one process's view of the socket mesh (DESIGN.md §9).
//
// A Fabric owns one duplex Unix-domain stream connection per peer process
// and a single poll()-driven IO thread that does everything: connect/accept
// supervision with capped-backoff reconnect, framing, per-connection
// sequencing + selective acks + RTO retransmission, exactly-once in-order
// release through a Reorderer, heartbeats and silence-based peer-death
// detection, deferred (never sleeping) fault-injected delays, and the
// flush→goodbye teardown handshake. Senders interact only through bounded per-peer queues:
// try_send() reports kWouldBlock instead of buffering without limit, and
// send() parks on a condition variable until the queue drains or the peer
// dies.
//
// The Fabric is process-agnostic on purpose: `proc` is just its address in
// the mesh, so a test (or the socket *loopback* mode) can run several
// Fabrics in one OS process and still push every byte through real
// sockets — which is what makes the reliability layer testable under TSan
// without fork/exec.
//
// Fault injection (fault::decide) hooks the transmit point: a dropped frame
// is simply not written (the RTO resends it), a duplicate is written twice
// (the receiving Reorderer drops the second copy), a delay parks the
// encoded bytes on a timer queue. Channel ids are process ids and the
// per-channel decision sequence advances in transmit order on the single
// IO thread, so a seeded chaos schedule is byte-identical across runs —
// the same property the thread-mode wire has.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"

namespace net {

struct FabricOptions {
  std::string session;  // rendezvous directory (UDS paths live here)
  int job = 0;          // per-process instance counter (path uniqueness)
  int proc = 0;
  int nprocs = 1;

  std::uint32_t heartbeat_ms = 50;
  std::uint32_t death_timeout_ms = 3000;
  std::uint32_t connect_window_ms = 10000;
  std::uint32_t rto_ms = 40;
  std::size_t sendq_cap = 1024;
  std::uint32_t shutdown_timeout_ms = 5000;

  // Ranks hosted by this fabric, for two rank-level hooks: fault kill_rank
  // of a hosted rank makes the whole fabric go dark (a killed *process*
  // stops acking and heartbeating — peers must detect it, not be told),
  // and error goodbyes name this range.
  int rank_base = 0;
  int rank_count = 0;
};

class Fabric {
 public:
  enum class SendResult {
    kOk,
    kWouldBlock,  // bounded send queue full; retry after a pause
    kPeerDead,    // peer was alive once (or should have been) and is gone
    kRefused,     // peer never came up inside the connect window
    kClosed,      // this fabric is shut down
  };

  // Reliable frames, each exactly once and in per-connection order, from
  // the IO thread. Must not call back into this Fabric except via try_send.
  using DeliverFn = std::function<void(Frame&&)>;

  Fabric(const FabricOptions& opts, DeliverFn deliver);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int proc() const { return opts_.proc; }
  int nprocs() const { return opts_.nprocs; }
  const FabricOptions& options() const { return opts_; }

  // Queues a reliable frame for dst (seq assigned internally). On
  // kWouldBlock the frame is left intact so the caller can retry with the
  // same object.
  SendResult try_send(int dst, Frame& f);
  // try_send + park until queue space or peer death / shutdown.
  SendResult send(int dst, Frame& f);

  bool peer_dead(int p) const;
  std::vector<int> dead_peers() const;

  // Graceful teardown: flush (all queued frames acked), then exchange
  // goodbyes, then stop the IO thread — each phase bounded by
  // shutdown_timeout_ms so a dead peer cannot hang exit. `error` marks our
  // goodbye with kFlagError; the return value is true when any peer's
  // goodbye carried it (remote failure propagation).
  bool shutdown(bool error = false);

  // --- test / chaos hooks ---------------------------------------------------

  // Immediate stop: no flush, no goodbye, sockets just close. Simulates
  // SIGKILL for peer-death tests.
  void kill();
  // Freezes transmission (frames queue, nothing hits the wire).
  void pause_tx(bool on);
  // Closes every live connection once; the supervisor reconnects and the
  // retransmit queue repairs the stream.
  void drop_connections();

 private:
  struct Unacked {
    Frame frame;
    std::uint32_t attempts = 0;
    std::chrono::steady_clock::time_point next_rto;
  };

  struct Peer {
    int id = -1;

    // Shared state (mu_).
    std::deque<Frame> sendq;
    std::uint64_t tx_next = 0;
    std::size_t unacked_count = 0;
    bool dead = false;
    bool refused = false;      // dead because it never connected
    bool goodbye_rx = false;
    bool goodbye_err = false;
    bool goodbye_flushed = false;  // our goodbye fully written to the wire

    // IO-thread-only state.
    int fd = -1;
    bool connecting = false;   // nonblocking connect() in flight
    bool up = false;
    bool ever_up = false;
    FrameReader reader;
    Reorderer reorder;
    std::map<std::uint64_t, Unacked> unacked;
    Bytes outbuf;
    std::size_t outoff = 0;
    // Fault-delayed encoded frames: (due, bytes). Flushed by the IO loop;
    // the IO thread itself never sleeps for an injected delay.
    std::deque<std::pair<std::chrono::steady_clock::time_point, Bytes>>
        delayed;
    std::chrono::steady_clock::time_point last_rx{};
    std::chrono::steady_clock::time_point last_tx{};
    std::chrono::steady_clock::time_point next_attempt{};
    std::uint32_t backoff_ms = 1;
    bool goodbye_sent = false;
  };

  struct PendingAccept {
    int fd = -1;
    FrameReader reader;
    std::chrono::steady_clock::time_point deadline;
  };

  void io_main();
  void open_listener();
  void wake();
  bool initiator(int p) const { return opts_.proc < p; }
  std::string uds_path(int p) const;

  void maintain(Peer& p, std::chrono::steady_clock::time_point now);
  void try_connect(Peer& p, std::chrono::steady_clock::time_point now);
  void finish_connect(Peer& p);
  void attach(Peer& p, int fd, FrameReader reader,
              std::chrono::steady_clock::time_point now);
  void conn_down(Peer& p, int err);
  void mark_dead(Peer& p, bool refused, bool half_open);
  void drain_sendq(Peer& p, std::chrono::steady_clock::time_point now);
  void transmit(Peer& p, const Frame& f, int lane,
                std::chrono::steady_clock::time_point now);
  void emit_control(Peer& p, const Frame& f,
                    std::chrono::steady_clock::time_point now);
  void flush_out(Peer& p);
  void read_ready(Peer& p, std::chrono::steady_clock::time_point now);
  void handle_frame(Peer& p, Frame&& f,
                    std::chrono::steady_clock::time_point now);
  void accept_ready(std::chrono::steady_clock::time_point now);
  void poll_pending_accepts(std::chrono::steady_clock::time_point now);
  void check_dark();
  void close_all_io();

  FabricOptions opts_;
  DeliverFn deliver_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Peer>> peers_;  // peers_[proc_] stays null
  bool stop_ = false;
  bool closed_ = false;         // no new sends accepted
  bool goodbye_phase_ = false;
  bool goodbye_error_ = false;  // flag to put on our goodbyes
  bool paused_ = false;
  bool drop_conns_ = false;
  bool dark_ = false;  // a hosted rank was fault-killed: play dead
  bool shutdown_done_ = false;

  std::chrono::steady_clock::time_point start_{};  // io_main entry time
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::vector<PendingAccept> pending_accepts_;
  std::string listen_path_;  // UDS file to unlink on exit

  std::thread io_;
};

}  // namespace net
