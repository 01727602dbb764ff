// GASNet-flavored active-message transport for the DDDF space: a bus with
// one mailbox per rank and a dedicated progress thread per rank that invokes
// the protocol handlers. No MPI anywhere — this backend exists to prove the
// APGNS claim that the model "can be implemented atop a wide range of
// communication runtimes" (paper §I).
//
// A mailbox push is an in-memory channel: it cannot lose or duplicate a
// message, so the transport keeps no acks, retransmit queue or duplicate
// filter. Under hc-fault injection a protocol message (REGISTER / DATA) is
// only made late, by fault::cross_in_memory on the sending thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dddf/transport.h"
#include "support/mpsc_queue.h"

namespace dddf {

// Shared bus: create one per logical job, hand it to every rank's
// AmTransport. Ranks may live on any threads of the process.
class AmBus {
 public:
  explicit AmBus(int nranks);

  int size() const { return int(mailboxes_.size()); }

 private:
  friend class AmTransport;

  struct Msg : support::MpscNode {  // the mailbox link
    enum class Kind : std::uint8_t { kRegister, kData, kPost, kStop };
    Kind kind = Kind::kPost;
    Guid guid = 0;
    int a = 0;  // requester (kRegister)
    Bytes payload;
    std::function<void()> fn;  // kPost

    // Injection timestamp (trace epoch ns), stamped only while prof
    // telemetry is on, before any injected lateness, so the dispatch-side
    // latency histogram includes it.
    std::uint64_t ts_inject = 0;
  };

  struct Mailbox {
    Mailbox() = default;
    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;
    ~Mailbox() {  // messages to a rank whose progress thread already stopped
      while (Msg* m = queue.pop()) delete m;
    }
    support::MpscQueue<Msg> queue;  // owns the heap messages it holds
  };

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Sense-reversing termination barrier; progress threads keep serving
  // while computation threads wait here. The parity-indexed arrival flags
  // ([generation & 1][rank]) let a deadlined waiter name the ranks that
  // never arrived without racing the releaser of the previous generation.
  std::atomic<int> barrier_arrived_{0};
  std::atomic<std::uint64_t> barrier_generation_{0};
  std::vector<std::unique_ptr<std::atomic<bool>[]>> barrier_flags_;
};

class AmTransport : public Transport {
 public:
  AmTransport(std::shared_ptr<AmBus> bus, int rank);
  ~AmTransport() override;

  void send_register(Guid guid, int home) override;
  void send_data(Guid guid, int to, const Bytes& payload) override;
  void post(std::function<void()> fn) override;
  void finalize_barrier(std::uint64_t timeout_ms = 0) override;

  std::uint64_t data_messages_sent() const {
    return data_sent_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  void progress_loop(std::stop_token st);
  void deliver(int to, std::unique_ptr<AmBus::Msg> msg);
  // Protocol send: a mailbox push, late (or, to a fail-stopped rank,
  // dropped) under fault injection.
  void send_protocol(int to, std::unique_ptr<AmBus::Msg> msg);

  std::shared_ptr<AmBus> bus_;
  std::atomic<std::uint64_t> data_sent_{0};

  std::jthread progress_;
};

}  // namespace dddf
