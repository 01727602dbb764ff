// Per-rank matching engine: the posted-receive queue and the
// unexpected-message queue, with MPI matching rules — (source, tag, context)
// with wildcards, FIFO per channel, posted entries matched in post order.
// Every envelope arrives exactly once: World::deliver guarantees it on both
// transports, so the endpoint keeps no duplicate filter of its own.
//
// Both queues and the request pool sit under one spin lock, held only to
// match, copy at most a posted receive's bytes and link or unlink an entry:
// nothing is allocated or freed under it once the queues have reached their
// high-water capacity. Every delivery and cancel rings the doorbell (a
// support::EventCount) after the lock; blocking calls and the rank's hcmpi
// communication worker park on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "smpi/request.h"
#include "smpi/types.h"
#include "support/event_count.h"
#include "support/spin.h"

namespace smpi {

// The bytes of one message: up to kInlineBytes stored in place, so a small
// message needs no heap buffer; larger ones (DDDF batches) get one.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Payload() = default;
  Payload(Payload&& o) noexcept { *this = std::move(o); }
  Payload& operator=(Payload&& o) noexcept;

  void assign(const void* src, std::size_t n);
  const std::uint8_t* data() const {
    return heap_ ? heap_.get() : inline_;
  }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
  std::unique_ptr<std::uint8_t[]> heap_;
  std::uint8_t inline_[kInlineBytes];
};

struct Envelope {
  int source = 0;
  int tag = 0;
  std::uint32_t context = 0;

  // Injection timestamp (trace epoch ns), stamped in isend only while prof
  // telemetry is on; 0 otherwise. Feeds the injection-to-delivery and
  // injection-to-completion latency histograms at the endpoint.
  std::uint64_t ts_inject = 0;

  Payload payload;
};

namespace detail {
// FIFO over a vector that keeps its storage: taking the front advances a
// head index and the dead prefix is compacted in place, so a steady stream
// allocates nothing once the vector has reached its high-water capacity.
template <typename T>
class Fifo {
 public:
  std::size_t size() const { return v_.size() - head_; }
  T& operator[](std::size_t i) { return v_[head_ + i]; }
  const T& operator[](std::size_t i) const { return v_[head_ + i]; }

  void push_back(T&& x) {
    if (head_ > 0 && v_.size() == v_.capacity()) {
      v_.erase(v_.begin(), v_.begin() + std::ptrdiff_t(head_));
      head_ = 0;
    }
    v_.push_back(std::move(x));
  }

  // Removes and returns element i, keeping the others in order.
  T take(std::size_t i) {
    T x = std::move(v_[head_ + i]);
    if (i == 0) {
      if (++head_ == v_.size()) {
        v_.clear();
        head_ = 0;
      }
    } else {
      v_.erase(v_.begin() + std::ptrdiff_t(head_ + i));
    }
    return x;
  }

  void clear() {
    v_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> v_;
  std::size_t head_ = 0;
};
}  // namespace detail

class Endpoint {
 public:
  explicit Endpoint(int rank) : rank_(rank) {}
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return rank_; }

  // Sender side: deliver an envelope to this (destination) endpoint. Matches
  // the oldest compatible posted receive or lands in the unexpected queue.
  void deliver(Envelope&& env);

  // Receiver side: posts a receive on this endpoint. If an unexpected
  // message already matches, the request completes immediately.
  Request post_recv(void* buf, std::size_t cap, int source, int tag,
                    std::uint32_t context);

  // A send request from this endpoint's pool, complete with `st`.
  Request completed_send(const Status& st);

  // Cancel a pending posted receive. True if it was still pending here.
  bool cancel_recv(const Request& req);

  // Non-blocking probe of the unexpected queue.
  bool iprobe(int source, int tag, std::uint32_t context, Status* st);
  // Blocking probe.
  void probe(int source, int tag, std::uint32_t context, Status* st);

  // Blocks until req->done().
  void wait_request(const Request& req);

  // Blocks until any request in the span completes; returns its index, or
  // -1 when every entry is null.
  int wait_any(const std::vector<Request>& reqs);

  // Park with prepare_wait(): it registers, then takes the lock once, which
  // orders the caller's next look after any delivery its ring missed.
  support::EventCount& doorbell() { return doorbell_; }
  support::EventCount::Key prepare_wait();

  // Counters for tests.
  std::uint64_t unexpected_high_water() const { return unexpected_hw_; }

 private:
  friend struct RequestState;  // unref() returns states through recycle()

  static bool matches(const RequestState& r, const Envelope& e) {
    return r.context == e.context &&
           (r.match_source == kAnySource || r.match_source == e.source) &&
           (r.match_tag == kAnyTag || r.match_tag == e.tag);
  }

  // Pops a pooled state; with the pool empty, allocates one with the lock
  // released. `lk` is held on entry and on return.
  RequestState* take_state(std::unique_lock<support::SpinLock>& lk);
  void recycle(RequestState* r);
  void complete_recv_locked(RequestState& r, const Envelope& env);
  bool probe_locked(int source, int tag, std::uint32_t context, Status* st);
  // Polls ready() for the spin window, then parks until it holds.
  template <typename Ready>
  void wait_until(Ready ready);

  const int rank_;
  support::SpinLock mu_;
  detail::Fifo<Request> posted_;
  detail::Fifo<Envelope> unexpected_;
  RequestState* free_ = nullptr;  // pooled request states
  std::uint64_t unexpected_hw_ = 0;

  alignas(64) support::EventCount doorbell_;
};

}  // namespace smpi
