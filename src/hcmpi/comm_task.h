// Communication tasks and their lifecycle (paper Fig. 11):
//
//   ALLOCATED -> PRESCRIBED -> ACTIVE -> COMPLETED -> AVAILABLE
//
// A computation worker allocates a task (recycling from the AVAILABLE pool
// when possible), fills in the operation (PRESCRIBED) and enqueues it on the
// communication worker's lock-free worklist, which links the task itself.
// The communication worker issues the underlying smpi operation (ACTIVE: a
// point-to-point request it polls, or a collective script it steps),
// completes it (COMPLETED: status is DDF_PUT onto the HCMPI request, which
// lives in the task, and the enclosing finish scope is released) and
// retires the slot (AVAILABLE, generation bumped so a stale cancel can
// never touch a reused slot). The slot goes back to the pool once the last
// RequestHandle to its request is dropped, so a handle never sees a reuse.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/check.h"
#include "core/ddf.h"
#include "smpi/comm.h"
#include "support/event_count.h"
#include "support/mpsc_queue.h"
#include "support/ref_ptr.h"
#include "support/trace.h"

namespace hcmpi {

using Status = smpi::Status;

enum class CommKind : std::uint8_t {
  kIsend,
  kIrecv,
  kCancel,
  // Any collective: the task owns its smpi script, which the communication
  // worker steps between p2p polls, in FIFO order (MPI's one-collective-at-
  // a-time-per-communicator rule).
  kCollective,
  // Arbitrary closure executed on the communication worker with the system
  // communicator (Context::post_exec_async).
  kExec,
  kShutdown,
};

inline const char* kind_name(CommKind k) {
  switch (k) {
    case CommKind::kIsend: return "isend";
    case CommKind::kIrecv: return "irecv";
    case CommKind::kCancel: return "cancel";
    case CommKind::kCollective: return "collective";
    case CommKind::kExec: return "exec";
    case CommKind::kShutdown: return "shutdown";
  }
  return "?";
}

enum class CommTaskState : std::uint8_t {
  kAllocated,
  kPrescribed,
  kActive,
  kCompleted,
  kAvailable,
};

// The Fig. 10/11 lattice, with two sanctioned shortcuts: command tasks
// (cancel, shutdown) retire PRESCRIBED -> AVAILABLE without ever becoming
// ACTIVE, and recycling reopens AVAILABLE -> ALLOCATED.
constexpr bool valid_transition(CommTaskState from, CommTaskState to) {
  switch (to) {
    case CommTaskState::kAllocated:
      return from == CommTaskState::kAvailable;
    case CommTaskState::kPrescribed:
      return from == CommTaskState::kAllocated;
    case CommTaskState::kActive:
      return from == CommTaskState::kPrescribed;
    case CommTaskState::kCompleted:
      return from == CommTaskState::kActive;
    case CommTaskState::kAvailable:
      return from == CommTaskState::kCompleted ||
             from == CommTaskState::kPrescribed;
  }
  return false;
}

// An HCMPI request is a DDF of Status ("An important property of an
// HCMPI_Request object is that it can also be provided wherever an HC DDF is
// expected", §II-B) that lives in its communication task's slot, so cancel
// reaches the in-flight operation through the slot.
struct CommTask;

// Raised *into the enclosing finish scope* when a request with a deadline
// and the raise policy expires: the finish's waiter rethrows it, which is
// the structured form of "this communication never completed".
class RequestTimeout : public std::runtime_error {
 public:
  RequestTimeout(CommKind kind, int peer, int tag)
      : std::runtime_error(std::string("hcmpi: request timed out: ") +
                           kind_name(kind) + " peer=" + std::to_string(peer) +
                           " tag=" + std::to_string(tag)),
        kind_(kind), peer_(peer), tag_(tag) {}
  CommKind kind() const { return kind_; }
  int peer() const { return peer_; }
  int tag() const { return tag_; }

 private:
  CommKind kind_;
  int peer_;
  int tag_;
};

class RequestImpl : public hc::Ddf<Status> {
 public:
  // Per-request deadline (hc-fault): the communication worker's ACTIVE scan
  // completes an expired request with Status.error = kTimeout instead of
  // letting it hang, and a parked communication worker is rung so that it
  // re-reads its deadlines. With `raise` (the default), the timeout is
  // additionally thrown into the enclosing finish scope as RequestTimeout;
  // pass raise=false to handle the coded Status yourself.
  void set_timeout(std::uint64_t timeout_us, bool raise = true);

  // DDF_PUT (hides Ddf::put), ringing the threads blocked on the request.
  void put(Status st);

  std::atomic<std::uint64_t> deadline_ns{0};  // 0 = no deadline
  std::atomic<bool> raise_on_timeout{false};

  // Handle plumbing (support::RefPtr). A request lives inside its CommTask
  // and shares the slot's count: the communication worker holds one
  // reference until the task retires, every RequestHandle holds one, and
  // the last release returns the slot to its Context's pool. A bare request
  // (Context::request_create) is deleted by its last handle instead.
  void ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void unref();

 private:
  friend class Context;
  friend class SlotPool;
  friend struct CommTask;
  // Back to a fresh, unput request for the slot's next incarnation.
  void recycle();

  std::atomic<std::uint32_t> refs_{0};
  CommTask* slot_ = nullptr;  // null for a bare request
  support::EventCount ec_;    // rung by put
  // Whose computation workers help while they wait on the request, so put
  // forwards to its doorbell: the issuing Context's runtime for a slot.
  std::atomic<hc::Runtime*> rt_{nullptr};
};

// Copyable, nullable, and may outlive the Context that issued it.
using RequestHandle = support::RefPtr<RequestImpl>;

class SlotPool;

struct CommTask : support::MpscNode {  // the link of the worklist
  CommTask() { request.slot_ = this; }

  std::atomic<CommTaskState> state{CommTaskState::kAllocated};
  std::atomic<std::uint64_t> gen{0};
  CommKind kind = CommKind::kIsend;

  // Stable index into the owning Context's task pool; with `gen` it names
  // one task *incarnation* — the id the trace exporter keys lifecycle spans
  // on (paper Fig. 10: ALLOCATED -> PRESCRIBED -> ACTIVE -> COMPLETED ->
  // AVAILABLE).
  std::uint32_t slot_id = 0;

  // Lifecycle stamps on the support::trace::now_ns clock, for the telemetry
  // latencies. Each is written in every incarnation by the thread driving
  // that transition (prescribed by the submitter, active by the
  // communication worker), 0 while tracing and telemetry are both off, and
  // read at completion; so a latency never pairs one incarnation's stamp
  // with another's.
  std::uint64_t ts_prescribed = 0;
  std::uint64_t ts_active = 0;

  // Point-to-point.
  const void* send_buf = nullptr;
  void* recv_buf = nullptr;
  std::size_t bytes = 0;
  int peer = smpi::kAnySource;
  int tag = smpi::kAnyTag;
  smpi::Request sreq;

  // Completion plumbing. The status of a p2p, collective or exec task lands
  // in `request`, which is handed out before submit; command tasks (cancel,
  // shutdown) never hand it out.
  RequestImpl request;
  hc::FinishScope* finish = nullptr;  // inc'd at creation, dec'd on completion

  // Pool plumbing.
  SlotPool* pool = nullptr;
  CommTask* next_free = nullptr;  // the pool's free list, under its lock

  // Cold for point-to-point messages: only the communication worker touches
  // the rest, so the lines both threads share end above.

  // Collective: built by the submitter, stepped by the communication worker.
  // Held out of line so the point-to-point tasks stay small.
  std::unique_ptr<smpi::CollScript> script;

  // Cancel command: the request's own slot, pinned by the caller's handle.
  CommTask* target = nullptr;

  // Exec command.
  std::function<void(smpi::Comm&)> exec;

  // The issuing communication worker's doorbell (set_timeout rings it).
  support::EventCount* doorbell = nullptr;
};

// The single sanctioned way to move a communication task through its
// lifecycle: validates the edge against the Fig. 10/11 lattice. A checked
// build throws check::CommTaskStateViolation; an unchecked Debug build
// asserts; Release publishes with the same ordering as the raw store it
// replaces. Returns the prior state.
inline CommTaskState transition(CommTask& t, CommTaskState to,
                                std::memory_order order =
                                    std::memory_order_release) {
  CommTaskState from = t.state.exchange(
      to, order == std::memory_order_relaxed ? std::memory_order_relaxed
                                             : std::memory_order_acq_rel);
  if (!valid_transition(from, to)) {
#if HCMPI_CHECK
    throw hc::check::CommTaskStateViolation(int(from), int(to));
#else
    assert(false && "hcmpi: CommTaskState transition outside the lattice");
#endif
  }
  return from;
}

}  // namespace hcmpi
