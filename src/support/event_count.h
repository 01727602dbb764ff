// EventCount: the one way a thread of this stack parks until an event.
//
//   waiter                                  notifier
//   key = ec.prepare();                     make the condition true;
//   if (condition) ec.cancel();             ec.notify();
//   else ec.commit(key, deadline_ns);
//
// prepare() counts the caller in `waiters_` and reads the epoch; commit()
// parks on the epoch word (a private futex) unless it moved since; notify()
// bumps the epoch and wakes every parked thread, but only when `waiters_` is
// nonzero. Waiters re-check after every wake-up: it may be for another
// condition sharing the EventCount.
//
// Ordering. A lost wake-up needs the waiter's check to miss the notifier's
// store and the notifier's load of `waiters_` to miss prepare(). prepare()
// ends in a seq_cst fence; notify() adds none, so between making the
// condition true and notify() the notifier needs one of
//  - a seq_cst fence (task pushes, RequestImpl::set_timeout);
//  - a seq_cst read-modify-write that made the condition true, checked by
//    the waiter with a seq_cst load (a finish scope's count, a DDF's wait
//    list, the comm-task worklist's head);
//  - a lock held while making it true that the waiter takes after
//    prepare() (the smpi endpoint's, the DDDF outbox's).
// Either way the two sides are ordered and the second sees the first, and
// only a task push pays a fence. A membarrier()-based prepare() that spared
// every notify() its fence stalled parking threads for 17-43 ms on a 4-vCPU
// VM, waiting on IPIs to vCPUs the host had descheduled.
//
// GCC 12's ThreadSanitizer does not model atomic_thread_fence, and a lost
// wake-up is no data race, so TSan does not check this protocol:
// Runtime.ParkedWorkerNeverMissesAWakeup does, with seeded injections into
// a worker whose parks have no timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace support {

// How long a thread with nothing to do polls before it parks. The measured
// gaps from a waiter going idle to its event (perfbench, 10 s runs, setups
// included, 4-vCPU Xeon VM; CHANGES.md): 200 us outlasts 99.99% of
// msgrate's and 99.96% of the sw_dddf communication worker's, so message
// paths never park, and 90% of sw_dddf's computation-worker gaps, the rest
// being millisecond stretches such as a graph build, where parking pays.
inline constexpr std::uint64_t kSpinWindowNs = 200'000;

// A waiter's polls since it last made progress. Each idle poll yields, so
// on an oversubscribed host the thread that will ring can run, and only
// every 64th reads the clock: on msgrate a clock read and a pause on every
// communication-worker turn cost 3.5-5.8% of the message rate, and pausing
// instead of yielding made sw_dddf's DATA batches smaller (16% more
// smpi.msgs_per_kwork).
class SpinWindow {
 public:
  // A deadline (support::trace::now_ns clock; 0 = none) ends it early.
  explicit SpinWindow(std::uint64_t deadline_ns = 0) : deadline_(deadline_ns) {}

  // One idle poll; true once the window or the deadline has passed.
  bool idle() {
    std::this_thread::yield();
    return (++polls_ & 63u) == 0 && expired();
  }
  void reset() {
    polls_ = 0;
    since_ = 0;
  }

 private:
  bool expired();

  std::uint64_t deadline_;
  std::uint64_t since_ = 0;
  std::uint32_t polls_ = 0;
};

class EventCount {
 public:
  using Key = std::uint32_t;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  Key prepare();
  // Withdraws a prepare() whose check found the condition true.
  void cancel() { waiters_.fetch_sub(1, std::memory_order_relaxed); }
  // Parks until a notify() after prepare() or deadline_ns (now_ns clock;
  // 0 = none), then withdraws. False when the deadline passed.
  bool commit(Key key, std::uint64_t deadline_ns = 0);
  // True when some thread was registered (and is now woken).
  bool notify() {
    if (waiters_.load(std::memory_order_seq_cst) == 0) return false;
    wake();
    return true;
  }

 private:
  void wake();

  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<std::uint32_t> epoch_{0};
};

}  // namespace support
