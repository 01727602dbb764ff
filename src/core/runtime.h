// The Habanero-C style intra-node runtime: a fixed pool of computation
// workers with work-stealing deques, plus registered producer slots for
// non-computation threads (the HCMPI communication worker).
//
// Multiple Runtime instances may coexist in one process — the smpi substrate
// runs one rank per thread, and each rank owns its own Runtime — so all state
// is per-instance; the only thread_locals are "which worker/finish scope is
// this thread currently running under".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/task.h"
#include "core/worker.h"
#include "support/event_count.h"
#include "support/trace.h"

namespace support {
class MetricsRegistry;
}

namespace hc {

class PlaceTree;

struct RuntimeConfig {
  int num_workers = 2;
  // Optional HPT depth/fanout; depth 0 = single root place (paper default).
  int place_depth = 0;
  int place_fanout = 2;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  // Steal-batch policy for every worker (DESIGN.md §8).
  StealPolicy steal = StealPolicy::kHalf;
};

class Runtime {
 public:
  // Producer slots are pre-sized so registration never reallocates storage
  // that racing stealers are scanning.
  static constexpr int kMaxProducers = 8;

  explicit Runtime(const RuntimeConfig& cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs `root` as a task and blocks the calling (external) thread until it
  // and all transitively spawned tasks complete. Rethrows the first task
  // exception.
  void launch(std::function<void()> root);

  // Registers a producer-only slot for the calling thread: it may push() and
  // spawn tasks but never executes them. The slot's deque joins the steal
  // set. Used by the HCMPI communication worker.
  Worker* register_producer();

  int num_workers() const { return int(workers_.size()); }
  Worker& worker(int i) { return *workers_[std::size_t(i)]; }

  // Total victim slots visible to stealers right now.
  int total_slots() const {
    return num_workers() + producer_count_.load(std::memory_order_acquire);
  }
  // Slot i: computation workers first, then producers.
  Worker* slot(int i) {
    if (i < num_workers()) return workers_[std::size_t(i)].get();
    return producers_[std::size_t(i - num_workers())].load(std::memory_order_acquire);
  }

  PlaceTree* places() { return places_.get(); }

  // --- scheduling interface (used by api.h, ddf.cc, workers) ---

  // Allocates a task on the spawning thread's worker pool when the thread is
  // bound to this runtime (the normal spawn path — no malloc), falling back
  // to the heap for external threads. Retirement goes through destroy_task()
  // either way.
  Task* create_task(std::function<void()> fn, FinishScope* fs);

  // Push from the current thread: to its own worker slot when it has one,
  // otherwise to the root place's queue.
  void schedule(Task* t);

  // Push bypassing thread identity (external threads, tests): onto the root
  // place's queue, which every worker's leaf-to-root scan reaches.
  void inject(Task* t);

  // Rings the doorbell, where idle computation workers and helping waiters
  // park (wait_until): after any push, whose plain store the fence orders
  // (support/event_count.h), and forwarded by the events helpers await.
  void notify_work() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    ec_.notify();
  }
  support::EventCount& doorbell() { return ec_; }

  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  // Thread-local context.
  static Worker* current_worker();
  static FinishScope* current_finish();
  static void set_current_finish(FinishScope* fs);
  static Runtime* current_runtime();

  // Aggregate counters for tests/benches.
  std::uint64_t total_tasks_executed() const;
  std::uint64_t total_steals() const;
  std::uint64_t total_steal_attempts() const;
  std::uint64_t total_failed_steal_rounds() const;
  std::uint64_t total_steal_batches() const;

  // Task-pool totals over all live slots (computation + producers).
  struct TaskPoolStats {
    std::uint64_t freelist_hits = 0;
    std::uint64_t freelist_misses = 0;
    std::uint64_t remote_frees = 0;
    std::uint64_t slabs = 0;
  };
  TaskPoolStats task_pool_stats() const;

  // Per-worker breakdown over all live slots (computation + producers).
  struct WorkerCounters {
    int id = 0;
    bool computation = false;
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t failed_steal_rounds = 0;
  };
  std::vector<WorkerCounters> worker_counters() const;

  // --- observability ---

  // Rank identity stamped on flushed trace tracks (Chrome-trace pid).
  // Default 0; hcmpi::Context sets its rank.
  void set_trace_pid(int pid) { trace_pid_ = pid; }

  // Adds this runtime's scheduler counters ("hc.*") and the per-worker
  // task-balance histogram to `reg`. Called with the global registry at
  // destruction; callable earlier for rank-local snapshots.
  void export_metrics(support::MetricsRegistry& reg) const;

  // Snapshots every worker's event ring into the global trace collector.
  // The destructor calls this after joining worker threads (quiescent
  // rings); tracing must be enabled for events to have been recorded.
  void flush_trace_tracks() const;

 private:
  friend class Worker;

  std::vector<std::unique_ptr<Worker>> workers_;  // computation; fixed
  std::array<std::atomic<Worker*>, kMaxProducers> producers_{};
  std::atomic<int> producer_count_{0};
  std::vector<std::unique_ptr<Worker>> producer_storage_;
  std::unique_ptr<PlaceTree> places_;

  alignas(64) support::EventCount ec_;  // the doorbell
  std::atomic<bool> stopping_{false};

  std::mutex producer_mu_;
  int trace_pid_ = 0;
  std::uint64_t prof_sampler_id_ = 0;  // telemetry deque-depth gauge
};

// Parks on `ec`, whose prepare() returned `key`, until it rings or
// deadline_ns passes, as an idle span: the prof state reads idle and the
// trace records kIdleBegin/kIdleEnd. A worker's park in wait_until and the
// communication worker's park both go through here.
inline void park_idle(support::EventCount& ec, support::EventCount::Key key,
                      std::uint64_t deadline_ns) {
  prof::Probe p(prof::State::kIdle);
  p.instant(support::trace::Ev::kIdleBegin);
  ec.commit(key, deadline_ns);
  p.instant(support::trace::Ev::kIdleEnd);
}

// One idle poll of a wait, which the profiler files as idle time. A probe
// reads the gate word when it is built, so each poll opens its own: a
// worker's scheduler loop is one wait_until call for the thread's life.
inline bool idle_poll(support::SpinWindow& window) {
  prof::Probe p(prof::State::kIdle);
  return window.idle();
}

// The one wait loop (DESIGN.md §5): true once done() holds, false once
// deadline_ns (now_ns clock; 0 = none) passes. A computation worker of
// `help` runs tasks meanwhile. With nothing to run a thread polls for
// support::kSpinWindowNs, then parks until the event rings `ec`; a helper
// must also hear pushes, so it registers on `ec` but parks on the doorbell,
// where the event forwards when `ec` had a waiter. Every blocking call of
// core and hcmpi waits here, so hc-check sees each one on the comm worker.
template <typename Done>
bool wait_until(const char* what, Done&& done, support::EventCount& ec,
                Runtime* help = nullptr, std::uint64_t deadline_ns = 0) {
  check::on_blocking_call(what);
  Worker* w = Runtime::current_worker();
  if (help == nullptr || w == nullptr || !w->is_computation() ||
      Runtime::current_runtime() != help) {
    w = nullptr;
  }
  support::EventCount& park = w != nullptr ? help->doorbell() : ec;
  support::SpinWindow window(deadline_ns);
  for (;;) {
    if (done()) return true;
    Task* t = w != nullptr ? w->try_get_task() : nullptr;
    if (t != nullptr) {
      w->execute(t);
      window.reset();
      continue;
    }
    if (!idle_poll(window)) continue;
    if (deadline_ns != 0 && support::trace::now_ns() >= deadline_ns) {
      return false;
    }
    // Register, look once more, then park: an event after the look rings.
    const bool forwarded = &park != &ec;
    if (forwarded) ec.prepare();
    const support::EventCount::Key key = park.prepare();
    if (done() || (w != nullptr && (t = w->try_get_task()) != nullptr)) {
      park.cancel();
    } else {
      park_idle(park, key, deadline_ns);
    }
    if (forwarded) ec.cancel();
    if (t != nullptr) {
      w->execute(t);
      window.reset();
    }
  }
}

}  // namespace hc
