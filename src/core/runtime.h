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
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/task.h"
#include "core/worker.h"

namespace support {
class MetricsRegistry;
}

namespace hc {

class PlaceTree;
class Place;

struct RuntimeConfig {
  int num_workers = 2;
  // Optional HPT depth/fanout; depth 0 = single root place (paper default).
  int place_depth = 0;
  int place_fanout = 2;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  // Steal-batch policy for every worker; kDefault defers to the process-wide
  // default (the --steal= flag / set_default_steal_policy), normally half.
  StealPolicy steal = StealPolicy::kDefault;
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
  Task* create_task(std::function<void()> fn, FinishScope* fs,
                    Place* place = nullptr);

  // Push from the current thread: to its own worker slot when it has one,
  // otherwise to the injection queue.
  void schedule(Task* t);

  // Push bypassing thread identity (external threads, tests).
  void inject(Task* t);

  Task* pop_injected();

  // Wake one idle worker; called after any push.
  void notify_work();

  // Idle workers park here (bounded wait, so missed notifies self-heal).
  void idle_wait();

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

  std::mutex inject_mu_;
  std::deque<Task*> injected_;
  // Mirrors injected_.size() so an empty queue costs pop_injected one
  // relaxed load, not the mutex (as Place::try_pop).
  std::atomic<std::size_t> injected_size_{0};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<int> idle_count_{0};
  std::atomic<bool> stopping_{false};

  std::mutex producer_mu_;
  int trace_pid_ = 0;
  std::uint64_t prof_sampler_id_ = 0;  // telemetry deque-depth gauge
};

}  // namespace hc
