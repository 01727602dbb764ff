// A computation worker: one OS thread plus a Chase–Lev deque of tasks.
//
// Producer-only workers (no thread) exist so non-computation threads — most
// importantly the HCMPI communication worker — can push released tasks into
// the work-stealing pool exactly as in the paper's Fig. 10 ("the
// communication worker pushes the continuation ... onto its deque to be
// stolen by computation workers").
//
// Hot-path design (DESIGN.md §8): task storage comes from a per-worker slab
// pool (task_pool.h), and thieves take half a victim's pending tasks in one
// steal_some() batch unless the steal policy (RuntimeConfig::steal) says one.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "core/task.h"
#include "core/task_pool.h"
#include "prof/prof.h"
#include "support/chase_lev_deque.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/trace.h"

namespace hc {

class Runtime;

// How a thief sizes its steal batches (RuntimeConfig::steal): one task, or
// half of what the victim appears to hold (the default).
enum class StealPolicy : std::uint8_t { kOne, kHalf };

// "one" | "half".
const char* steal_policy_name(StealPolicy p);

class Worker {
 public:
  // Largest steal batch a thief takes in one round, regardless of victim
  // depth (bounds the stack buffer and the surplus re-pushed to our deque).
  static constexpr std::size_t kMaxStealBatch = 16;

  Worker(Runtime& rt, int id, bool has_thread,
         StealPolicy policy = StealPolicy::kHalf);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start();  // spawns the OS thread (computation workers only)
  void join();

  int id() const { return id_; }
  bool is_computation() const { return has_thread_; }

  // Owner (or registered producer) push.
  void push(Task* t);

  // Steal attempt from another worker's perspective: up to max_n tasks in
  // one batch (oldest first). Returns the count taken.
  std::size_t steal_some(Task** out, std::size_t max_n) {
    return deque_.steal_some(out, max_n);
  }

  // Pop + place-queue + steal scan. Returns nullptr when no work was found
  // anywhere.
  Task* try_get_task();

  // Executes a task with the thread-local finish scope set, routing
  // exceptions to the task's scope, and retires the task (recycling its
  // pool slot).
  static void run_task(Task* t);

  // run_task + this worker's execution counter; the form used by the main
  // loop and by help-first waiting. Task spans nest under help-first
  // waiting, which the B/E trace events model directly.
  void execute(Task* t) {
    bump(tasks_executed_);
    prof::Probe p(prof::State::kTaskBody, &trace_ring_);
    const std::uint64_t t0 = p.stamp(support::trace::Ev::kTaskStart, id_);
    run_task(t);
    p.sample(granularity_hist_, t0,
             p.stamp(support::trace::Ev::kTaskEnd, id_));
  }

  // Per-worker counters, exposed for tests and the ablation bench. Single
  // writer (the worker's own thread); readers may sample live workers, so
  // they are relaxed atomics bumped with load+store (a plain increment on
  // every mainstream ISA, not an RMW).
  std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  // Tasks that migrated here by stealing (a batch of k counts k).
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  // Successful steal rounds (a batch of k counts 1).
  std::uint64_t steal_batches() const {
    return steal_batches_.load(std::memory_order_relaxed);
  }
  // Probes of non-empty victims (empty victims are filtered by a relaxed
  // depth estimate before any fence or CAS traffic).
  std::uint64_t steal_attempts() const {
    return steal_attempts_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed_steal_rounds() const {
    return failed_steal_rounds_.load(std::memory_order_relaxed);
  }

  // The policy this worker was configured with.
  StealPolicy steal_policy() const { return configured_; }

  // Racy size estimate of the deque, for the telemetry depth gauge.
  std::size_t deque_depth() const { return deque_.size_approx(); }

  TaskPool& task_pool() { return pool_; }
  const TaskPool& task_pool() const { return pool_; }

  // This worker's trace event ring. The producer is the bound OS thread
  // (the worker's own thread, or the registered external thread for
  // producer slots); snapshots are safe from anywhere.
  support::trace::Ring& trace_ring() { return trace_ring_; }
  const support::trace::Ring& trace_ring() const { return trace_ring_; }

  // Timeline label used by the Chrome-trace exporter ("worker-N" unless
  // overridden — the HCMPI communication worker names itself).
  void set_trace_name(std::string name) { trace_name_ = std::move(name); }
  const std::string& trace_name() const { return trace_name_; }

 private:
  friend class Runtime;
  void main_loop(std::stop_token st);

  // Batch budget for one probe of `victim` under the policy.
  std::size_t steal_budget(const Worker& victim) const;
  // Surplus from a steal batch: own-deque push without the kTaskSpawn trace
  // event (migration, not a spawn).
  void push_surplus(Task* t) { deque_.push(t); }

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  Runtime& rt_;
  const int id_;
  const bool has_thread_;
  support::ChaseLevDeque<Task*> deque_;
  TaskPool pool_;
  support::XorShift64 victim_rng_;  // deterministic stream, seeded from id
  const StealPolicy configured_;
  std::jthread thread_;

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_batches_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> failed_steal_rounds_{0};

  // Telemetry histograms (registry entries, resolved once per worker).
  support::MetricsRegistry::Histogram& granularity_hist_;
  support::MetricsRegistry::Histogram& steal_latency_hist_;
  support::MetricsRegistry::Histogram& steal_batch_hist_;

  support::trace::Ring trace_ring_;
  std::string trace_name_;
};

}  // namespace hc
