// Task and FinishScope: the two primitive objects of the Habanero-C style
// async/finish model (paper §II-A).
//
// A Task is a closure plus the finish scope it reports to. Tasks spawned on
// a worker thread live in that worker's slab pool (task_pool.h); only tasks
// created off the spawn path (external threads, launch roots) are
// heap-allocated. A data-driven task (DDT, hc::async_await) keeps its AND
// await frame in the task itself, so gating a task on up to
// AndFrame::kInline inputs allocates nothing.
//
// A FinishScope counts outstanding descendants;
// `finish { ... }` waits for its scope to drain. The waiting worker *helps*
// (executes other tasks) instead of blocking, which is how the paper's
// "continuation" semantics map onto C++ without stackful coroutines (see
// DESIGN.md §5).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>

#include "check/check.h"
#include "support/event_count.h"

namespace hc {

class Runtime;
class FinishScope;
class TaskPool;
class DdfBase;
struct AwaitFrame;
struct Task;

// One entry on a DDF's wait list (ddf.h). An AND await parks the node of its
// task's AndFrame (`task` set); an OR await parks one heap node per input,
// each pointing at the shared heap AwaitFrame (`frame` set).
struct WaitNode {
  WaitNode* next = nullptr;
  Task* task = nullptr;
  AwaitFrame* frame = nullptr;
};

// The AND await frame of a DDT. Its one node is parked on one unsatisfied
// input at a time, and a put on that input resumes the scan at `cursor`
// (ddf.cc). Up to kInline inputs are held inline; more go to a heap array.
// The frame has no reference count: the thread that finds the last input
// satisfied schedules the task, and the slot goes back to its pool when the
// task retires, so nobody may touch the frame after parking or scheduling.
struct AndFrame {
  // A Smith-Waterman tile's top, left and corner: the widest list a gated
  // workload builds.
  static constexpr std::uint32_t kInline = 3;

  AndFrame() = default;
  AndFrame(const AndFrame&) = delete;
  AndFrame& operator=(const AndFrame&) = delete;
  ~AndFrame() {
    if (count > kInline) delete[] heap;
  }

  DdfBase* const* deps() const { return count > kInline ? heap : inline_deps; }

  WaitNode node;
  std::uint32_t count = 0;   // inputs; 0 when the task is not a DDT
  std::uint32_t cursor = 0;  // every input before it was seen satisfied
  union {
    DdfBase* inline_deps[kInline] = {};
    DdfBase** heap;
  };
  // The runtime to schedule on, kept here rather than read through the
  // task's finish scope: the releasing thread then touches only the frame's
  // cache line, not the scope's counter that the spawner and the workers
  // keep writing.
  Runtime* rt = nullptr;
};

struct Task {
  std::function<void()> fn;
  FinishScope* finish = nullptr;
  // Owning slab pool when pool-allocated (the normal spawn path); nullptr
  // for heap-allocated tasks (external threads, launch roots). Retirement
  // must go through destroy_task() (task_pool.h), never plain delete.
  TaskPool* pool = nullptr;
  // hc-check strand id (0 = unassigned); dead weight unless HCMPI_CHECK.
  std::uint32_t check_strand = 0;
  // Set up by hc::async_await; unused by other tasks.
  AndFrame await;

  Task() = default;
  Task(std::function<void()> f, FinishScope* fs)
      : fn(std::move(f)), finish(fs) {}
};

class FinishScope {
 public:
  explicit FinishScope(Runtime& rt, FinishScope* parent = nullptr)
      : rt_(rt), parent_(parent) {
    check::on_finish_begin(this);
  }

  FinishScope(const FinishScope&) = delete;
  FinishScope& operator=(const FinishScope&) = delete;

  // Registers one more task governed by this scope. A checked build rejects
  // registration on a scope that already drained (finish-scope escape).
  void inc() {
    check::on_scope_inc(this);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  // A governed task finished; the last rings the waiter. seq_cst here and
  // in done() orders that ring against a parking waiter (event_count.h).
  void dec() {
    if (count_.fetch_sub(1, std::memory_order_seq_cst) == 1) drained();
  }

  bool done() const { return count_.load(std::memory_order_seq_cst) == 0; }

  // Drops the owner token (the +1 the scope is constructed with via begin()),
  // then waits for the scope to drain (hc::wait_until): a computation worker
  // of the scope's runtime runs other tasks meanwhile, any other thread
  // parks. Rethrows the first exception captured from any governed task.
  void wait_and_rethrow();

  // Records the first exception thrown by a governed task.
  void capture_exception(std::exception_ptr e) {
    bool expected = false;
    if (has_exception_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      exception_ = std::move(e);
    }
  }

  FinishScope* parent() const { return parent_; }
  Runtime& runtime() const { return rt_; }

 private:
  void drained();  // rings the waiter: a task's last touch of the scope

  Runtime& rt_;
  FinishScope* parent_;
  // Starts at 1: the owner token, dropped on entry to wait_and_rethrow().
  std::atomic<std::int64_t> count_{1};
  support::EventCount ec_;  // rung when count_ reaches 0
  // Set after that ring, which may still run when the owner sees count_ at
  // 0: the owner returns, and may destroy the scope, only once it is set.
  std::atomic<bool> released_{false};
  std::atomic<bool> has_exception_{false};
  std::exception_ptr exception_;
};

}  // namespace hc
