#include "core/ddf.h"

#include <algorithm>
#include <span>

#include "core/task_pool.h"

namespace hc {

namespace {

// Retires a DDT that will never run (an input was destroyed before its put)
// and releases its finish scope, so a waiting finish observes quiescence
// instead of hanging. The slot is recycled before dec(), as in run_task.
void drop_task(Task* t) {
  FinishScope* fs = t->finish;
  destroy_task(t);
  if (fs != nullptr) fs->dec();
}

// Resumes an AND frame's scan at its cursor: parks the frame's node on the
// next unsatisfied input, or schedules the task when none is left. Either
// way this is the caller's last touch of t: once the node is on a wait list
// a putter may resume it, and once the task is scheduled it may run and
// retire its slot.
void advance(Task* t) {
  AndFrame& f = t->await;
  DdfBase* const* deps = f.deps();
  while (f.cursor < f.count) {
    DdfBase* d = deps[f.cursor];
    if (!d->satisfied() && d->subscribe(&f.node)) return;
    // Put already, or put between the check and the subscribe.
    ++f.cursor;
  }
  // Join every input's put clock before the task can start.
  check::on_await_release(t, std::span(deps, f.count));
  f.rt->schedule(t);
}

}  // namespace

DdfBase::~DdfBase() {
  check::on_ddf_destroy(this);
  // Free any waiters that will never fire.
  WaitNode* n = head_.load(std::memory_order_acquire);
  if (n == kReady) return;
  while (n != nullptr) {
    WaitNode* next = n->next;
    if (AwaitFrame* f = n->frame) {
      delete n;
      f->abandon();
      f->unref();
    } else {
      drop_task(n->task);  // the node lives in the task's frame
    }
    n = next;
  }
}

bool DdfBase::subscribe(WaitNode* node) {
  WaitNode* h = head_.load(std::memory_order_acquire);
  do {
    if (h == kReady) return false;
    node->next = h;
  } while (!head_.compare_exchange_weak(h, node, std::memory_order_acq_rel,
                                        std::memory_order_acquire));
  return true;
}

void DdfBase::claim(void* payload) {
  void* expected = nullptr;
  if (!value_.compare_exchange_strong(expected, payload,
                                      std::memory_order_acq_rel)) {
    throw SingleAssignmentViolation();
  }
}

void DdfBase::release_waiters() {
  // Snapshot the putter's clock *before* any waiter can be released: a DDT
  // fired below may start running (and join this clock) immediately.
  check::on_ddf_put(this);
  WaitNode* list = head_.exchange(kReady, std::memory_order_seq_cst);
  while (list != nullptr && list != kReady) {
    WaitNode* next = list->next;
    if (AwaitFrame* f = list->frame) {
      delete list;
      f->fire_once();
      f->unref();
    } else {
      advance(list->task);  // may park the node on its next input
    }
    list = next;
  }
}

void AwaitFrame::fire_once() {
  bool expected = false;
  if (fired.compare_exchange_strong(expected, true,
                                    std::memory_order_acq_rel)) {
    Task* t = task;
    task = nullptr;
    // OR list: only satisfied inputs have put clocks to join, and joining
    // them can only add edges (see check.h soundness note).
    check::on_await_release(t, deps);
    rt->schedule(t);
  }
}

void AwaitFrame::abandon() {
  bool expected = false;
  if (!fired.compare_exchange_strong(expected, true,
                                     std::memory_order_acq_rel)) {
    return;  // already ran (or abandoned) via another input
  }
  Task* t = task;
  task = nullptr;
  if (t != nullptr) drop_task(t);
}

namespace detail {

void start_await(Runtime& rt, Task* t, DdfBase* const* deps, std::size_t n) {
  AndFrame& f = t->await;
  f.rt = &rt;
  f.node.task = t;
  DdfBase** to = f.inline_deps;
  if (n > AndFrame::kInline) to = f.heap = new DdfBase*[n];
  f.count = std::uint32_t(n);  // only now may the destructor free heap
  std::copy(deps, deps + n, to);
  advance(t);
}

void register_await_any(AwaitFrame* frame) {
  if (frame->deps.empty()) {
    frame->fire_once();
    frame->unref();
    return;
  }
  // Register on every dep; the token bit arbitrates.
  for (DdfBase* d : frame->deps) {
    auto* node = new WaitNode;
    node->frame = frame;
    frame->ref();
    if (!d->subscribe(node)) {
      frame->unref();
      delete node;
      frame->fire_once();
    }
  }
  frame->unref();  // drop the creation reference
}

}  // namespace detail

}  // namespace hc
