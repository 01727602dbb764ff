#include "core/ddf.h"

namespace hc {

DdfBase::~DdfBase() {
  check::on_ddf_destroy(this);
  // Free any waiters that will never fire. Their tasks cannot run (input
  // destroyed before its put); release their finish scopes so a waiting
  // finish observes quiescence instead of hanging, and free the memory.
  WaitNode* n = head_.load(std::memory_order_acquire);
  if (n == kReady) return;
  while (n != nullptr) {
    WaitNode* next = n->next;
    AwaitFrame* f = n->frame;
    if (f->is_or) delete n;  // an AND frame's node lives in the frame
    f->abandon();
    f->unref();
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
  WaitNode* list = head_.exchange(kReady, std::memory_order_acq_rel);
  while (list != nullptr && list != kReady) {
    WaitNode* next = list->next;
    AwaitFrame* f = list->frame;
    if (f->is_or) {
      delete list;
      f->fire_once();
    } else {
      f->advance();  // may park the frame's node on its next input
    }
    f->unref();
    list = next;
  }
}

void AwaitFrame::advance() {
  while (next_dep < deps.size()) {
    DdfBase* d = deps[next_dep];
    if (d->satisfied()) {
      ++next_dep;
      continue;
    }
    and_node.frame = this;
    ref();
    if (d->subscribe(&and_node)) return;  // parked; a put resumes the scan
    // Lost the race: d was put between the check and the subscribe.
    unref();
    ++next_dep;
  }
  // All inputs ready: release the task into the pool.
  Task* t = task;
  task = nullptr;
  check::on_await_release(t, deps);  // join every input's put clock
  rt->schedule(t);
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
  if (is_or) {
    if (!fired.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
      return;  // already ran (or abandoned) via another input
    }
  }
  Task* t = task;
  task = nullptr;
  if (t != nullptr) {
    if (t->finish != nullptr) t->finish->dec();
    destroy_task(t);
  }
}

namespace detail {
void register_await(AwaitFrame* frame) {
  if (frame->is_or) {
    if (frame->deps.empty()) {
      frame->fire_once();
      frame->unref();
      return;
    }
    // Register on every dep; the token bit arbitrates.
    for (DdfBase* d : frame->deps) {
      auto* node = new DdfBase::WaitNode;
      node->frame = frame;
      frame->ref();
      if (!d->subscribe(node)) {
        frame->unref();
        delete node;
        frame->fire_once();
      }
    }
    frame->unref();  // drop the creation reference
  } else {
    frame->advance();
    frame->unref();  // drop the creation reference; advance() took its own
  }
}
}  // namespace detail

}  // namespace hc
