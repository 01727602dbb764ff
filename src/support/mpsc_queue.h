// Vyukov-style intrusive lock-free multi-producer single-consumer queue.
//
// This is the communication worker's worklist (paper §III: "a worklist of
// communication tasks implemented as a lock-free queue"): any computation
// worker enqueues communication tasks; only the communication worker dequeues.
//
// Intrusive: an element carries its own link (it derives from MpscNode), so a
// push allocates nothing. The queue never owns its elements, and an element
// may sit in at most one queue at a time; once popped it may be pushed again.
#pragma once

#include <atomic>
#include <type_traits>

namespace support {

struct MpscNode {
  std::atomic<MpscNode*> mpsc_next{nullptr};
};

template <typename T>
class MpscQueue {
  static_assert(std::is_base_of_v<MpscNode, T>,
                "MpscQueue elements carry their link: derive from MpscNode");

 public:
  MpscQueue() : head_(&stub_), tail_(&stub_) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Any thread.
  void push(T* item) { push_node(item); }

  // Consumer only. Returns null when the queue is empty, or while the only
  // remaining push has swapped the head but not yet linked its node (the
  // element shows up on a later call).
  T* pop() {
    MpscNode* tail = tail_;
    MpscNode* next = tail->mpsc_next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) return nullptr;
      tail_ = next;
      tail = next;
      next = next->mpsc_next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_ = next;
      return static_cast<T*>(tail);
    }
    if (tail != head_.load(std::memory_order_acquire)) return nullptr;
    // `tail` is the last element: park the stub behind it so it can leave.
    push_node(&stub_);
    next = tail->mpsc_next.load(std::memory_order_acquire);
    if (next == nullptr) return nullptr;
    tail_ = next;
    return static_cast<T*>(tail);
  }

  // Consumer only. False from a push's head swap on, even while pop() cannot
  // return its node yet; the swap and this load are seq_cst, so a consumer
  // that registers on an EventCount and then finds the queue empty has
  // seen every push whose ring missed it (support/event_count.h).
  bool empty_approx() const {
    return tail_ == &stub_ && head_.load(std::memory_order_seq_cst) == &stub_;
  }

 private:
  void push_node(MpscNode* n) {
    n->mpsc_next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = head_.exchange(n, std::memory_order_seq_cst);
    prev->mpsc_next.store(n, std::memory_order_release);
  }

  MpscNode stub_;
  alignas(64) std::atomic<MpscNode*> head_;  // producers
  alignas(64) MpscNode* tail_;               // consumer
};

}  // namespace support
