// Per-worker slab + freelist task pools: the lazy-allocation half of the
// scheduler hot-path overhaul. `async` used to pay one malloc per spawn and
// one free per retire; with pools the spawn path is a freelist pop (or a
// pointer bump into the current slab) on the spawning worker's own pool, and
// retirement recycles the slot without touching the allocator at all.
//
// Ownership protocol:
//   - acquire() is owner-thread-only. The owner is the thread bound to the
//     pool's Worker (bind_owner() is called from bind_worker_thread /
//     register_producer), which is exactly the thread Runtime::create_task
//     routes through, so this needs no enforcement beyond construction.
//   - release() may be called from ANY thread (tasks migrate via stealing
//     and retire wherever they ran). Owner-thread frees go straight onto the
//     private freelist; foreign frees push onto a lock-free MPSC Treiber
//     stack the owner drains in bulk when its private list runs dry.
//   - Slabs are cache-line-aligned and slot sizes are rounded up to a
//     cache-line multiple, so two tasks never share a line (no false sharing
//     between a worker running slot k and the owner recycling slot k+1).
//   - A pooled Task must not outlive its Runtime: slab storage lives in the
//     Worker. DDF wait lists drain (abandon) under normal scoping before the
//     Runtime dies, so this matches the pre-pool lifetime rules.
//
// Under AddressSanitizer free slots are manually poisoned (minus the 8-byte
// freelist link), so a use-after-retire on a recycled task traps exactly
// like a heap use-after-free would.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "core/task.h"

#if defined(__SANITIZE_ADDRESS__)
#define HCMPI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HCMPI_ASAN 1
#endif
#endif
#ifdef HCMPI_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace hc {

class TaskPool {
 public:
  static constexpr std::size_t kCacheLine = 64;
  // Slots per slab. A slot is sizeof(Task) rounded up to a cache line: 128 B
  // with libstdc++, the AND await frame (task.h) included, so a slab is
  // 32 KiB.
  static constexpr std::size_t kSlabTasks = 256;
  static constexpr std::size_t kSlotSize =
      ((sizeof(Task) + kCacheLine - 1) / kCacheLine) * kCacheLine;

  TaskPool() = default;
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    for (unsigned char* s : slabs_) {
#ifdef HCMPI_ASAN
      __asan_unpoison_memory_region(s, kSlabTasks * kSlotSize);
#endif
      ::operator delete(s, std::align_val_t(kCacheLine));
    }
  }

  // Records the calling thread as the pool's owner (the worker's bound
  // thread). release() uses this to pick the private vs. the remote list.
  void bind_owner() {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  // Owner thread only: allocate + construct a task. The returned task's
  // `pool` points back here so destroy_task() can recycle it.
  template <typename... Args>
  Task* acquire(Args&&... args) {
    void* slot = take_slot();
    Task* t = ::new (slot) Task(std::forward<Args>(args)...);
    t->pool = this;
    return t;
  }

  // Any thread: destroy the task and recycle its slot.
  void release(Task* t) {
    t->~Task();
    auto* n = reinterpret_cast<FreeNode*>(t);
#ifdef HCMPI_ASAN
    // Poison everything except the link word. For remote frees this must
    // happen before the push: once the node is published the owner may pop
    // and unpoison it at any moment.
    __asan_poison_memory_region(reinterpret_cast<unsigned char*>(n) +
                                    sizeof(FreeNode),
                                kSlotSize - sizeof(FreeNode));
#endif
    if (owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
      n->next = local_free_;
      local_free_ = n;
    } else {
      FreeNode* head = remote_free_.load(std::memory_order_relaxed);
      do {
        n->next = head;
      } while (!remote_free_.compare_exchange_weak(head, n,
                                                   std::memory_order_release,
                                                   std::memory_order_relaxed));
      remote_frees_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Stats (single writer for hits/misses/slabs — the owner; relaxed readers).
  std::uint64_t freelist_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t freelist_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t remote_frees() const {
    return remote_frees_.load(std::memory_order_relaxed);
  }
  std::uint64_t slab_count() const {
    return slab_count_.load(std::memory_order_relaxed);
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(FreeNode) <= kSlotSize);

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  void* take_slot() {
    FreeNode* n = local_free_;
    if (n == nullptr) {
      // Private list dry: claim the whole remote stack in one exchange.
      n = remote_free_.exchange(nullptr, std::memory_order_acquire);
      if (n == nullptr) {
        bump(misses_);
        return bump_slot();
      }
    }
    local_free_ = n->next;
    bump(hits_);
#ifdef HCMPI_ASAN
    __asan_unpoison_memory_region(n, kSlotSize);
#endif
    return n;
  }

  void* bump_slot() {
    if (bump_ == bump_end_) {
      auto* slab = static_cast<unsigned char*>(::operator new(
          kSlabTasks * kSlotSize, std::align_val_t(kCacheLine)));
      slabs_.push_back(slab);
      bump(slab_count_);
      bump_ = slab;
      bump_end_ = slab + kSlabTasks * kSlotSize;
    }
    void* slot = bump_;
    bump_ += kSlotSize;
    return slot;
  }

  // Owner-only state.
  FreeNode* local_free_ = nullptr;
  unsigned char* bump_ = nullptr;
  unsigned char* bump_end_ = nullptr;
  std::vector<unsigned char*> slabs_;

  // Cross-thread state.
  alignas(kCacheLine) std::atomic<FreeNode*> remote_free_{nullptr};
  std::atomic<std::thread::id> owner_{};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> remote_frees_{0};
  std::atomic<std::uint64_t> slab_count_{0};
};

// The one retirement path for every Task, pooled or heap-allocated.
inline void destroy_task(Task* t) {
  if (TaskPool* p = t->pool; p != nullptr) {
    p->release(t);
  } else {
    delete t;
  }
}

}  // namespace hc
