// Tiny spin primitives: a pause instruction and a TTAS spinlock for short
// critical sections (the smpi matching engine, the request and comm-task
// slot pools, the DDDF outbox). Waiting for an event is
// support/event_count.h's job.
#pragma once

#include <atomic>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace support {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

class SpinLock {
 public:
  // A waiter pauses 1, 2, 4 and 8 times, then yields, so a holder preempted
  // inside its critical section gets the CPU back on a host with more
  // runnable threads than cores.
  void lock() {
    int round = 0;
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
        if (round == 4) {
          std::this_thread::yield();
          continue;
        }
        for (int i = 0; i < (1 << round); ++i) cpu_relax();
        ++round;
      }
    }
  }
  bool try_lock() { return !flag_.exchange(true, std::memory_order_acquire); }
  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace support
