#include "support/event_count.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

#include "support/trace.h"

namespace support {

namespace {
std::uint32_t* word(std::atomic<std::uint32_t>& a) {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  return reinterpret_cast<std::uint32_t*>(&a);
}
}  // namespace

bool SpinWindow::expired() {
  const std::uint64_t now = trace::now_ns();
  if (since_ == 0) since_ = now;
  return now - since_ >= kSpinWindowNs || (deadline_ != 0 && now >= deadline_);
}

EventCount::Key EventCount::prepare() {
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return epoch_.load(std::memory_order_acquire);
}

bool EventCount::commit(Key key, std::uint64_t deadline_ns) {
  const std::uint64_t now = deadline_ns != 0 ? trace::now_ns() : 0;
  // The kernel parks only while the word still holds `key`, so a notify()
  // since prepare() makes this return at once.
  if (now <= deadline_ns && epoch_.load(std::memory_order_acquire) == key) {
    const std::uint64_t ns = deadline_ns - now;
    timespec left{time_t(ns / 1'000'000'000u), long(ns % 1'000'000'000u)};
    syscall(SYS_futex, word(epoch_), FUTEX_WAIT_PRIVATE, key,
            deadline_ns != 0 ? &left : nullptr, nullptr, 0);
  }
  waiters_.fetch_sub(1, std::memory_order_relaxed);
  return deadline_ns == 0 || trace::now_ns() < deadline_ns;
}

void EventCount::wake() {
  epoch_.fetch_add(1, std::memory_order_release);
  syscall(SYS_futex, word(epoch_), FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
          nullptr, 0);
}

}  // namespace support
