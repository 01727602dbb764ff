#include <thread>

#include "core/runtime.h"
#include "core/task.h"

namespace hc {

void FinishScope::drained() {
  Runtime& rt = rt_;
  const bool waited = ec_.notify();
  released_.store(true, std::memory_order_release);
  // A helping owner registered on ec_ but parks on its runtime's doorbell.
  if (waited) rt.notify_work();
}

void FinishScope::wait_and_rethrow() {
  dec();  // drop the owner token
  // Tasks we help with may belong to unrelated scopes; run_task saves and
  // restores the thread-local finish pointer so nesting stays correct.
  wait_until("finish", [this] { return done(); }, ec_, &rt_);
  // Yield, not pause: waking us may have preempted the ringing thread.
  while (!released_.load(std::memory_order_acquire)) std::this_thread::yield();
  // Finish join edge: the waiter acquires every governed task's history and
  // the scope closes for escape detection. Runs on the exceptional exit too.
  check::on_finish_join(this);
  if (has_exception_.load(std::memory_order_acquire) && exception_) {
    std::rethrow_exception(exception_);
  }
}

}  // namespace hc
