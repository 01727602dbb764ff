#include "core/worker.h"

#include "core/place.h"
#include "core/runtime.h"

namespace hc {

// Defined in runtime.cc next to the thread_locals it sets.
void bind_worker_thread(Runtime* rt, Worker* w);

namespace {
using support::trace::Ev;
}  // namespace

const char* steal_policy_name(StealPolicy p) {
  return p == StealPolicy::kOne ? "one" : "half";
}

Worker::Worker(Runtime& rt, int id, bool has_thread, StealPolicy policy)
    : rt_(rt),
      id_(id),
      has_thread_(has_thread),
      // Deterministic per-worker stream: the seed is a pure function of the
      // worker id, so victim order replays under fault::schedule() capture.
      victim_rng_(support::SplitMix64::mix(std::uint64_t(id) + 1)),
      configured_(policy),
      granularity_hist_(support::MetricsRegistry::global().histogram(
          "sched.task_granularity_ns")),
      steal_latency_hist_(support::MetricsRegistry::global().histogram(
          "sched.steal_latency_ns")),
      steal_batch_hist_(
          support::MetricsRegistry::global().histogram("sched.steal_batch")),
      trace_name_((has_thread ? "worker-" : "producer-") + std::to_string(id)) {
}

Worker::~Worker() = default;

void Worker::start() {
  if (!has_thread_) return;
  thread_ = std::jthread([this](std::stop_token st) { main_loop(st); });
}

void Worker::join() {
  if (thread_.joinable()) {
    thread_.request_stop();
    thread_.join();
  }
}

void Worker::push(Task* t) {
  // push() is only ever called by this worker's bound thread (schedule()
  // routes through tl_worker), so recording here keeps the ring SPSC.
  prof::Probe p(prof::State::kDequeOp, &trace_ring_);
  p.instant(Ev::kTaskSpawn, id_);
  deque_.push(t);
}

std::size_t Worker::steal_budget(const Worker& victim) const {
  if (configured_ == StealPolicy::kOne) return 1;
  // Half of what the victim appears to hold, so a shallow deque degrades to
  // steal-one automatically and a deep one amortizes the scan.
  std::size_t half = (victim.deque_depth() + 1) / 2;
  if (half == 0) half = 1;
  return half < kMaxStealBatch ? half : kMaxStealBatch;
}

Task* Worker::try_get_task() {
  // 1. Own deque (LIFO end: locality, as in the paper's runtime).
  {
    prof::Probe p(prof::State::kDequeOp);
    if (auto t = deque_.pop()) return *t;
  }

  // 2 and 3 are the search for work, one steal-attempt span to the profiler.
  prof::Probe p(prof::State::kStealAttempt, &trace_ring_);

  // 2. Place queues along this worker's leaf-to-root path (HPT heuristics;
  //    a depth-0 tree makes this a single root-queue check). The root's
  //    queue also holds what external threads inject.
  if (Place* leaf = rt_.places()->leaf_for_worker(id_)) {
    for (Place* q = leaf; q != nullptr; q = q->parent()) {
      if (Task* t = q->try_pop()) return t;
    }
  }

  // 3. Steal from a random victim; one full scan per call, batch size set by
  //    the policy (one / half).
  int slots = rt_.total_slots();
  if (slots > 1) {
    const std::uint64_t t0 = p.stamp();
    int start = int(victim_rng_.next_below(std::uint32_t(slots)));
    for (int k = 0; k < slots; ++k) {
      int v = (start + k) % slots;
      if (v == id_) continue;
      Worker* victim = rt_.slot(v);
      // Relaxed depth pre-filter: an apparently-empty victim costs two
      // relaxed loads, not the seq_cst fence + CAS traffic of a real probe.
      // This is what keeps a pool of idle workers from hammering everyone
      // else's deque tops.
      if (victim == nullptr || victim->deque_depth() == 0) continue;
      // Only probes are traced: a waiting worker scans empty victims
      // continuously and would otherwise flood its ring.
      p.instant(Ev::kStealAttempt, std::uint32_t(v));
      bump(steal_attempts_);
      Task* buf[kMaxStealBatch];
      std::size_t got = victim->steal_some(buf, steal_budget(*victim));
      if (got == 0) continue;
      bump(steal_batches_);
      steals_.store(steals_.load(std::memory_order_relaxed) + got,
                    std::memory_order_relaxed);
      // Latency of the successful scan only: from scan start to tasks in
      // hand — the cost a victim's work pays to migrate.
      p.sample(steal_latency_hist_, t0,
               p.stamp(Ev::kStealSuccess, std::uint32_t(v)));
      p.sample(steal_batch_hist_, double(got));
      // Run the oldest ourselves; bank the surplus on our own deque, where
      // other thieves (and our own pops) can get at it.
      for (std::size_t i = 1; i < got; ++i) push_surplus(buf[i]);
      if (got > 1) rt_.notify_work();
      return buf[0];
    }
  }
  bump(failed_steal_rounds_);
  return nullptr;
}

void Worker::run_task(Task* t) {
  FinishScope* prev = Runtime::current_finish();
  Runtime::set_current_finish(t->finish);
  std::uint32_t prev_strand = check::on_task_begin(t->check_strand);
  try {
    t->fn();
  } catch (...) {
    if (t->finish != nullptr) {
      t->finish->capture_exception(std::current_exception());
    }
  }
  // Merge this task's history into its finish scope before dec() can release
  // the waiter, then restore the helper's own strand (help-first nesting).
  FinishScope* fs = t->finish;
  check::on_task_end(fs, prev_strand);
  Runtime::set_current_finish(prev);
  // Retire the task BEFORE dec(): once a finish scope drains, every governed
  // task's pool slot has been recycled (and its closure destroyed), so a
  // spawner in steady state reuses slots instead of growing slabs.
  destroy_task(t);
  if (fs != nullptr) fs->dec();
}

void Worker::main_loop(std::stop_token st) {
  bind_worker_thread(&rt_, this);
  // The scheduler loop is the help-first wait for shutdown: it runs tasks,
  // and parks on the doorbell when none is left anywhere. The park span is
  // the gap the paper's "computation workers never block in MPI" claim is
  // about: visible idle time, not hidden in MPI_Wait.
  wait_until(
      "worker main loop",
      [&] { return st.stop_requested() || rt_.stopping(); }, rt_.doorbell(),
      &rt_);
  prof::unregister_thread();
}

}  // namespace hc
