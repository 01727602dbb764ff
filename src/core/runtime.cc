#include "core/runtime.h"

#include <cassert>
#include <stdexcept>

#include "core/place.h"
#include "prof/prof.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace hc {

namespace {
thread_local Worker* tl_worker = nullptr;
thread_local FinishScope* tl_finish = nullptr;
thread_local Runtime* tl_runtime = nullptr;
}  // namespace

void bind_worker_thread(Runtime* rt, Worker* w) {
  tl_worker = w;
  tl_runtime = rt;
  w->task_pool().bind_owner();
  support::trace::set_thread_ring(&w->trace_ring());
  prof::register_thread(w->trace_name());
}

Worker* Runtime::current_worker() { return tl_worker; }
FinishScope* Runtime::current_finish() { return tl_finish; }
void Runtime::set_current_finish(FinishScope* fs) { tl_finish = fs; }
Runtime* Runtime::current_runtime() { return tl_runtime; }

Runtime::Runtime(const RuntimeConfig& cfg) {
  assert(cfg.num_workers >= 1);
  places_ = std::make_unique<PlaceTree>(cfg.place_depth, cfg.place_fanout);
  workers_.reserve(std::size_t(cfg.num_workers));
  for (int i = 0; i < cfg.num_workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(*this, i, /*has_thread=*/true, cfg.steal));
  }
  places_->assign_workers(cfg.num_workers);
  producer_storage_.reserve(kMaxProducers);
  for (auto& w : workers_) w->start();
  // Telemetry cadence gauge: per-worker deque depth plus the instance total.
  // The callback only runs while prof::telemetry() is on; registration
  // itself costs nothing on any hot path.
  prof_sampler_id_ = prof::add_sampler([this] {
    auto& reg = support::MetricsRegistry::global();
    double total = 0;
    for (const auto& w : workers_) {
      double d = double(w->deque_depth());
      total += d;
      reg.histogram("sched.deque_depth").add(d);
    }
    reg.gauge("sched.deque_depth.total").set(total);
  });
}

Runtime::~Runtime() {
  // Detach the gauge callback before any member it reads goes away;
  // remove_sampler blocks until an in-flight invocation returns.
  prof::remove_sampler(prof_sampler_id_);
  stopping_.store(true, std::memory_order_release);
  notify_work();
  for (auto& w : workers_) w->join();
  // Worker threads are quiescent now: flush rings and counters while the
  // per-worker state is still alive.
  if (support::trace::enabled()) flush_trace_tracks();
  export_metrics(support::MetricsRegistry::global());
  // Drain anything never executed (only possible after an exceptional exit).
  // destroy_task: pooled tasks recycle into their (still-live) worker pools.
  for (int i = 0; i < places_->size(); ++i) {
    while (Task* t = places_->node(i)->try_pop()) destroy_task(t);
  }
}

void Runtime::launch(std::function<void()> root) {
  FinishScope scope(*this, nullptr);
  scope.inc();
  Task* t = create_task(std::move(root), &scope);
  // Spawn edge from the launching thread, so pre-launch initialization
  // happens-before everything the root task does.
  t->check_strand = check::on_spawn();
  inject(t);
  Runtime* prev_rt = tl_runtime;
  tl_runtime = this;
  scope.wait_and_rethrow();
  tl_runtime = prev_rt;
}

Worker* Runtime::register_producer() {
  std::lock_guard<std::mutex> lk(producer_mu_);
  int n = producer_count_.load(std::memory_order_relaxed);
  if (n >= kMaxProducers) throw std::runtime_error("hc: producer slots exhausted");
  producer_storage_.push_back(
      std::make_unique<Worker>(*this, num_workers() + n, /*has_thread=*/false));
  Worker* w = producer_storage_.back().get();
  producers_[std::size_t(n)].store(w, std::memory_order_release);
  producer_count_.store(n + 1, std::memory_order_release);
  bind_worker_thread(this, w);
  return w;
}

Task* Runtime::create_task(std::function<void()> fn, FinishScope* fs) {
  Worker* w = tl_worker;
  if (w != nullptr && tl_runtime == this) {
    // Spawning thread owns a worker slot here: slab-pool allocation, no
    // malloc on the spawn path.
    return w->task_pool().acquire(std::move(fn), fs);
  }
  return new Task(std::move(fn), fs);
}

void Runtime::schedule(Task* t) {
  Worker* w = tl_worker;
  // A worker belonging to a *different* runtime (nested rank layouts) must
  // not push onto a foreign deque: fall back to injection.
  if (w != nullptr && tl_runtime == this) {
    w->push(t);
    notify_work();
  } else {
    inject(t);
  }
}

void Runtime::inject(Task* t) {
  places_->root()->push(t);
  notify_work();
}

std::uint64_t Runtime::total_tasks_executed() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->tasks_executed();
  for (const auto& w : producer_storage_) n += w->tasks_executed();
  return n;
}

std::uint64_t Runtime::total_steals() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->steals();
  return n;
}

std::uint64_t Runtime::total_steal_attempts() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->steal_attempts();
  for (const auto& w : producer_storage_) n += w->steal_attempts();
  return n;
}

std::uint64_t Runtime::total_failed_steal_rounds() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->failed_steal_rounds();
  return n;
}

std::uint64_t Runtime::total_steal_batches() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->steal_batches();
  return n;
}

Runtime::TaskPoolStats Runtime::task_pool_stats() const {
  TaskPoolStats s;
  auto add = [&](const Worker& w) {
    const TaskPool& p = w.task_pool();
    s.freelist_hits += p.freelist_hits();
    s.freelist_misses += p.freelist_misses();
    s.remote_frees += p.remote_frees();
    s.slabs += p.slab_count();
  };
  for (const auto& w : workers_) add(*w);
  int producers = producer_count_.load(std::memory_order_acquire);
  for (int i = 0; i < producers; ++i) add(*producer_storage_[std::size_t(i)]);
  return s;
}

std::vector<Runtime::WorkerCounters> Runtime::worker_counters() const {
  std::vector<WorkerCounters> out;
  auto snap = [&](const Worker& w) {
    WorkerCounters c;
    c.id = w.id();
    c.computation = w.is_computation();
    c.tasks_executed = w.tasks_executed();
    c.steals = w.steals();
    c.steal_attempts = w.steal_attempts();
    c.failed_steal_rounds = w.failed_steal_rounds();
    out.push_back(c);
  };
  for (const auto& w : workers_) snap(*w);
  int producers = producer_count_.load(std::memory_order_acquire);
  for (int i = 0; i < producers; ++i) snap(*producer_storage_[std::size_t(i)]);
  return out;
}

void Runtime::export_metrics(support::MetricsRegistry& reg) const {
  reg.counter("hc.tasks_executed").add(total_tasks_executed());
  reg.counter("hc.steals").add(total_steals());
  reg.counter("hc.steal_batches").add(total_steal_batches());
  reg.counter("hc.steal_attempts").add(total_steal_attempts());
  reg.counter("hc.failed_steal_rounds").add(total_failed_steal_rounds());
  TaskPoolStats ps = task_pool_stats();
  reg.counter("hc.task_pool.freelist_hits").add(ps.freelist_hits);
  reg.counter("hc.task_pool.freelist_misses").add(ps.freelist_misses);
  reg.counter("hc.task_pool.remote_frees").add(ps.remote_frees);
  reg.counter("hc.task_pool.slabs").add(ps.slabs);
  // Load-balance shape: one sample per computation worker, so p50/p95 of
  // tasks-per-worker expose skew without a name per worker id.
  auto& h = reg.histogram("hc.tasks_per_worker");
  for (const auto& w : workers_) h.add(double(w->tasks_executed()));
}

void Runtime::flush_trace_tracks() const {
  auto& collector = support::trace::Collector::global();
  auto flush = [&](const Worker& w) {
    support::trace::Track t;
    t.pid = trace_pid_;
    t.tid = w.id();
    t.name = w.trace_name();
    t.events = w.trace_ring().snapshot();
    t.dropped = w.trace_ring().dropped();
    if (!t.events.empty()) collector.add_track(std::move(t));
  };
  for (const auto& w : workers_) flush(*w);
  int producers = producer_count_.load(std::memory_order_acquire);
  for (int i = 0; i < producers; ++i) flush(*producer_storage_[std::size_t(i)]);
}

}  // namespace hc
