#include "hcmpi/context.h"

#include "prof/prof.h"

namespace hcmpi {

// Lifecycle edges (paper Fig. 10) are probes on the calling thread's ring:
// the worker slot this thread is bound to (a computation worker, or the
// communication worker's producer slot). Events from unbound threads keep
// their stamps but are not ring-recorded.
using support::trace::Ev;

void RequestImpl::unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (slot_ == nullptr) {
    delete this;
  } else {
    slot_->pool->give_back(slot_);
  }
}

void RequestImpl::put(Status st) {
  hc::Ddf<Status>::put(std::move(st));
  if (!ec_.notify()) return;  // else a helper may be parked on rt_
  if (hc::Runtime* rt = rt_.load(std::memory_order_relaxed)) {
    rt->notify_work();
  }
}

void RequestImpl::set_timeout(std::uint64_t timeout_us, bool raise) {
  raise_on_timeout.store(raise, std::memory_order_relaxed);
  deadline_ns.store(support::trace::now_ns() + timeout_us * 1000,
                    std::memory_order_release);
  // In flight, so the doorbell is alive; a fence orders the plain store.
  if (slot_ != nullptr && !satisfied()) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    slot_->doorbell->notify();
  }
}

void RequestImpl::recycle() {
  clear_for_reuse();
  deadline_ns.store(0, std::memory_order_relaxed);
  raise_on_timeout.store(false, std::memory_order_relaxed);
}

CommTask* SlotPool::take(bool* recycled) {
  {
    std::lock_guard<support::SpinLock> lk(mu_);
    if (CommTask* t = free_) {
      free_ = t->next_free;
      *recycled = true;
      return t;
    }
  }
  *recycled = false;
  auto* t = new CommTask;
  t->pool = this;
  holders_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<support::SpinLock> lk(mu_);
  t->slot_id = created_++;
  return t;
}

void SlotPool::give_back(CommTask* t) {
  t->request.recycle();
  {
    std::lock_guard<support::SpinLock> lk(mu_);
    if (!closed_) {
      t->next_free = free_;
      free_ = t;
      return;
    }
  }
  delete t;  // released after its Context closed the pool
  drop();
}

void SlotPool::close() {
  CommTask* idle;
  {
    std::lock_guard<support::SpinLock> lk(mu_);
    closed_ = true;
    idle = std::exchange(free_, nullptr);
  }
  while (idle != nullptr) {
    CommTask* next = idle->next_free;
    delete idle;
    drop();
    idle = next;
  }
  drop();
}

void SlotPool::drop() {
  if (holders_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

Context::Context(smpi::Comm comm, const ContextConfig& cfg)
    : comm_(comm),
      sys_comm_(comm.dup()),
      endpoint_(comm_.local_endpoint()),
      lifecycle_latency_hist_(support::MetricsRegistry::global().histogram(
          "hcmpi.comm_task_latency_ns")),
      inject_to_wire_hist_(support::MetricsRegistry::global().histogram(
          "hcmpi.inject_to_wire_ns")),
      wire_to_completion_hist_(support::MetricsRegistry::global().histogram(
          "hcmpi.wire_to_completion_ns")) {
  hc::RuntimeConfig rc;
  rc.num_workers = cfg.num_workers;
  runtime_ = std::make_unique<hc::Runtime>(rc);
  runtime_->set_trace_pid(comm_.rank());  // one Chrome-trace pid per rank
  comm_thread_ = std::jthread([this] { comm_worker_main(); });
  // Telemetry cadence gauge: communication tasks outstanding (submitted but
  // not yet retired) — derived from two counters, so the comm worker's hot
  // path pays nothing for it.
  prof_sampler_id_ = prof::add_sampler([this] {
    double depth = double(outstanding_tasks());
    auto& reg = support::MetricsRegistry::global();
    reg.gauge("hcmpi.comm_queue_depth").set(depth);
    reg.histogram("hcmpi.comm_queue_depth").add(depth);
  });
}

Context::~Context() {
  prof::remove_sampler(prof_sampler_id_);
  CommTask* t = allocate_task();
  t->kind = CommKind::kShutdown;
  submit(t);
  if (comm_thread_.joinable()) comm_thread_.join();
  runtime_.reset();
  export_metrics(support::MetricsRegistry::global());
  pool_.reset();  // slots still held by RequestHandles free themselves
}

void Context::export_metrics(support::MetricsRegistry& reg) const {
  reg.counter("hcmpi.comm_tasks_submitted")
      .add(comm_counters_.tasks_submitted.load(std::memory_order_relaxed));
  reg.counter("hcmpi.comm_tasks_recycled").add(tasks_recycled());
  reg.counter("hcmpi.poll_loop_iterations")
      .add(comm_counters_.loop_iterations.load(std::memory_order_relaxed));
  reg.counter("hcmpi.p2p_polls")
      .add(comm_counters_.p2p_polls.load(std::memory_order_relaxed));
  reg.counter("hcmpi.p2p_completions")
      .add(comm_counters_.p2p_completions.load(std::memory_order_relaxed));
  reg.counter("hcmpi.coll_script_steps")
      .add(comm_counters_.coll_script_steps.load(std::memory_order_relaxed));
  reg.counter("hcmpi.collectives_executed")
      .add(comm_counters_.collectives.load(std::memory_order_relaxed));
}

std::uint64_t Context::outstanding_tasks() const {
  const std::uint64_t retired = retired_.load(std::memory_order_relaxed);
  const std::uint64_t submitted =
      comm_counters_.tasks_submitted.load(std::memory_order_relaxed);
  return submitted > retired ? submitted - retired : 0;
}

CommTask* Context::allocate_task() {
  bool recycled = false;
  CommTask* t = pool_->take(&recycled);
  if (recycled) {
    transition(*t, CommTaskState::kAllocated, std::memory_order_relaxed);
    recycled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    t->doorbell = &endpoint_.doorbell();
    t->request.rt_.store(runtime_.get(), std::memory_order_relaxed);
  }
  t->request.ref();  // the communication worker's, dropped by release_task
  prof::Probe p;
  p.instant(Ev::kCommAllocated, t->slot_id,
            t->gen.load(std::memory_order_relaxed));
  return t;
}

void Context::release_task(CommTask* t) {
  // Scrub everything a recycled slot must not leak, the point-to-point
  // fields included: a collective or exec task never sets them, and the
  // watchdog dump prints them for every queued task.
  t->send_buf = nullptr;
  t->recv_buf = nullptr;
  t->bytes = 0;
  t->peer = smpi::kAnySource;
  t->tag = smpi::kAnyTag;
  t->sreq.reset();
  t->finish = nullptr;
  t->exec = nullptr;
  t->script.reset();
  t->target = nullptr;
  // Emitted under the pre-bump generation so the AVAILABLE transition closes
  // the same incarnation's lifecycle span.
  prof::Probe p;
  p.instant(Ev::kCommAvailable, t->slot_id,
            t->gen.load(std::memory_order_relaxed));
  t->gen.fetch_add(1, std::memory_order_acq_rel);
  transition(*t, CommTaskState::kAvailable);
  retired_.store(retired_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  // The slot returns to the pool now, or when its last handle drops.
  t->request.unref();
}

void Context::submit(CommTask* t) {
  comm_counters_.tasks_submitted.fetch_add(1, std::memory_order_relaxed);
  prof::Probe p;
  t->ts_prescribed = p.stamp(Ev::kCommPrescribed, t->slot_id,
                             t->gen.load(std::memory_order_relaxed));
  transition(*t, CommTaskState::kPrescribed);
  // hc-check submit edge: the submitter's history travels with the task to
  // the communication worker (and from there into the request's put).
  hc::check::on_comm_submit(t);
  worklist_.push(t);  // a seq_cst swap of the worklist head: no fence needed
  endpoint_.doorbell().notify();
}

RequestHandle Context::post_exec_async(std::function<void(smpi::Comm&)> fn) {
  CommTask* t = allocate_task();
  t->kind = CommKind::kExec;
  t->exec = std::move(fn);
  RequestHandle req(&t->request);
  hc::FinishScope* fs = hc::Runtime::current_finish();
  if (fs != nullptr) fs->inc();
  t->finish = fs;
  submit(t);
  return req;
}

void Context::set_poller(std::function<bool(smpi::Comm&)> poller) {
  poller_ = std::move(poller);
  poller_set_.store(true, std::memory_order_release);
}

void Context::clear_poller() {
  // The clearing store runs on the communication worker itself: the worker
  // is executing this task, so no poll() call is concurrent with it, and
  // every later loop iteration observes the cleared flag.
  RequestHandle r = post_exec_async([this](smpi::Comm&) {
    poller_set_.store(false, std::memory_order_release);
  });
  block_until(r);
}

void Context::complete_task(CommTask* t, const Status& st) {
  prof::Probe p;
  const std::uint64_t now = p.stamp(Ev::kCommCompleted, t->slot_id,
                                    t->gen.load(std::memory_order_relaxed));
  if (p.telemetry()) [[unlikely]] {
    p.sample(lifecycle_latency_hist_, t->ts_prescribed, now);
    // Split at the PRESCRIBED -> ACTIVE transition: injection-to-wire is
    // the worklist hand-off to the communication worker; wire-to-completion
    // is the time the operation itself was in flight.
    if (t->ts_prescribed != 0 && t->ts_active >= t->ts_prescribed) {
      p.sample(inject_to_wire_hist_, t->ts_prescribed, t->ts_active);
      p.sample(wire_to_completion_hist_, t->ts_active, now);
    }
  }
  transition(*t, CommTaskState::kCompleted);
  hc::FinishScope* fs = t->finish;
  // Putting the status releases DDTs awaiting this request and wakes
  // help-waiters; the worker's reference keeps the slot until release.
  t->request.put(st);
  release_task(t);
  if (fs != nullptr) {
    // hc-check: the communication's history joins the enclosing finish
    // before the waiter can observe the scope drained.
    hc::check::on_scope_release(fs);
    fs->dec();
  }
}

void Context::block_until(const RequestHandle& r) {
  hc::wait_until("wait on a request", [&] { return r->satisfied(); }, r->ec_);
}

bool Context::block_until_deadline(const RequestHandle& r,
                                   std::uint64_t timeout_ms) {
  return hc::wait_until(
      "wait on a request", [&] { return r->satisfied(); }, r->ec_, nullptr,
      support::trace::now_ns() + timeout_ms * 1000000ull);
}

hc::Runtime* Context::helper_for(RequestImpl& r) {
  hc::Runtime* bound = r.rt_.load(std::memory_order_relaxed);
  if (bound == nullptr &&
      r.rt_.compare_exchange_strong(bound, runtime_.get(),
                                    std::memory_order_relaxed)) {
    bound = runtime_.get();
  }
  return bound == runtime_.get() ? bound : nullptr;
}

// ---------------------------------------------------------------------------
// Point-to-point API
// ---------------------------------------------------------------------------

RequestHandle Context::make_p2p(CommKind kind, const void* sbuf, void* rbuf,
                                std::size_t bytes, int peer, int tag) {
  CommTask* t = allocate_task();
  t->kind = kind;
  t->send_buf = sbuf;
  t->recv_buf = rbuf;
  t->bytes = bytes;
  t->peer = peer;
  t->tag = tag;
  // Communication tasks join the enclosing finish scope (paper Fig. 3: a
  // finish around HCMPI_Irecv implements HCMPI_Recv).
  hc::FinishScope* fs = hc::Runtime::current_finish();
  if (fs != nullptr) fs->inc();
  t->finish = fs;
  // Taken before submit: the worker may complete and release the task first.
  RequestHandle req(&t->request);
  submit(t);
  return req;
}

RequestHandle Context::isend(const void* buf, std::size_t bytes, int dest,
                             int tag) {
  return make_p2p(CommKind::kIsend, buf, nullptr, bytes, dest, tag);
}

RequestHandle Context::irecv(void* buf, std::size_t cap, int source,
                             int tag) {
  return make_p2p(CommKind::kIrecv, nullptr, buf, cap, source, tag);
}

void Context::send(const void* buf, std::size_t bytes, int dest, int tag) {
  wait(isend(buf, bytes, dest, tag));
}

void Context::recv(void* buf, std::size_t cap, int source, int tag,
                   Status* st) {
  wait(irecv(buf, cap, source, tag), st);
}

bool Context::test(const RequestHandle& r, Status* st) {
  if (!r || !r->satisfied()) return false;
  if (st != nullptr) *st = r->get();
  return true;
}

bool Context::testall(const std::vector<RequestHandle>& rs) {
  for (const auto& r : rs) {
    if (r && !r->satisfied()) return false;
  }
  return true;
}

int Context::testany(const std::vector<RequestHandle>& rs, Status* st) {
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i] && rs[i]->satisfied()) {
      if (st != nullptr) *st = rs[i]->get();
      return int(i);
    }
  }
  return -1;
}

void Context::wait(const RequestHandle& r, Status* st) {
  // Paper §III: HCMPI_Wait is `finish { async await(req) {} }` — i.e. the
  // computation worker stays productive while the communication completes.
  hc::wait_until("wait on a request", [&] { return r->satisfied(); }, r->ec_,
                 helper_for(*r));
  if (st != nullptr) *st = r->get();
}

void Context::waitall(const std::vector<RequestHandle>& rs) {
  // An AND await list (paper §III).
  for (const auto& r : rs) {
    if (r) wait(r);
  }
}

int Context::waitany(const std::vector<RequestHandle>& rs, Status* st) {
  // An OR await list (paper §III, Fig. 12), parked on the doorbell: each
  // request's put forwards there, as it has a registered waiter.
  std::vector<RequestImpl*> live;
  for (const auto& r : rs) {
    if (r) live.push_back(r.get());
  }
  if (live.empty()) return -1;  // MPI_UNDEFINED: no active request
  int i = testany(rs, st);
  if (i >= 0) return i;
  for (RequestImpl* r : live) {
    helper_for(*r);
    r->ec_.prepare();
  }
  hc::wait_until("waitany", [&] { return (i = testany(rs, st)) >= 0; },
                 runtime_->doorbell(), runtime_.get());
  for (RequestImpl* r : live) r->ec_.cancel();
  return i;
}

bool Context::cancel(const RequestHandle& r) {
  if (!r || r->satisfied()) return false;
  // The handle pins the request's slot, so the slot is the operation's own
  // until the handle drops; a bare request has none.
  CommTask* target = r->slot_;
  if (target == nullptr) return false;
  if (target->kind != CommKind::kIrecv &&
      target->kind != CommKind::kCollective) {
    return false;  // only a posted receive or a queued collective can go
  }
  CommTask* t = allocate_task();
  t->kind = CommKind::kCancel;
  t->target = target;
  t->finish = nullptr;
  submit(t);
  // Cancellation is itself asynchronous; the caller observes the outcome on
  // the request (status.cancelled). Wait for a verdict either way.
  wait(r);
  return r->get().cancelled;
}

}  // namespace hcmpi
