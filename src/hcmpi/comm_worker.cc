// The dedicated communication worker (paper Fig. 10): drains the lock-free
// worklist, issues smpi operations, polls ACTIVE requests with test (the
// paper's MPI_Test loop), steps the head collective's script, and runs the
// DDDF poller — all on one thread, so the substrate operates at
// MPI_THREAD_SINGLE no matter how many computation workers are active. It
// never blocks on a request: a collective waiting on a slow peer is one
// non-blocking step per loop turn. After a spin window with no progress it
// parks on the rank endpoint's doorbell until an event or a timer is due,
// so an idle rank costs no CPU.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <vector>

#include "fault/fault.h"
#include "hcmpi/context.h"
#include "prof/prof.h"

namespace hcmpi {

void Context::comm_worker_main() {
  hc::Worker* self = runtime_->register_producer();
  self->set_trace_name("comm-worker");
  prof::rename_thread("comm-worker");
  // hc-check: flags this thread so blocking HCMPI calls issued from comm
  // tasks (kExec closures, pollers) are rejected as guaranteed deadlocks.
  hc::check::enter_comm_worker();

  std::vector<CommTask*> active;        // ACTIVE irecvs being polled
  std::deque<CommTask*> coll_queue;     // FIFO of collectives
  bool shutting_down = false;
  std::uint64_t stall_since_ns = 0;     // hc-fault watchdog arm time

  auto complete_p2p = [&](CommTask* t) {
    Status st;
    comm_.test(t->sreq, &st);
    comm_counters_.p2p_completions.fetch_add(1, std::memory_order_relaxed);
    complete_task(t, st);
  };

  // Deadline expiry (RequestImpl::set_timeout): unhook the posted receive
  // and complete the request with kTimeout so waiters never hang. The
  // raise policy additionally throws RequestTimeout into the enclosing
  // finish, turning the lost message into a structured failure.
  auto expire_p2p = [&](CommTask* t) {
    if (!comm_.cancel(t->sreq)) {
      complete_p2p(t);  // completed just under the deadline — not a timeout
      return;
    }
    support::MetricsRegistry::global().counter("request.timeout.count").add();
    prof::Probe(&self->trace_ring())
        .instant(support::trace::Ev::kRequestTimeout, t->slot_id,
                 t->gen.load(std::memory_order_relaxed));
    if (t->request.raise_on_timeout.load(std::memory_order_relaxed) &&
        t->finish != nullptr) {
      t->finish->capture_exception(std::make_exception_ptr(
          RequestTimeout(t->kind, t->peer, t->tag)));
    }
    Status st;
    st.source = t->peer;
    st.tag = t->tag;
    st.error = smpi::ErrorCode::kTimeout;
    complete_task(t, st);
  };

  // Stall diagnostics: outstanding comm tasks with their states, the tail of
  // every worker's trace ring, and whatever subsystems registered with the
  // fault diagnostics registry (the DDDF space's table).
  auto watchdog_fire = [&](std::uint64_t stall_ns) {
    support::MetricsRegistry::global().counter("watchdog.fired").add();
    prof::Probe(&self->trace_ring())
        .instant(support::trace::Ev::kWatchdogFired,
                 std::uint32_t(active.size() + coll_queue.size()), stall_ns);
    std::FILE* f = stderr;
    std::fprintf(f,
                 "\n== hcmpi watchdog: rank %d saw no comm-task lifecycle "
                 "transition for %.1f ms with work outstanding ==\n",
                 rank(), double(stall_ns) / 1e6);
    auto dump_task = [&](const CommTask* t) {
      std::fprintf(f,
                   "    slot=%u gen=%llu %s peer=%d tag=%d bytes=%zu "
                   "state=%d\n",
                   t->slot_id,
                   (unsigned long long)t->gen.load(std::memory_order_relaxed),
                   kind_name(t->kind), t->peer, t->tag, t->bytes,
                   int(t->state.load(std::memory_order_relaxed)));
    };
    std::fprintf(f, "  ACTIVE p2p tasks (%zu):\n", active.size());
    for (const CommTask* t : active) dump_task(t);
    std::fprintf(f, "  queued collectives (%zu):\n", coll_queue.size());
    for (const CommTask* t : coll_queue) dump_task(t);
    for (int i = 0; i < runtime_->total_slots(); ++i) {
      hc::Worker* w = runtime_->slot(i);
      if (w == nullptr) continue;
      auto evs = w->trace_ring().snapshot();
      std::size_t tail = evs.size() < 6 ? evs.size() : 6;
      std::fprintf(f, "  worker slot %d ring tail (%zu of %zu events):\n", i,
                   tail, evs.size());
      for (std::size_t k = evs.size() - tail; k < evs.size(); ++k) {
        std::fprintf(f, "    t=%lluns %s a=%u b=%llu\n",
                     (unsigned long long)evs[k].ts_ns,
                     support::trace::ev_name(evs[k].kind), evs[k].a,
                     (unsigned long long)evs[k].b);
      }
    }
    fault::dump_diagnostics(f);
    std::fprintf(f, "== end hcmpi watchdog dump ==\n");
  };

  // The PRESCRIBED -> ACTIVE transition of Fig. 10: stamped and
  // ring-recorded on the communication worker, which drives it.
  auto mark_active = [&](CommTask* t) {
    prof::Probe p;  // this thread's ring is self's
    t->ts_active = p.stamp(support::trace::Ev::kCommActive, t->slot_id,
                           t->gen.load(std::memory_order_relaxed));
    transition(*t, CommTaskState::kActive);
  };

  // Profiler state register: the progress loop is "comm progress", its park
  // "idle". Re-armed lazily so profiling enabled after thread start still
  // attributes this thread (one relaxed load per iteration until then).
  bool prof_bound = false;

  // When a parked worker must wake without a ring: the nearest request
  // deadline, or the watchdog's next tick while a stall is being timed.
  auto next_timer = [&] {
    std::uint64_t at = 0;
    auto sooner = [&at](std::uint64_t t) {
      if (t != 0 && (at == 0 || t < at)) at = t;
    };
    for (const CommTask* t : active) {
      sooner(t->request.deadline_ns.load(std::memory_order_acquire));
    }
    const std::uint64_t wd = fault::watchdog_ns();
    if (wd != 0 && stall_since_ns != 0) sooner(stall_since_ns + wd);
    return at;
  };

  support::EventCount& doorbell = endpoint_.doorbell();
  support::SpinWindow window;
  support::EventCount::Key key = 0;  // while parking_
  for (;;) {
    if (!prof_bound && prof::enabled()) {
      prof::enter_state(prof::State::kCommProgress);
      prof_bound = true;
    }
    bool progress = false;
    comm_counters_.loop_iterations.fetch_add(1, std::memory_order_relaxed);

    // 1. Drain the worklist.
    while (CommTask* t = worklist_.pop()) {
      progress = true;
      // hc-check submit -> receive edge: from here on, everything this
      // worker does (including the completion put) is ordered after the
      // submitter's history.
      hc::check::on_comm_receive(t);
      switch (t->kind) {
        case CommKind::kShutdown:
          shutting_down = true;
          release_task(t);
          break;
        case CommKind::kIsend: {
          mark_active(t);
          t->sreq = comm_.isend(t->send_buf, t->bytes, t->peer, t->tag);
          complete_p2p(t);  // eager substrate: sends complete immediately
          break;
        }
        case CommKind::kIrecv: {
          mark_active(t);
          t->sreq = comm_.irecv(t->recv_buf, t->bytes, t->peer, t->tag);
          if (t->sreq->done()) {
            complete_p2p(t);
          } else {
            active.push_back(t);
          }
          break;
        }
        case CommKind::kCancel: {
          CommTask* target = t->target;
          // The canceller's handle pins the slot, so it cannot have been
          // recycled; a target that already completed is left alone.
          if (target != nullptr &&
              target->state.load(std::memory_order_acquire) ==
                  CommTaskState::kActive) {
            if (target->kind == CommKind::kIrecv) {
              if (comm_.cancel(target->sreq)) {
                std::erase(active, target);
                Status st;
                st.cancelled = true;
                st.error = smpi::ErrorCode::kCancelled;
                complete_task(target, st);
              }
            } else if (target->kind == CommKind::kCollective) {
              // A queued collective (a deadlined finalize barrier) must be
              // removable, or the shutdown drain below waits on its stuck
              // script forever.
              auto it =
                  std::find(coll_queue.begin(), coll_queue.end(), target);
              if (it != coll_queue.end()) {
                comm_.cancel(target->script->pending());
                coll_queue.erase(it);
                Status st;
                st.cancelled = true;
                st.error = smpi::ErrorCode::kCancelled;
                complete_task(target, st);
              }
            }
          }
          release_task(t);
          break;
        }
        case CommKind::kExec: {
          mark_active(t);
          t->exec(sys_comm_);
          Status st;
          complete_task(t, st);
          break;
        }
        case CommKind::kCollective:
          mark_active(t);
          coll_queue.push_back(t);
          break;
      }
    }

    // 2. Poll ACTIVE point-to-point requests (the paper's MPI_Test loop),
    // expiring any whose deadline has passed.
    for (std::size_t i = 0; i < active.size();) {
      comm_counters_.p2p_polls.fetch_add(1, std::memory_order_relaxed);
      CommTask* t2 = active[i];
      if (t2->sreq->done()) {
        active[i] = active.back();
        active.pop_back();
        complete_p2p(t2);
        progress = true;
        continue;
      }
      std::uint64_t dl =
          t2->request.deadline_ns.load(std::memory_order_acquire);
      if (dl != 0 && support::trace::now_ns() >= dl) {
        active[i] = active.back();
        active.pop_back();
        expire_p2p(t2);
        progress = true;
        continue;
      }
      ++i;
    }

    // 3. Step the head collective (FIFO per rank).
    if (!coll_queue.empty()) {
      CommTask* head = coll_queue.front();
      comm_counters_.coll_script_steps.fetch_add(1, std::memory_order_relaxed);
      if (head->script->step()) {
        coll_queue.pop_front();
        comm_counters_.collectives.fetch_add(1, std::memory_order_relaxed);
        complete_task(head, Status{});
        progress = true;
      }
    }

    // 4. DDDF / user poller.
    if (poller_set_.load(std::memory_order_acquire) && poller_(sys_comm_)) {
      progress = true;
    }

    // 5. Stall watchdog (hc-fault): tasks outstanding but nothing moved for
    // the configured window — dump diagnostics and rearm. One relaxed load
    // when the watchdog is off.
    std::uint64_t wd = fault::watchdog_ns();
    if (wd != 0) {
      if (progress || (active.empty() && coll_queue.empty())) {
        stall_since_ns = 0;
      } else {
        std::uint64_t now = support::trace::now_ns();
        if (stall_since_ns == 0) {
          stall_since_ns = now;
        } else if (now - stall_since_ns >= wd) {
          watchdog_fire(now - stall_since_ns);
          stall_since_ns = now;  // rearm for the next window
        }
      }
    }

    if (shutting_down && active.empty() && coll_queue.empty() &&
        worklist_.empty_approx()) {
      if (parking_) doorbell.cancel();
      break;
    }
    // Idle: poll for one spin window, then park on the rank endpoint's
    // doorbell. The turn after prepare_wait() is the last look, so an event
    // it misses rings the park: a delivery or cancel on the endpoint, a
    // submit (seen here once its head swap is, before pop() can take it),
    // wake_comm_worker (the DDDF outbox) or set_timeout.
    if (parking_) {
      parking_ = false;
      if (progress || !worklist_.empty_approx()) {
        doorbell.cancel();
      } else {
        hc::park_idle(doorbell, key, next_timer());
      }
      continue;
    }
    if (progress) {
      window.reset();
      continue;
    }
    if (!window.idle()) continue;
    key = endpoint_.prepare_wait();
    parking_ = true;
  }

  // Teardown: cancel anything still pending so no slot leaks in ACTIVE
  // state (cancelled status is observable on the requests).
  for (CommTask* t : active) {
    if (comm_.cancel(t->sreq)) {
      Status st;
      st.cancelled = true;
      st.error = smpi::ErrorCode::kCancelled;
      complete_task(t, st);
    } else {
      complete_p2p(t);
    }
  }
  prof::unregister_thread();
}

}  // namespace hcmpi
