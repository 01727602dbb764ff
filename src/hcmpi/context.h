// HCMPI Context: one per rank. Owns the rank's Habanero-C runtime
// (computation workers) and the dedicated communication worker thread
// (paper Fig. 10), and exposes the HCMPI API of Table I:
//
//   point-to-point  isend/irecv/send/recv, test/testall/testany,
//                   wait/waitall/waitany, cancel, get_count
//   collectives     barrier/bcast/reduce/allreduce/scan/gather/scatter
//   unified sync    phaser_create (hcmpi-phaser), accum_create (hcmpi-accum)
//
// All MPI activity is funneled through the communication worker, so the
// substrate runs at MPI_THREAD_SINGLE semantics no matter how many
// computation workers exist — the design point the paper's micro-benchmarks
// evaluate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/runtime.h"
#include "hcmpi/comm_task.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/mpsc_queue.h"
#include "support/spin.h"
#include "support/trace.h"

namespace hcmpi {

using Datatype = smpi::Datatype;
using Op = smpi::Op;

// A Context's CommTask slots: the AVAILABLE pool of paper Fig. 11. A slot
// returns here when its request's last reference drops (see RequestImpl),
// so a recycled slot is never reachable through an old handle. The pool is
// shared with its slots: after Context::~Context closes it, a slot still
// held by a RequestHandle frees itself on its last release, and the last
// slot takes the pool with it.
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  // A recycled slot (AVAILABLE, *recycled = true) or a new one (ALLOCATED).
  CommTask* take(bool* recycled);
  // The slot's last reference dropped.
  void give_back(CommTask* t);
  // Owner teardown: frees the idle slots and drops the owner's hold.
  void close();

  // unique_ptr deleter for the owner's hold.
  struct Closer {
    void operator()(SlotPool* p) const { p->close(); }
  };

 private:
  ~SlotPool() = default;
  void drop();  // one holder fewer; the last deletes the pool

  support::SpinLock mu_;
  CommTask* free_ = nullptr;
  std::uint32_t created_ = 0;
  bool closed_ = false;
  std::atomic<std::uint64_t> holders_{1};  // the owner plus every live slot
};

struct ContextConfig {
  int num_workers = 2;  // computation workers (the paper's -nproc)
};

class Context {
 public:
  // Collective: every rank must construct its Context together (the system
  // communicator is carved out with a comm dup).
  Context(smpi::Comm comm, const ContextConfig& cfg);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  int rank() const { return comm_.rank(); }
  int size() const { return comm_.size(); }
  hc::Runtime& runtime() { return *runtime_; }

  // The user-traffic communicator. Exposed for communication-worker pollers
  // that service application-level protocols (e.g. UTS steal listeners);
  // smpi is thread-safe, but ordering rules are the caller's problem.
  smpi::Comm& user_comm() { return comm_; }

  // Runs main_fn as the root task; returns when it and all transitively
  // spawned tasks (including pending communication tasks in its scope) have
  // completed.
  void run(std::function<void()> main_fn) { runtime_->launch(std::move(main_fn)); }

  // --- point-to-point (HCMPI_Isend / HCMPI_Irecv / ...) ---
  RequestHandle isend(const void* buf, std::size_t bytes, int dest, int tag);
  RequestHandle irecv(void* buf, std::size_t cap, int source, int tag);
  void send(const void* buf, std::size_t bytes, int dest, int tag);
  void recv(void* buf, std::size_t cap, int source, int tag,
            Status* st = nullptr);

  bool test(const RequestHandle& r, Status* st = nullptr);
  bool testall(const std::vector<RequestHandle>& rs);
  int testany(const std::vector<RequestHandle>& rs, Status* st = nullptr);
  void wait(const RequestHandle& r, Status* st = nullptr);
  void waitall(const std::vector<RequestHandle>& rs);
  // -1 (MPI_UNDEFINED) when no handle is non-null. Every request must be
  // this Context's, or a bare one no other Context waits on.
  int waitany(const std::vector<RequestHandle>& rs, Status* st = nullptr);
  bool cancel(const RequestHandle& r);

  static int get_count(const Status& st, Datatype t) { return st.get_count(t); }

  // HCMPI_REQUEST_CREATE: a bare request handle; since a request *is* a DDF,
  // user code can DDF_PUT it to splice arbitrary events into await lists.
  // Waiting computation workers help in the creating task's runtime, else
  // in the first Context that waits on it.
  static RequestHandle request_create() {
    auto* r = new RequestImpl;
    r->rt_.store(hc::Runtime::current_runtime(), std::memory_order_relaxed);
    return RequestHandle(r);
  }

  // --- collectives (blocking; HCMPI_Barrier / ...) ---
  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  void reduce(const void* in, void* out, std::size_t count, Datatype t, Op op,
              int root);
  void allreduce(const void* in, void* out, std::size_t count, Datatype t,
                 Op op);
  void scan(const void* in, void* out, std::size_t count, Datatype t, Op op);
  void gather(const void* send, std::size_t bytes_per_rank, void* recv,
              int root);
  void scatter(const void* send, std::size_t bytes_per_rank, void* recv,
               int root);

  // --- communication-worker plumbing (used by the phaser bridge & DDDF) ---

  // Allocates (or recycles) a communication task in ALLOCATED state.
  CommTask* allocate_task();
  // Marks PRESCRIBED and enqueues on the communication worker's worklist.
  void submit(CommTask* t);
  // Runs fn on the communication worker thread with the system
  // communicator, as a first-class communication task: joins the enclosing
  // finish scope and completes the returned request when fn returns (the
  // DDDF space drains its outbox this way at teardown).
  RequestHandle post_exec_async(std::function<void(smpi::Comm&)> fn);
  // Registers a progress poller called every communication-worker iteration
  // (DDDF listener). Must be installed before traffic starts.
  void set_poller(std::function<bool(smpi::Comm&)> poller);
  // Detaches the poller with a handshake on the communication worker: once
  // this returns, no poller call is in flight and none will start, so the
  // owner (the DDDF space) can safely destroy the state it polls into.
  void clear_poller();
  // Rings a parked communication worker, for poller work that comes neither
  // as a message nor as a submit (the DDDF outbox). Call it under the lock
  // guarding that work, and have the poller take that lock while
  // comm_worker_parking(): the worker's last look before it parks.
  void wake_comm_worker() { endpoint_.doorbell().notify(); }
  bool comm_worker_parking() const { return parking_; }
  // Enqueues a non-blocking barrier/allreduce on the system communicator;
  // the returned request is put when it completes. It joins no finish
  // scope: wait with block_until, or cancel it.
  RequestHandle submit_nb_barrier();
  RequestHandle submit_nb_allreduce(const void* in, void* out,
                                    std::size_t count, Datatype t, Op op);

  // Blocks without helping until the request completes (hc::wait_until):
  // safe at phaser boundaries, where help-execution could self-deadlock.
  static void block_until(const RequestHandle& r);
  // Same, but gives up after timeout_ms; false on timeout (the request is
  // still in flight — cancel it before dropping the handle).
  static bool block_until_deadline(const RequestHandle& r,
                                   std::uint64_t timeout_ms);

  // Communication tasks submitted and not yet retired (AVAILABLE) — the
  // comm-queue depth the telemetry gauge samples.
  std::uint64_t outstanding_tasks() const;
  std::uint64_t tasks_recycled() const {
    return recycled_.load(std::memory_order_relaxed);
  }

  // Per-phase counters for the communication worker's progress loop
  // (paper Fig. 10's MPI_Test poll loop). Relaxed atomics: bumped by the
  // communication worker, readable from any thread at any time.
  struct CommCounters {
    std::atomic<std::uint64_t> loop_iterations{0};   // progress-loop turns
    std::atomic<std::uint64_t> p2p_polls{0};         // MPI_Test calls
    std::atomic<std::uint64_t> p2p_completions{0};
    std::atomic<std::uint64_t> coll_script_steps{0};  // collective steps
    std::atomic<std::uint64_t> collectives{0};        // collectives finished
    std::atomic<std::uint64_t> tasks_submitted{0};
  };
  const CommCounters& comm_counters() const { return comm_counters_; }

  // Adds this rank's "hcmpi.*" counters and the comm-task lifecycle latency
  // histogram (PRESCRIBED -> COMPLETED, only sampled while tracing is
  // enabled) to `reg`. The destructor exports into the global registry;
  // tests export rank-local registries and merge them.
  void export_metrics(support::MetricsRegistry& reg) const;

 private:
  friend class CommWorker;

  void comm_worker_main();
  // Our runtime if r is (or can be bound to) it, else null: no helping.
  hc::Runtime* helper_for(RequestImpl& r);
  RequestHandle make_p2p(CommKind kind, const void* sbuf, void* rbuf,
                         std::size_t bytes, int peer, int tag);
  // Queues a collective script as a communication task.
  RequestHandle submit_collective(smpi::CollScript script);
  // Same, blocking the caller until it completes.
  void wait_collective(smpi::CollScript script);
  void release_task(CommTask* t);
  void complete_task(CommTask* t, const Status& st);

  smpi::Comm comm_;       // user traffic
  smpi::Comm sys_comm_;   // internal traffic (phaser bridge, DDDF)
  smpi::Endpoint& endpoint_;  // the comm worker parks on its doorbell
  std::unique_ptr<hc::Runtime> runtime_;

  support::MpscQueue<CommTask> worklist_;
  std::atomic<bool> shutdown_{false};

  std::unique_ptr<SlotPool, SlotPool::Closer> pool_{new SlotPool};
  std::atomic<std::uint64_t> recycled_{0};
  // Tasks retired by the communication worker (its only writer).
  std::atomic<std::uint64_t> retired_{0};

  std::function<bool(smpi::Comm&)> poller_;
  std::atomic<bool> poller_set_{false};
  bool parking_ = false;  // communication worker only

  CommCounters comm_counters_;
  // Telemetry: PRESCRIBED -> COMPLETED, split at the ACTIVE edge (registry
  // entries, shared by every Context in the process).
  support::MetricsRegistry::Histogram& lifecycle_latency_hist_;
  support::MetricsRegistry::Histogram& inject_to_wire_hist_;
  support::MetricsRegistry::Histogram& wire_to_completion_hist_;
  std::uint64_t prof_sampler_id_ = 0;  // comm-queue-depth gauge

  std::jthread comm_thread_;
};

}  // namespace hcmpi
