// Low-overhead runtime tracing: per-worker fixed-capacity event rings and a
// Chrome trace-event JSON exporter.
//
// Design constraints (the paper's evaluation is about *where time goes*, so
// the instrumentation must not move the numbers it measures):
//
//   * One ring per worker thread, single producer, zero allocation on the
//     hot path: a record is three relaxed atomic stores plus one release
//     store of the head index.
//   * Fixed capacity, drop-oldest: the producer never blocks and never
//     fails; a full ring silently overwrites its oldest slot and bumps a
//     dropped counter so the exporter can report truncation.
//   * Runtime gate: every record first checks a process-wide relaxed atomic
//     flag; with tracing disabled the cost is one predictable branch.
//   * Snapshots may run concurrently with the producer. The reader validates
//     each copied slot against the head index afterwards and discards slots
//     the producer may have been overwriting (bounded staleness instead of
//     locks on the hot path).
//
// The exporter aggregates per-worker rings into one Chrome trace-event JSON
// file (one pid per rank, one tid per worker plus the communication worker)
// that opens directly in Perfetto / chrome://tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace support::trace {

enum class Ev : std::uint8_t {
  kNone = 0,

  // Computation-worker scheduler events (core/worker.cc, core/runtime.cc).
  kTaskSpawn,     // instant; a task was pushed onto this worker's deque
  kTaskStart,     // span begin (nests across help-first waiting)
  kTaskEnd,       // span end
  kStealAttempt,  // instant; a = victim slot that passed the depth filter
  kStealSuccess,  // instant; a = victim slot index
  kIdleBegin,     // span begin; no work found anywhere, worker parks
  kIdleEnd,       // span end

  // Communication-task lifecycle (paper Fig. 10/11); a = slot id, b = gen.
  kCommAllocated,
  kCommPrescribed,
  kCommActive,
  kCommCompleted,
  kCommAvailable,

  // DDDF protocol events (dddf/space.cc); b = bytes.
  kDddfGetIssued,  // first local consumer registered intent with the home
  kDddfServed,     // home rank served a registration
  kDddfData,       // payload arrived at a remote rank

  // hc-check diagnostics (src/check/): emitted on the flagging worker's
  // ring so a witness cross-references against the surrounding task spans.
  kCheckRace,       // a = other strand id of the witness, b = address
  kCheckViolation,  // a = violation class (misuse analyzer)

  // hc-fault injection & recovery (src/fault/, smpi wire, AM transport).
  kFaultDrop,       // a = dst rank, b = channel seq of the dropped attempt
  kFaultDelay,      // a = dst rank, b = injected delay in us
  kFaultDup,        // a = dst rank, b = channel seq that was duplicated
  kRetry,           // a = attempt number, b = backoff slept in us
  kRequestTimeout,  // a = comm-task slot, b = generation
  kWatchdogFired,   // a = outstanding ACTIVE tasks, b = stall duration ns

  // hc-net socket fabric (src/net/fabric.cc, recorded on the IO thread).
  kConnUp,           // a = peer proc, b = 1 when this is a reconnect
  kConnDown,         // a = peer proc, b = errno that tore the connection
  kConnRefused,      // a = peer proc (never came up in the connect window)
  kPeerDead,         // a = peer proc, b = observed silence in ns
  kNetBackpressure,  // a = dst proc, b = send-queue depth at rejection
};

// What an Ev means for the exporter.
const char* ev_name(Ev e);

struct Event {
  std::uint64_t ts_ns = 0;
  Ev kind = Ev::kNone;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

// --- process-wide gate and clock -------------------------------------------

// Relaxed-atomic global gate; record() is a no-op while disabled.
bool enabled();
void set_enabled(bool on);

// Monotonic nanoseconds since the process trace epoch (first call).
std::uint64_t now_ns();

// Capacity (in events, rounded up to a power of two) used by rings
// constructed after the call. Default 8192.
void set_default_ring_capacity(std::size_t cap);
std::size_t default_ring_capacity();

// --- the per-worker ring ----------------------------------------------------

class Ring {
 public:
  explicit Ring(std::size_t capacity_pow2 = 0);  // 0 = process default

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  // Producer-side (the owning worker thread only). Gated on enabled().
  void record(Ev kind, std::uint32_t a = 0, std::uint64_t b = 0) {
    if (!enabled()) return;
    emit(kind, now_ns(), a, b);
  }

  // Unconditional append with an explicit timestamp (tests, replay).
  void emit(Ev kind, std::uint64_t ts_ns, std::uint32_t a, std::uint64_t b);

  // Copies the resident events oldest-first. Safe to call concurrently with
  // the producer; slots the producer may have been overwriting mid-copy are
  // dropped rather than returned torn.
  std::vector<Event> snapshot() const;

  // Events overwritten because the ring was full.
  std::uint64_t dropped() const;
  std::uint64_t recorded() const { return head_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> ts{0};
    std::atomic<std::uint64_t> kind_a{0};  // kind << 32 | a
    std::atomic<std::uint64_t> b{0};
  };

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // events published
  // Events the producer has *started* writing (claim_ >= head_). Readers use
  // it to reject exactly the slots a concurrent overwrite may have touched,
  // so a quiescent full ring snapshots all `capacity` resident events.
  std::atomic<std::uint64_t> claim_{0};
};

// --- thread-local ring binding ----------------------------------------------

// The ring bound to the calling thread (nullptr when unbound). The core
// runtime binds each worker's ring as its thread starts; layers that cannot
// link against the runtime (smpi wire, src/fault) record through this.
Ring* thread_ring();
void set_thread_ring(Ring* r);

// --- collection & export ----------------------------------------------------

// A flushed ring plus its timeline identity. pid = rank, tid = worker slot.
struct Track {
  int pid = 0;
  int tid = 0;
  std::string name;  // "worker-3", "comm-worker"
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

// Process-wide sink the runtimes flush their rings into at teardown (after
// worker threads have joined, so flushes read quiescent rings).
class Collector {
 public:
  static Collector& global();

  void add_track(Track t);
  std::vector<Track> tracks() const;
  void clear();
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Track> tracks_;
};

// Renders the collector's tracks as Chrome trace-event JSON:
//   * B/E duration events for task and idle spans per worker tid;
//   * async b/e spans (id = comm-task slot.generation) for the lifecycle
//     states ALLOCATED / PRESCRIBED / ACTIVE / COMPLETED;
//   * instants for spawn, steal and DDDF events;
//   * M metadata records naming each process ("rank N") and thread.
std::string chrome_trace_json();

// chrome_trace_json() to a file; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace support::trace
