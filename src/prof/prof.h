// hc-prof: sampling profiler and scheduler/comm performance telemetry.
//
// Three cooperating pieces, all compiled in unconditionally and off by
// default, each gated by one bit of the process-wide gate word that tracing
// shares (support::trace::gates()):
//
//   1. A *state register*: each runtime thread registers a ThreadProfile and
//      publishes what it is doing right now (task body, deque op, steal
//      attempt, comm progress, idle) through a relaxed thread-local store.
//      A state switch is two relaxed byte ops, never a clock read.
//
//   2. A *wall-clock sampling profiler* (--prof-hz=N): a cadence thread wakes
//      N times a second and adds one sample to every live thread's current
//      state, running or parked alike, so a parked worker shows as idle
//      instead of taking no sample. Results export as collapsed stacks
//      (`thread;state count`), which flamegraph.pl and flame-graph viewers
//      import.
//
//   3. *Telemetry* (--prof-telemetry): the same cadence thread samples
//      registered gauge callbacks (deque depth, comm-queue depth), and hot
//      paths feed steal-latency / task-granularity / comm-lifecycle /
//      injection-to-completion histograms, which are bounded and lock-free.
//
// A hot site carries one hook, a Probe: it loads the gate word once, and one
// clock reading per edge serves the trace ring, the state switch and the
// histogram alike.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/metrics.h"
#include "support/trace.h"

namespace prof {

// --- runtime states ----------------------------------------------------------

enum class State : std::uint8_t {
  kUnattributed = 0,  // registered but outside any instrumented region
  kTaskBody,          // executing a user task body
  kDequeOp,           // own-deque push/pop bookkeeping
  kStealAttempt,      // scanning victims / place queues for work
  kCommProgress,      // communication-worker progress loop
  kIdle,              // parked waiting for work
};
inline constexpr int kNumStates = 6;
const char* state_name(State s);

// --- gates -------------------------------------------------------------------

// The prof and telemetry bits of the gate word.
inline bool enabled() {
  return (support::trace::gates() & support::trace::kGateProf) != 0;
}
inline bool telemetry() {
  return (support::trace::gates() & support::trace::kGateTelemetry) != 0;
}

// Enables/disables the state register without starting a sampler (tests use
// this with sample_all() for deterministic attribution checks). start()/stop()
// call it internally.
void set_enabled(bool on);

// Enables/disables telemetry; spins up (or lets exit) the cadence thread that
// services gauge samplers.
void set_telemetry(bool on);

// --- per-thread profile ------------------------------------------------------

struct ThreadProfile {
  std::string name;                  // "worker-0", "comm-worker", ...
  std::atomic<std::uint8_t> state{0};
  // Written by sample_all (the cadence thread); read by exporters.
  std::array<std::atomic<std::uint64_t>, kNumStates> samples{};
  std::atomic<bool> live{true};
};

// Registers the calling thread under `name` (idempotent: re-registering
// renames).
void register_thread(const std::string& name);
void rename_thread(const std::string& name);
// Marks the profile dead; its counters remain visible to report()/export
// until reset(). A profile that took no sample is dropped at once, so
// threads that come and go while the sampler is off leave nothing behind.
void unregister_thread();
// The calling thread's profile, or nullptr when unregistered.
ThreadProfile* thread_profile();

// --- state register ----------------------------------------------------------

// Switches the calling thread's state; returns the previous state. No-op
// (returning `s`) on unregistered threads. Two relaxed byte operations — no
// clock read, so time-in-state is derived from sample counts x the sampling
// period, never measured at transition points (that would make state
// switches ~20x more expensive and distort exactly the fine-grained task
// workloads worth profiling). Hot sites switch through a Probe, which tests
// the prof bit first.
State enter_state(State s);

// --- the probe ---------------------------------------------------------------

// The one hook of an instrumented hot site. It loads the gate word once and
// decides everything from that copy, so a site never tests two gates: a
// disabled probe costs one relaxed load of an inline atomic and one branch.
// Each timed edge reads the clock at most once, and the reading serves both
// the trace-ring event (trace bit) and the telemetry histograms (telemetry
// bit); the state switch (prof bit) needs no clock.
class Probe {
 public:
  using Ev = support::trace::Ev;
  using Histogram = support::MetricsRegistry::Histogram;

  // Trace events go on `ring`, or on the calling thread's ring when null.
  explicit Probe(support::trace::Ring* ring = nullptr)
      : gates_(support::trace::gates()), ring_(ring) {}

  // Under the prof bit, the calling thread is in state `s` until the probe
  // is destroyed; nested probes restore the outer state.
  explicit Probe(State s, support::trace::Ring* ring = nullptr)
      : Probe(ring) {
    if (gates_ & support::trace::kGateProf) [[unlikely]] {
      prev_ = std::uint8_t(enter_state(s));
    }
  }
  ~Probe() {
    if (prev_ != kNoState) [[unlikely]] enter_state(State(prev_));
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool tracing() const {
    return (gates_ & support::trace::kGateTrace) != 0;
  }
  bool telemetry() const {
    return (gates_ & support::trace::kGateTelemetry) != 0;
  }

  // A timed edge: reads the clock when trace or telemetry is on, records `e`
  // under the trace bit (Ev::kNone records nothing), and returns the reading,
  // or 0 when neither bit is set.
  std::uint64_t stamp(Ev e = Ev::kNone, std::uint32_t a = 0,
                      std::uint64_t b = 0) const {
    if ((gates_ & kClocked) == 0) [[likely]] return 0;
    return stamp_slow(e, a, b);
  }
  // An event no histogram needs: recorded, and timed, under the trace bit.
  void instant(Ev e, std::uint32_t a = 0, std::uint64_t b = 0) const {
    if (tracing()) [[unlikely]] stamp_slow(e, a, b);
  }
  // Telemetry samples: a value, or the interval between two stamps (skipped
  // when `from` is 0, a stamp taken while both clocked bits were clear).
  void sample(Histogram& h, double v) const {
    if (telemetry()) [[unlikely]] h.add(v);
  }
  void sample(Histogram& h, std::uint64_t from, std::uint64_t to) const {
    if (telemetry() && from != 0 && to >= from) [[unlikely]] {
      h.add(double(to - from));
    }
  }

 private:
  static constexpr std::uint32_t kClocked =
      support::trace::kGateTrace | support::trace::kGateTelemetry;
  static constexpr std::uint8_t kNoState = 0xff;

  std::uint64_t stamp_slow(Ev e, std::uint32_t a, std::uint64_t b) const;

  const std::uint32_t gates_;
  std::uint8_t prev_ = kNoState;
  support::trace::Ring* const ring_;
};

// --- sampling profiler -------------------------------------------------------

struct Config {
  int hz = 997;  // prime, so samples do not beat with periodic work
};

// Starts the cadence thread sampling every live registered thread at
// cfg.hz (997 when not positive), by wall clock. Returns false if already
// running.
bool start(const Config& cfg = {});
void stop();
bool running();

// Takes one synchronous sample of every live registered thread (what the
// cadence thread does on each tick). Deterministic — tests drive it
// directly with a known call count.
void sample_all();

// --- cadence gauge samplers --------------------------------------------------

// Registers a callback the telemetry cadence thread invokes every
// gauge-period while telemetry is on. Returns an id for remove_sampler.
// remove_sampler blocks until any in-flight invocation has returned, so the
// callback's captures may be destroyed immediately afterwards.
std::uint64_t add_sampler(std::function<void()> fn);
void remove_sampler(std::uint64_t id);

// --- reporting & export ------------------------------------------------------

struct ThreadReport {
  std::string name;
  bool live = false;
  std::array<std::uint64_t, kNumStates> samples{};
  std::uint64_t total_samples() const;
};

// One entry per registered profile (dead threads included), in registration
// order.
std::vector<ThreadReport> report();

// Folds profiler results into a metrics registry: prof.samples.<state>
// counters plus per-thread utilization histograms (prof.worker_task_pct,
// prof.worker_idle_pct — one sample per thread that accrued time).
void export_metrics(support::MetricsRegistry& reg);

// "thread;state count\n" per (thread, state) with samples — feed directly to
// flamegraph.pl or a flame-graph viewer's collapsed-stack importer.
std::string collapsed_stacks();

// Writes collapsed_stacks() to `path`. False on I/O failure.
bool write_report(const std::string& path);

// Human-readable per-thread state breakdown (for stdout summaries).
std::string summary();

// Drops the profiles of dead threads and zeroes the counts of live ones
// (tests use it between scenarios).
void reset();

}  // namespace prof
