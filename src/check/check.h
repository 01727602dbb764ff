// hc-check: a compile-time-selectable checked mode for the async/finish/DDF/
// phaser model (-DHCMPI_CHECK=ON).
//
// Two layers share one set of runtime hooks:
//
//   1. A vector-clock happens-before engine driven by the runtime's
//      *structural* edges — async spawn, finish join, DDF put -> get/await
//      release, phaser signal -> wait, comm-task submit -> completion.
//      Instrumented code calls annotate_read()/annotate_write() on shared
//      locations; an access pair with no connecting edge is a determinacy
//      race and throws DeterminacyRace carrying a two-task witness.
//
//   2. A misuse analyzer: finish-scope escape (registering work on a scope
//      that already drained), blocking HCMPI calls issued from the
//      communication worker itself, and CommTaskState transitions outside
//      the Fig. 10/11 lattice (see hcmpi::transition()).
//
// Cost model: with HCMPI_CHECK off every hook below is an empty inline
// function — call sites compile to nothing, no branch, no field reads. With
// it on, hooks serialize on one process-wide mutex (checking is a debugging
// build, not a production mode) and vector clocks track only *observed*
// strands (those that annotated at least one access), so un-annotated
// programs pay a near-constant bookkeeping cost per runtime event.
//
// Scope and soundness (see DESIGN.md §5c): the checker sees the edges the
// runtime creates, nothing more. It checks one rank at a time (DDDF edges
// from remote puts appear as local transport-put edges); OR-await joins all
// satisfied inputs and phaser waits join the phaser's cumulative signal
// clock, both of which can only add edges — so hc-check may miss races
// (false negatives) but never invents one (no false positives).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace hc {
struct Task;
class FinishScope;
class DdfBase;
}  // namespace hc

namespace hc::check {

// Base class of every diagnostic the checked mode raises. The error types
// are defined in all builds so tests and user handlers compile unchanged;
// only the *detection* is compiled out with HCMPI_CHECK off.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// The two-task witness of a determinacy race: the conflicting strand (task)
// ids, their access kinds, and the location. "No missing edge" is exactly
// the claim: no chain of spawn/join/put/signal edges orders the accesses.
struct RaceWitness {
  std::uintptr_t addr = 0;
  std::size_t size = 0;
  std::uint32_t first_task = 0;   // earlier recorded access
  std::uint32_t second_task = 0;  // current access
  bool first_write = false;
  bool second_write = false;
};

class DeterminacyRace : public CheckError {
 public:
  explicit DeterminacyRace(const RaceWitness& w);
  const RaceWitness& witness() const { return witness_; }

 private:
  RaceWitness witness_;
};

// A task (or communication task) was registered on a finish scope that had
// already drained — the escaping work would outlive its enclosing finish.
class FinishEscape : public CheckError {
 public:
  FinishEscape()
      : CheckError(
            "hc-check: task registered on a finish scope that already "
            "drained (finish-scope escape)") {}
};

// A WAIT_ONLY registration signalled, a SIGNAL_ONLY registration waited, or
// a SIGNAL_WAIT registration waited without signalling first
// (self-deadlock). Raised by hc::Phaser in every build: mode enforcement is
// an API contract, not only a checked-mode diagnostic.
class PhaserModeViolation : public CheckError {
 public:
  explicit PhaserModeViolation(const std::string& what) : CheckError(what) {}
};

// next()/signal()/wait()/drop() on a registration already dropped.
class PhaserUseAfterDrop : public CheckError {
 public:
  PhaserUseAfterDrop()
      : CheckError("hc: phaser operation on a dropped registration") {}
};

// register_task(mode, registrar=nullptr) after the phaser started
// signalling. Only a registered signaller that has not yet signalled its
// current phase may register new tasks mid-stream (the X10 clock rule) —
// an unanchored registration races with in-flight signal cascades and can
// resurrect an already-drained phase, double-firing its boundary. Raised in
// every build, like PhaserModeViolation.
class PhaserRegistrationRace : public CheckError {
 public:
  PhaserRegistrationRace()
      : CheckError(
            "hc: register_task without a registrar after signalling began; "
            "register all tasks before the first next()/signal(), or pass "
            "the spawning task's own registration as `registrar`") {}
};

// A blocking HCMPI call (wait/send/recv/collective) issued on the
// communication worker thread itself: the worker cannot drain the worklist
// it is blocking on, so this deadlocks at scale even when it happens to
// complete in small runs.
class CommWorkerBlockingCall : public CheckError {
 public:
  explicit CommWorkerBlockingCall(const std::string& what)
      : CheckError("hc-check: blocking HCMPI call on the communication "
                   "worker thread: " +
                   what) {}
};

// A CommTaskState transition outside the ALLOCATED -> PRESCRIBED -> ACTIVE
// -> COMPLETED -> AVAILABLE lattice (paper Fig. 10/11).
class CommTaskStateViolation : public CheckError {
 public:
  CommTaskStateViolation(int from, int to)
      : CheckError("hc-check: illegal CommTaskState transition " +
                   std::to_string(from) + " -> " + std::to_string(to)) {}
};

#if HCMPI_CHECK

// --- control ---------------------------------------------------------------

// Checking is on by default in a checked build; tests may scope it.
bool enabled();
void set_enabled(bool on);

// Drops all checker state (strands, shadow memory, edge clocks). Only for
// tests, between independent scenarios.
void reset();

// Cumulative diagnostics since the last reset.
std::uint64_t races_detected();
std::uint64_t edges_recorded();
std::uint64_t strands_created();

// The strand id of the calling thread's current task (0 before any checked
// operation). Matches the ids in RaceWitness and the check.* trace events.
std::uint32_t current_strand();

// --- structural-edge hooks (called by the runtime) -------------------------

// finish() / launch() scope lifecycle. begin registers the scope; join runs
// after the scope drains: the waiter acquires every governed task's clock
// and the scope is marked closed for escape detection.
void on_finish_begin(const hc::FinishScope* scope);
void on_finish_join(const hc::FinishScope* scope);
// FinishScope::inc — throws FinishEscape on a closed scope.
void on_scope_inc(const hc::FinishScope* scope);
// A strand completing work governed by `scope` (task end, comm completion):
// merge the calling strand's clock into the scope's join clock.
void on_scope_release(const hc::FinishScope* scope);

// async spawn on the calling strand; returns the child strand id to stash in
// Task::check_strand. The spawn edge parent -> child is recorded here.
std::uint32_t on_spawn();
// Task execution bracket on the worker thread; returns the previous strand
// so help-first nesting restores correctly.
std::uint32_t on_task_begin(std::uint32_t strand);
void on_task_end(const hc::FinishScope* scope, std::uint32_t prev);

// DDF edges: put snapshots the putter's clock; get (and await release)
// joins it into the consumer.
void on_ddf_put(const hc::DdfBase* ddf);
void on_ddf_get(const hc::DdfBase* ddf);
// A DDT released by its await clause: join every satisfied dep's put clock
// into the task's strand before it is scheduled.
void on_await_release(hc::Task* task, std::span<hc::DdfBase* const> deps);
void on_ddf_destroy(const hc::DdfBase* ddf);

// Phaser edges: signals merge into the phaser's cumulative signal clock;
// a wait that observed phase `phase` complete joins it.
void on_phaser_signal(const void* phaser, std::uint64_t phase);
void on_phaser_wait(const void* phaser, std::uint64_t phase);
void on_phaser_destroy(const void* phaser);

// Comm-task edges: submit snapshots the submitting strand's clock keyed by
// the task; the communication worker joins it when it picks the task up, so
// completion -> DDF put carries the submitter's history.
void on_comm_submit(const void* task);
void on_comm_receive(const void* task);

// --- misuse hooks ----------------------------------------------------------

// Marks the calling thread as the communication worker.
void enter_comm_worker();
// Entry guard of every blocking HCMPI operation; throws
// CommWorkerBlockingCall when the calling thread is the communication
// worker.
void on_blocking_call(const char* what);

// --- the instrumentation API for application code --------------------------

// Declare a read/write of [addr, addr+size). Throws DeterminacyRace when a
// conflicting access with no connecting happens-before edge was recorded.
void annotate_read(const void* addr, std::size_t size);
void annotate_write(const void* addr, std::size_t size);

#else  // !HCMPI_CHECK — every hook is an empty inline; zero cost.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}
inline std::uint64_t races_detected() { return 0; }
inline std::uint64_t edges_recorded() { return 0; }
inline std::uint64_t strands_created() { return 0; }
inline std::uint32_t current_strand() { return 0; }

inline void on_finish_begin(const hc::FinishScope*) {}
inline void on_finish_join(const hc::FinishScope*) {}
inline void on_scope_inc(const hc::FinishScope*) {}
inline void on_scope_release(const hc::FinishScope*) {}
inline std::uint32_t on_spawn() { return 0; }
inline std::uint32_t on_task_begin(std::uint32_t) { return 0; }
inline void on_task_end(const hc::FinishScope*, std::uint32_t) {}
inline void on_ddf_put(const hc::DdfBase*) {}
inline void on_ddf_get(const hc::DdfBase*) {}
inline void on_await_release(hc::Task*, std::span<hc::DdfBase* const>) {}
inline void on_ddf_destroy(const hc::DdfBase*) {}
inline void on_phaser_signal(const void*, std::uint64_t) {}
inline void on_phaser_wait(const void*, std::uint64_t) {}
inline void on_phaser_destroy(const void*) {}
inline void on_comm_submit(const void*) {}
inline void on_comm_receive(const void*) {}
inline void enter_comm_worker() {}
inline void on_blocking_call(const char*) {}
inline void annotate_read(const void*, std::size_t) {}
inline void annotate_write(const void*, std::size_t) {}

#endif  // HCMPI_CHECK

}  // namespace hc::check
