// hc-fault: the deterministic fault-injection plane and the knobs of the
// recovery machinery it forces into existence (DESIGN.md §6).
//
// The paper's lifecycle argument (Fig. 10) is only interesting on an
// imperfect substrate: *MPI Progress For All* shows stalled progress is the
// dominant failure mode of offloaded-progress designs, and AMT runtimes need
// retransmission and failure propagation below the task layer. This module
// is the chaos half of that story:
//
//   * A seed-reproducible `FaultPlan`: every wire decision (drop / delay /
//     duplicate, plus fail-stop rank death) is a pure function of
//     (seed, src, dst, lane, per-channel sequence number), so the same seed
//     replays the same per-channel injection schedule byte-for-byte no
//     matter how threads interleave.
//   * The decision point is hooked into two kinds of channel. The socket
//     wire (net::Fabric's transmit point) really drops, duplicates and
//     delays frames; its acks, RTO retransmission and Reorderer repair
//     them, and that Reorderer is the only duplicate filter in the stack.
//     The in-memory channels — thread-mode smpi delivery (all hcmpi p2p,
//     collective and DDDF protocol traffic) and the AmBus mailboxes —
//     cannot lose or duplicate anything, so there an injected fault only
//     makes the message late (`cross_in_memory`). Request deadlines in
//     hcmpi and the deadlined finalize barriers sit above both.
//   * A stall-watchdog configuration read by the hcmpi communication worker,
//     plus a process-wide diagnostics registry so subsystems (the DDDF
//     space) can contribute state dumps when the watchdog fires.
//
// Cost when idle: every hook is a relaxed load of a cold flag. Injection is
// configured per process via `configure()` (tests), `--fault-*` flags
// (benches/examples through support::Observe) or the HCMPI_FAULT environment
// variable (ctest chaos runs), e.g.
//
//   HCMPI_FAULT="seed=1,drop_p=0.05,delay_p=0.10,delay_us=100" ctest ...
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace support {
class Flags;
}

namespace fault {

struct Config {
  std::uint64_t seed = 1;

  // Per-message wire probabilities. On the socket wire a drop is recovered
  // by the fabric's retransmission, a duplicate by its Reorderer, and a
  // delay holds the frame on the IO thread's timer queue. On an in-memory
  // channel a drop becomes a sender-side backoff and a delay a sender-side
  // sleep; dup_p acts only on the socket wire.
  double drop_p = 0.0;
  double delay_p = 0.0;
  std::uint32_t delay_us = 100;
  double dup_p = 0.0;

  // Fail-stop rank death (--fault-kill-rank=R@t): rank R goes dark from the
  // network's point of view after its t-th wire decision as a sender —
  // nothing it sends leaves, nothing sent to it arrives.
  int kill_rank = -1;
  std::uint64_t kill_after = 0;

  // Comm-worker stall watchdog: fire a diagnostic dump when communication
  // tasks sit ACTIVE with no lifecycle transition for this long. 0 = off.
  std::uint64_t watchdog_ms = 0;

  // Default deadline for Space::finalize / Transport::finalize_barrier.
  // 0 = wait forever (the pre-fault behavior).
  std::uint64_t finalize_timeout_ms = 0;
};

// One wire decision for one delivery attempt on channel (src, dst, lane).
struct Decision {
  std::uint64_t seq = 0;  // this attempt's per-channel sequence number
  bool drop = false;
  bool dup = false;
  std::uint32_t delay_us = 0;  // 0 = no delay
};

// Lanes split one (src, dst) pair into independent channels so control
// traffic (acks) does not perturb the payload schedule.
inline constexpr int kPayloadLane = 0;
inline constexpr int kAckLane = 1;

// --- configuration ----------------------------------------------------------

void configure(const Config& cfg);
// Parses --fault-seed / --fault-drop-p / --fault-delay-p / --fault-delay-us /
// --fault-dup-p / --fault-kill-rank=R[@t] / --fault-watchdog-ms /
// --fault-finalize-timeout-ms. Flags not present leave the current value.
void configure(const support::Flags& flags);
// Same keys (sans the fault- prefix) from HCMPI_FAULT="k=v,k=v". Applied
// once automatically before main via a static initializer; callable again
// from tests.
void configure_from_env();
// Back to the default (everything off) config; clears channel state and the
// recorded schedule. Tests call this between cases.
void reset();

const Config& config();

// True iff any injection knob (drop/delay/dup/kill) is armed. One relaxed
// atomic load — the only cost the hot paths pay when faults are off.
bool enabled();

// Watchdog period in ns, 0 when off. Read every comm-worker loop iteration.
std::uint64_t watchdog_ns();

std::uint64_t finalize_timeout_ms();

// --- the injection schedule -------------------------------------------------

// Draws the next wire decision for channel (src, dst, lane) and advances its
// sequence counter. Deterministic: the decision for the n-th call on a
// channel depends only on (seed, src, dst, lane, n). Bumps the
// fault.injected.* metrics for whatever it injects.
Decision decide(int src, int dst, int lane = kPayloadLane);

// Fail-stop check (see Config::kill_rank).
bool rank_dead(int rank);

// Sender-side retry pacing after an injected drop on an in-memory channel:
// sleeps for the capped exponential backoff of `attempt` (32us << attempt,
// capped at 2ms) and records retry.count and the retry.backoff_us
// histogram. Returns the microseconds slept.
std::uint32_t retry_backoff(std::uint32_t attempt);

// Injection on an in-memory channel, run by the sender before it delivers
// one message from src to dst: fault becomes lateness, never loss or a
// second copy. Fail-stop check first; then per attempt decide(src, dst),
// sleep any injected delay, and on a drop retry_backoff and decide again.
// Returns false when src or dst is fail-stop dead (deliver nothing), true
// when the caller should deliver the message, once.
bool cross_in_memory(int src, int dst);

// --- schedule recording (reproducibility tests) -----------------------------

struct Record {
  int src = 0;
  int dst = 0;
  int lane = 0;
  std::uint64_t seq = 0;
  std::uint8_t drop = 0;
  std::uint8_t dup = 0;
  std::uint32_t delay_us = 0;

  friend bool operator==(const Record&, const Record&) = default;
};

void record_schedule(bool on);
// The recorded decisions in canonical (src, dst, lane, seq) order, so two
// runs of the same seeded workload compare byte-for-byte even though their
// global interleavings differ.
std::vector<Record> schedule();

// --- watchdog diagnostics registry ------------------------------------------

// Subsystems register a dumper (e.g. the DDDF registration table); the
// comm-worker watchdog invokes every registered dumper when it fires.
// Dumpers must be safe to run from a foreign thread.
using DiagnosticFn = std::function<void(std::FILE*)>;
int register_diagnostic(std::string name, DiagnosticFn fn);
void unregister_diagnostic(int id);
void dump_diagnostics(std::FILE* f);

}  // namespace fault
