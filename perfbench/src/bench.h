// Shared pieces of the end-to-end benchmark: options, output checks, the
// round loop every workload runs under, and the traced pass's span
// recorder with the thin wrappers through which the workloads call into
// the layers (hc, hcmpi, dddf, smpi, apps).
//
// Every workload runs 2 ranks in this process, each rank an hcmpi::Context
// with one computation worker plus its communication worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "core/ddf.h"
#include "hcmpi/context.h"

namespace pb {

inline constexpr int kRanks = 2;
inline constexpr int kWorkersPerRank = 1;

// --- time, CPU and memory ----------------------------------------------------

inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}
double cpu_seconds();   // process user + sys time, all threads
double peak_rss_mb();   // VmHWM
// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);


// --- options and results -------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   // timed phase
  double warmup_s = 1.5; // same workload, before timing starts
  int setups = 100;      // bring-ups whose median is setup_s
  bool trace = false;    // traced pass: spans, telemetry, calibrations
  std::string trace_out; // Chrome-trace JSON of the traced pass
  bool wrong_reference = false;  // perturb every reference (tests the checks)
};

// Output checks made apart from the program: each is one attempted
// operation; a mismatch counts as failed and is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const char* what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

using Metrics = std::map<std::string, double>;

// A uniform sample of at most `cap` values (Algorithm R), safe to add to
// from any thread. Its storage is touched up front, so the process's peak
// RSS does not depend on how many samples a run takes.
class Reservoir {
 public:
  explicit Reservoir(std::size_t cap = std::size_t(1) << 17) : buf_(cap, 0.0) {}
  void add(double x);
  std::vector<double> values() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> buf_;
  std::uint64_t seen_ = 0;
};

// Timed-phase record kept by rank 0. work_per_s and cpu_ns_per_work are
// medians over the timed rounds, each of which does the same work.
struct Timed {
  double wall_s = 0;  // summed over the timed rounds
  double work = 0;
  Reservoir latency_us;  // pooled workload latency samples
  std::vector<double> round_rate, round_cpu;  // per timed round

  void add_round(double wall, double cpu, double w) {
    wall_s += wall;
    work += w;
    round_rate.push_back(w / wall);
    round_cpu.push_back(cpu * 1e9 / w);
  }
  // The end-to-end metrics every workload reports (setup_s and peak_rss_mb
  // are added by main).
  void report(Metrics& m) const;
};

// Round clock for rank 0: wall and CPU time of one measured round.
class RoundClock {
 public:
  void start() {
    t0_ = now_ns();
    c0_ = cpu_seconds();
  }
  void stop(Timed& t, double work) const {
    t.add_round(double(now_ns() - t0_) * 1e-9, cpu_seconds() - c0_, work);
  }

 private:
  std::uint64_t t0_ = 0;
  double c0_ = 0;
};

// Per-rank scheduler/communication counters, read through public accessors
// at the edges of each timed round (traced pass only).
struct LayerCounters {
  std::uint64_t loop_iterations = 0;
  std::uint64_t p2p_polls = 0;
  std::uint64_t p2p_completions = 0;
  std::uint64_t steals = 0;  // successful steal batches
  std::uint64_t steal_attempts = 0;

  static LayerCounters read(hcmpi::Context& ctx);
  LayerCounters& operator+=(const LayerCounters& o);
  LayerCounters operator-(const LayerCounters& o) const;
};

// Decides, on rank 0, whether another round runs (warm-up rounds first,
// then timed rounds until the timed phase is over) and broadcasts it, so
// every rank runs the same rounds. Called from inside Context::run.
class Rounds {
 public:
  Rounds(hcmpi::Context& ctx, const Options& o);
  // False once the timed phase is over; *timed tells whether the round that
  // starts now is measured.
  bool next(bool* timed);
  int index() const { return index_; }

  // Traced pass: this rank's counters summed over the timed rounds.
  LayerCounters counters;

 private:
  hcmpi::Context& ctx_;
  double seconds_;
  std::uint64_t phase_end_ns_ = 0;
  bool timed_ = false;
  int index_ = -1;
  LayerCounters before_;
};

// --- workloads ---------------------------------------------------------------

// Each runs its untraced (or traced) pass and fills `m` with its metrics.
void run_uts(const Options& o, Checks& checks, Metrics& m);
void run_sw_dddf(const Options& o, Checks& checks, Metrics& m);
void run_msgrate(const Options& o, Checks& checks, Metrics& m);
void run_syncbench(const Options& o, Checks& checks, Metrics& m);

// Pins this rank's computation worker and communication worker to their
// own CPUs (rank r: 2r and 2r+1, modulo the CPUs this process may use), so
// every launch places the 4 busy threads the same way. Call on the rank
// thread before Context::run.
void pin_rank_threads(hcmpi::Context& ctx);

// Median time of o.setups bring-ups: World construction until the first
// barrier completes with every rank's Context (and Space) live.
double measure_setup(const Options& o, bool with_space);

// Traced pass only: bare-smpi, socket-wire and idle calibration phases.
void run_calibrations(Metrics& m);

// Folds the traced pass's generic per-layer metrics into `m`: spans and
// samples recorded during the timed rounds, the summed LayerCounters and
// registry deltas, against `work` units over `wall_s` seconds.
void report_layers(const LayerCounters& c, double work, double wall_s,
                   std::uint64_t msgs_delivered, Metrics& m);

// --- the traced pass's span recorder ----------------------------------------

namespace trace {

// Span and sample kinds; spans record their duration as a sample too.
enum Kind : int {
  kTask,          // body of a task the benchmark spawned
  kIsend,         // inside Context::isend
  kIrecv,         // inside Context::irecv
  kSend,          // inside blocking Context::send
  kRecv,          // inside blocking Context::recv
  kAllreduce,     // inside blocking Context::allreduce
  kAccumNext,     // inside HcmpiAccum::accum_next
  kStealServe,    // UTS listener serving one steal request
  kUtsSeq,        // the benchmark's sequential UTS traversal
  kComputeTile,   // inside sw::compute_tile
  kPut,           // inside dddf::Space::put
  kFinalize,      // inside dddf::Space::finalize
  kSpawnToStart,  // sample: hc::async call -> task body start
  kRequest,       // sample: isend/irecv call -> awaiting DDT start
  kBusy,          // sample: outermost task body on a worker thread
  kKinds
};
const char* name(Kind k);

// Set once before any rank thread starts; spans are recorded only while
// both tracing and the timed phase are on.
void enable(bool on);
bool enabled();
void set_timed(bool on);
inline std::atomic<bool> g_active{false};
inline bool active() { return g_active.load(std::memory_order_relaxed); }

void span(Kind k, std::uint64_t start, std::uint64_t end, std::uint64_t op);
void sample(Kind k, double value_ns);
std::uint64_t spawned();  // tasks spawned through the wrappers

// RAII span with a parent link to the enclosing span on this thread.
class Scope {
 public:
  Scope(Kind k, std::uint64_t op);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
  Kind k_;
  std::uint64_t op_;
  std::uint64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

void count_spawn();
std::vector<double> samples(Kind k);  // merged over threads, ns

// Runs a spawned task's body under a kTask span. Help-first waits nest task
// bodies on one thread, so only the outermost one adds to kBusy.
inline thread_local int tl_task_depth = 0;
template <typename F>
void run_body(F& fn, std::uint64_t op) {
  const bool outer = tl_task_depth++ == 0;
  const std::uint64_t t = outer ? now_ns() : 0;
  {
    Scope s(kTask, op);
    fn();
  }
  --tl_task_depth;
  if (outer) sample(kBusy, double(now_ns() - t));
}
bool write_chrome(const std::string& path);

}  // namespace trace

// --- calls into the layers, wrapped in spans for the traced pass ----------

template <typename F>
void spawn(F&& fn, std::uint64_t op = 0) {
  if (!trace::active()) {
    hc::async(std::forward<F>(fn));
    return;
  }
  trace::count_spawn();
  const std::uint64_t t = now_ns();
  hc::async([fn = std::forward<F>(fn), t, op]() mutable {
    trace::sample(trace::kSpawnToStart, double(now_ns() - t));
    trace::run_body(fn, op);
  });
}

template <typename F>
void await(std::vector<hc::DdfBase*> deps, F&& fn, std::uint64_t op = 0) {
  if (!trace::active()) {
    hc::async_await(std::move(deps), std::forward<F>(fn));
    return;
  }
  trace::count_spawn();
  hc::async_await(std::move(deps), [fn = std::forward<F>(fn), op]() mutable {
    trace::run_body(fn, op);
  });
}

inline hcmpi::RequestHandle isend(hcmpi::Context& ctx, const void* buf,
                                  std::size_t bytes, int dest, int tag,
                                  std::uint64_t op = 0) {
  trace::Scope s(trace::kIsend, op);
  return ctx.isend(buf, bytes, dest, tag);
}

inline hcmpi::RequestHandle irecv(hcmpi::Context& ctx, void* buf,
                                  std::size_t cap, int source, int tag,
                                  std::uint64_t op = 0) {
  trace::Scope s(trace::kIrecv, op);
  return ctx.irecv(buf, cap, source, tag);
}

inline void send(hcmpi::Context& ctx, const void* buf, std::size_t bytes,
                 int dest, int tag, std::uint64_t op = 0) {
  trace::Scope s(trace::kSend, op);
  ctx.send(buf, bytes, dest, tag);
}

inline void recv(hcmpi::Context& ctx, void* buf, std::size_t cap, int source,
                 int tag, std::uint64_t op = 0) {
  trace::Scope s(trace::kRecv, op);
  ctx.recv(buf, cap, source, tag);
}

}  // namespace pb
