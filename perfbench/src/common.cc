#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "dddf/space.h"
#include "net/boot.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pb {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  std::size_t lo = std::size_t(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

void Checks::expect(bool ok, const char* what) {
  attempted_.fetch_add(1);
  if (ok) return;
  if (failed_.fetch_add(1) < 5) std::fprintf(stderr, "check failed: %s\n", what);
}

void Reservoir::add(double x) {
  std::lock_guard<std::mutex> lk(mu_);
  if (seen_ < buf_.size()) {
    buf_[seen_] = x;
  } else {
    std::uint64_t j = support::SplitMix64::mix(seen_) % (seen_ + 1);
    if (j < buf_.size()) buf_[j] = x;
  }
  ++seen_;
}

std::vector<double> Reservoir::values() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {buf_.begin(), buf_.begin() + long(std::min<std::uint64_t>(seen_, buf_.size()))};
}

void Timed::report(Metrics& m) const {
  const std::vector<double> lat = latency_us.values();
  m["work_per_s"] = quantile(round_rate, 0.5);
  m["cpu_ns_per_work"] = quantile(round_cpu, 0.5);
  m["latency_p50_us"] = quantile(lat, 0.50);
  m["latency_p99_us"] = quantile(lat, 0.99);
  m["info.timed_rounds"] = double(round_rate.size());
  m["info.rate_q1"] = quantile(round_rate, 0.25);
  m["info.rate_q3"] = quantile(round_rate, 0.75);
}

LayerCounters LayerCounters::read(hcmpi::Context& ctx) {
  const auto& cc = ctx.comm_counters();
  LayerCounters c;
  c.loop_iterations = cc.loop_iterations.load(std::memory_order_relaxed);
  c.p2p_polls = cc.p2p_polls.load(std::memory_order_relaxed);
  c.p2p_completions = cc.p2p_completions.load(std::memory_order_relaxed);
  c.steals = ctx.runtime().total_steal_batches();
  c.steal_attempts = ctx.runtime().total_steal_attempts();
  return c;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  loop_iterations += o.loop_iterations;
  p2p_polls += o.p2p_polls;
  p2p_completions += o.p2p_completions;
  steals += o.steals;
  steal_attempts += o.steal_attempts;
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.loop_iterations = loop_iterations - o.loop_iterations;
  d.p2p_polls = p2p_polls - o.p2p_polls;
  d.p2p_completions = p2p_completions - o.p2p_completions;
  d.steals = steals - o.steals;
  d.steal_attempts = steal_attempts - o.steal_attempts;
  return d;
}

Rounds::Rounds(hcmpi::Context& ctx, const Options& o)
    : ctx_(ctx), seconds_(o.seconds) {
  phase_end_ns_ = now_ns() + std::uint64_t(o.warmup_s * 1e9);
}

bool Rounds::next(bool* timed) {
  if (timed_ && trace::enabled()) counters += LayerCounters::read(ctx_) - before_;
  enum : std::uint8_t { kStop, kWarm, kTimed };
  std::uint8_t state = kStop;
  if (ctx_.rank() == 0) {
    const std::uint64_t now = now_ns();
    if (!timed_) {
      if (index_ < 0 || now < phase_end_ns_) {
        state = kWarm;  // at least one warm-up round
      } else {
        state = kTimed;
        phase_end_ns_ = now + std::uint64_t(seconds_ * 1e9);
      }
    } else {
      state = now < phase_end_ns_ ? kTimed : kStop;
    }
    // Before the broadcast: every rank records spans from this round on.
    trace::set_timed(state == kTimed);
  }
  ctx_.bcast(&state, 1, 0);
  ++index_;
  timed_ = state == kTimed;
  *timed = timed_;
  if (timed_ && trace::enabled()) before_ = LayerCounters::read(ctx_);
  return state != kStop;
}

void pin_rank_threads(hcmpi::Context& ctx) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  };
  const int r = ctx.rank();
  const int worker_cpu = cpus[std::size_t(2 * r) % cpus.size()];
  const int comm_cpu = cpus[std::size_t(2 * r + 1) % cpus.size()];
  ctx.run([&] { pin(worker_cpu); });  // the root task runs on the worker
  hcmpi::Context::block_until(ctx.post_exec_async([&](smpi::Comm&) { pin(comm_cpu); }));
}

double measure_setup(const Options& o, bool with_space) {
  std::vector<double> v;
  for (int i = 0; i < o.setups; ++i) {
    std::atomic<std::uint64_t> live{0};  // latest rank to pass the barrier
    const std::uint64_t t0 = now_ns();
    smpi::World::run(kRanks, [&](smpi::Comm& comm) {
      hcmpi::Context ctx(comm, {.num_workers = kWorkersPerRank});
      std::unique_ptr<dddf::Space> space;
      if (with_space) {
        space = std::make_unique<dddf::Space>(
            ctx, dddf::SpaceConfig{
                     .home = [](dddf::Guid g) { return int(g % kRanks); },
                     .size = [](dddf::Guid) { return std::size_t(8); }});
      }
      ctx.run([&] { ctx.barrier(); });
      std::uint64_t t = now_ns(), seen = live.load();
      while (t > seen && !live.compare_exchange_weak(seen, t)) {
      }
      if (space) ctx.run([&] { space->finalize(); });
    });
    v.push_back(double(live.load() - t0) * 1e-9);
  }
  return quantile(v, 0.5);
}

namespace {

constexpr int kCalibrationIters = 2000;
constexpr int kWarmIters = 200;

// Bare smpi ping-pong of 8 bytes between 2 ranks; median RTT in us.
double smpi_rtt_us(int iters) {
  std::vector<double> rtt;
  smpi::World::run(kRanks, [&](smpi::Comm& c) {
    std::uint64_t v = 0;
    for (int i = 0; i < kWarmIters + iters; ++i) {
      if (c.rank() == 0) {
        std::uint64_t t = now_ns();
        c.send(&v, sizeof v, 1, 7);
        c.recv(&v, sizeof v, 1, 8);
        if (i >= kWarmIters) rtt.push_back(double(now_ns() - t) * 1e-3);
      } else {
        c.recv(&v, sizeof v, 0, 7);
        ++v;
        c.send(&v, sizeof v, 0, 8);
      }
    }
  });
  return quantile(rtt, 0.5);
}

// Bare smpi allreduce of one long; median call time in us on rank 0.
double smpi_allreduce_us(int iters) {
  std::vector<double> us;
  smpi::World::run(kRanks, [&](smpi::Comm& c) {
    long in = c.rank() + 1, out = 0;
    for (int i = 0; i < kWarmIters + iters; ++i) {
      std::uint64_t t = now_ns();
      c.allreduce(&in, &out, 1, smpi::Datatype::kLong, smpi::Op::kSum);
      if (c.rank() == 0 && i >= kWarmIters) us.push_back(double(now_ns() - t) * 1e-3);
    }
  });
  return quantile(us, 0.5);
}

// Process CPU seconds per rank per wall second while both contexts are up
// and no task or message is in flight.
double idle_cpu_per_rank(double window_s) {
  double out = 0;
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = kWorkersPerRank});
    pin_rank_threads(ctx);  // placed as in the workloads
    ctx.run([&] { ctx.barrier(); });
    const auto window = std::chrono::duration<double>(window_s);
    if (ctx.rank() == 0) {
      double c0 = cpu_seconds();
      std::uint64_t t0 = now_ns();
      std::this_thread::sleep_for(window);
      double wall = double(now_ns() - t0) * 1e-9;
      out = (cpu_seconds() - c0) / (kRanks * wall);
    } else {
      std::this_thread::sleep_for(window * 1.2);  // outlast rank 0's window
    }
    ctx.run([&] { ctx.barrier(); });
  });
  return out;
}

}  // namespace

void run_calibrations(Metrics& m) {
  const net::Mode prev = net::mode();
  net::set_mode(net::Mode::kThread);
  const double thread_rtt = smpi_rtt_us(kCalibrationIters);
  m["smpi.rtt_us.p50"] = thread_rtt;
  m["smpi.allreduce_us.p50"] = smpi_allreduce_us(kCalibrationIters);
  m["hcmpi.idle_cpu_s_per_rank_s"] = idle_cpu_per_rank(0.3);
  // The same ping-pong over socket loopback: the wire's share of a round
  // trip, and what the net layer sends per application message.
  net::set_mode(net::Mode::kSocket);
  auto& reg = support::MetricsRegistry::global();
  const char* const kNet[] = {"net.frames.sent", "net.bytes.sent", "net.retransmits",
                              "net.sendq.would_block"};
  std::uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = reg.counter_value(kNet[i]);
  const double socket_rtt = smpi_rtt_us(kCalibrationIters);
  std::uint64_t d[4];
  for (int i = 0; i < 4; ++i) d[i] = reg.counter_value(kNet[i]) - before[i];
  const double msgs = 2.0 * (kCalibrationIters + kWarmIters);
  m["smpi.socket_rtt_us.p50"] = socket_rtt;
  m["net.wire_rtt_us.p50"] = socket_rtt - thread_rtt;
  m["net.frames_per_msg"] = double(d[0]) / msgs;
  m["net.bytes_per_msg"] = double(d[1]) / msgs;
  m["net.retransmits"] = double(d[2]);
  m["net.sendq_would_block"] = double(d[3]);
  net::set_mode(prev);
}

void report_layers(const LayerCounters& c, double work, double wall_s,
                   std::uint64_t msgs_delivered, Metrics& m) {
  using namespace trace;
  m["core.tasks_per_kwork"] = double(spawned()) * 1000.0 / work;
  std::vector<double> s2s = samples(kSpawnToStart);
  if (!s2s.empty()) {
    m["core.spawn_to_start_us.p50"] = quantile(s2s, 0.50) * 1e-3;
    m["core.spawn_to_start_us.p99"] = quantile(s2s, 0.99) * 1e-3;
  }
  double busy_ns = 0;
  for (double v : samples(kBusy)) busy_ns += v;
  m["core.worker_busy_pct"] =
      100.0 * busy_ns / (double(kRanks * kWorkersPerRank) * wall_s * 1e9);
  if (c.steal_attempts > 0) {
    m["core.steal_success_pct"] =
        100.0 * double(c.steals) / double(c.steal_attempts);
  }
  if (c.p2p_completions > 0) {
    m["hcmpi.polls_per_completion"] =
        double(c.p2p_polls) / double(c.p2p_completions);
  }
  m["hcmpi.loop_iters_per_s"] = double(c.loop_iterations) / wall_s;
  m["smpi.msgs_per_kwork"] = double(msgs_delivered) * 1000.0 / work;
  std::vector<double> submit = samples(kIsend);
  std::vector<double> irecvs = samples(kIrecv);
  submit.insert(submit.end(), irecvs.begin(), irecvs.end());
  if (!submit.empty()) m["hcmpi.submit_ns.p50"] = quantile(submit, 0.5);
  std::vector<double> req = samples(kRequest);
  if (!req.empty()) {
    m["hcmpi.request_us.p50"] = quantile(req, 0.50) * 1e-3;
    m["hcmpi.request_us.p99"] = quantile(req, 0.99) * 1e-3;
  }
}

}  // namespace pb
