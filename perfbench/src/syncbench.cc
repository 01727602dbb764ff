// Workload `syncbench` (a probe of the traced pass, not gated; see
// README.md): repeated steps of one hcmpi-accum accum_next (the
// non-blocking allreduce script the communication worker steps) plus one
// blocking Context::allreduce (smpi/collectives.cc, run inline on the
// communication worker), on the thread transport. One round is kSteps
// steps; a step is the latency sample and counts 2 collective calls.
//
// Check: every accum_get and allreduce result, on both ranks, must equal
// the closed-form sum of the seed-derived contributions.
#include "bench.h"
#include "hcmpi/phaser_bridge.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pb {

namespace {

constexpr int kSteps = 500;

// Contribution of `rank` to step `step`: a seed-derived base plus a rank
// offset, so the 2-rank sum is 2 * base + offset(0) + offset(1).
long contribution(std::uint64_t seed, int round, int step, int which, int rank) {
  std::uint64_t base = support::SplitMix64::mix(seed ^ (std::uint64_t(round) << 32) ^ std::uint64_t(step));
  long b = long((base >> (which * 32)) % 1000);
  return b + (which == 0 ? rank : 7 * rank);
}

long expected_sum(std::uint64_t seed, int round, int step, int which) {
  long s = 0;
  for (int r = 0; r < kRanks; ++r) s += contribution(seed, round, step, which, r);
  return s;
}

struct Shared {
  std::uint64_t seed = 0;
  bool wrong_reference = false;
  Timed timed;  // rank 0
  std::uint64_t msgs_delivered = 0;
};

void rank_body(smpi::Comm& comm, const Options& o, Shared& sh, Checks& checks,
               LayerCounters& counters) {
  hcmpi::Context ctx(comm, {.num_workers = kWorkersPerRank});
  pin_rank_threads(ctx);
  const int me = ctx.rank();
  const long skew = sh.wrong_reference ? 1 : 0;
  ctx.run([&] {
    hcmpi::HcmpiAccum<long> acc(ctx, hc::ReduceOp::kSum);
    hc::Phaser::Registration* reg = acc.register_task();
    Rounds rounds(ctx, o);
    bool timed = false;
    RoundClock clock;
    auto& delivered = support::MetricsRegistry::global().counter("smpi.messages_delivered");
    while (rounds.next(&timed)) {
      const int round = rounds.index();
      ctx.barrier();
      const std::uint64_t d0 = delivered.value();
      if (me == 0 && timed) clock.start();
      // The steps run as a task so their time counts as worker-busy time.
      hc::finish([&] {
        spawn([&] {
          for (int s = 0; s < kSteps; ++s) {
            const std::uint64_t t = now_ns();
            {
              trace::Scope span(trace::kAccumNext, std::uint64_t(s));
              acc.accum_next(reg, contribution(sh.seed, round, s, 0, me));
            }
            checks.expect(acc.accum_get(reg) == expected_sum(sh.seed, round, s, 0) + skew,
                          "syncbench: accum_get differs from the closed-form sum");
            long in = contribution(sh.seed, round, s, 1, me), out = 0;
            {
              trace::Scope span(trace::kAllreduce, std::uint64_t(s));
              ctx.allreduce(&in, &out, 1, smpi::Datatype::kLong, smpi::Op::kSum);
            }
            checks.expect(out == expected_sum(sh.seed, round, s, 1) + skew,
                          "syncbench: allreduce differs from the closed-form sum");
            if (me == 0 && timed) sh.timed.latency_us.add(double(now_ns() - t) * 1e-3);
          }
        });
      });
      ctx.barrier();
      if (me == 0 && timed) {
        clock.stop(sh.timed, 2.0 * kSteps);
        sh.msgs_delivered += delivered.value() - d0;
      }
    }
    acc.drop(reg);
    counters = rounds.counters;
  });
}

}  // namespace

void run_syncbench(const Options& o, Checks& checks, Metrics& m) {
  Shared sh;
  sh.seed = o.seed;
  sh.wrong_reference = o.wrong_reference;
  LayerCounters counters[kRanks];
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    rank_body(comm, o, sh, checks, counters[comm.rank()]);
  });
  sh.timed.report(m);
  if (trace::enabled()) {
    LayerCounters total;
    for (const auto& c : counters) total += c;
    report_layers(total, sh.timed.work, sh.timed.wall_s, sh.msgs_delivered, m);
    m["hcmpi.accum_us.p50"] = quantile(trace::samples(trace::kAccumNext), 0.5) * 1e-3;
    m["hcmpi.allreduce_us.p50"] = quantile(trace::samples(trace::kAllreduce), 0.5) * 1e-3;
  }
}

}  // namespace pb
