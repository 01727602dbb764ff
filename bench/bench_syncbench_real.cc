// EPCC-syncbench on REAL threads (companion to bench_table2_syncbench's
// model): measures, on the build host, the cost of
//
//   * an smpi dissemination barrier over R ranks ("MPI everywhere"),
//   * an hcmpi blocking barrier (one process per "node", via comm worker),
//   * an hcmpi-phaser barrier across tasks and ranks (strict and fuzzy),
//   * an hcmpi accumulator vs an smpi allreduce.
//
// Absolute numbers are host-relative (this is the calibration artifact that
// keeps sim::MachineConfig honest); the Table II claims themselves are
// checked on the simulator, where rank counts beyond the host's cores are
// meaningful.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/api.h"
#include "hcmpi/context.h"
#include "hcmpi/phaser_bridge.h"
#include "smpi/world.h"
#include "support/flags.h"
#include "support/observe.h"

namespace {

using Clock = std::chrono::steady_clock;

double us_per_iter(Clock::time_point t0, Clock::time_point t1, int iters) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

double bench_smpi_barrier(int ranks, int iters) {
  double out = 0;
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    comm.barrier();  // warm up
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) comm.barrier();
    auto t1 = Clock::now();
    if (comm.rank() == 0) out = us_per_iter(t0, t1, iters);
  });
  return out;
}

double bench_smpi_allreduce(int ranks, int iters) {
  double out = 0;
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    long v = comm.rank(), r = 0;
    comm.allreduce(&v, &r, 1, smpi::Datatype::kLong, smpi::Op::kSum);
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      comm.allreduce(&v, &r, 1, smpi::Datatype::kLong, smpi::Op::kSum);
    }
    auto t1 = Clock::now();
    if (comm.rank() == 0) out = us_per_iter(t0, t1, iters);
  });
  return out;
}

double bench_hcmpi_barrier(int ranks, int iters) {
  double out = 0;
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      ctx.barrier();
      auto t0 = Clock::now();
      for (int i = 0; i < iters; ++i) ctx.barrier();
      auto t1 = Clock::now();
      if (ctx.rank() == 0) out = us_per_iter(t0, t1, iters);
    });
  });
  return out;
}

double bench_phaser(int ranks, int tasks, int iters, bool fuzzy) {
  double out = 0;
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = tasks});
    ctx.run([&] {
      hcmpi::HcmpiPhaser ph(ctx, fuzzy);
      std::vector<hc::Phaser::Registration*> regs;
      for (int t = 0; t < tasks; ++t) {
        regs.push_back(ph.register_task(hc::PhaserMode::kSignalWait));
      }
      auto t0 = Clock::now();
      hc::finish([&] {
        for (int t = 0; t < tasks; ++t) {
          auto* reg = regs[std::size_t(t)];
          hc::async([&, reg] {
            for (int i = 0; i < iters; ++i) ph.next(reg);
            ph.drop(reg);
          });
        }
      });
      auto t1 = Clock::now();
      // Drops pay off three extra phases; fold them into the divisor.
      if (ctx.rank() == 0) out = us_per_iter(t0, t1, iters + 3);
    });
  });
  return out;
}

double bench_accumulator(int ranks, int tasks, int iters) {
  double out = 0;
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = tasks});
    ctx.run([&] {
      hcmpi::HcmpiAccum<std::int64_t> acc(ctx, hc::ReduceOp::kSum);
      std::vector<hc::Phaser::Registration*> regs;
      for (int t = 0; t < tasks; ++t) regs.push_back(acc.register_task());
      auto t0 = Clock::now();
      hc::finish([&] {
        for (int t = 0; t < tasks; ++t) {
          auto* reg = regs[std::size_t(t)];
          hc::async([&, reg] {
            for (int i = 0; i < iters; ++i) acc.accum_next(reg, 1);
            acc.drop(reg);
          });
        }
      });
      auto t1 = Clock::now();
      if (ctx.rank() == 0) out = us_per_iter(t0, t1, iters + 3);
    });
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  const int iters = int(flags.get_int("iters", 200));
  flags.reject_unread();
  benchutil::header(
      "Syncbench on real threads (host-relative calibration)",
      "smpi 'MPI everywhere' vs HCMPI comm-worker collectives vs "
      "hcmpi-phaser across tasks. Complements the Table II model.");

  std::printf("%-10s %8s | %12s %12s | %11s %11s %11s | %11s %11s\n", "nodes",
              "tasks", "smpi bar", "smpi ared", "hcmpi bar", "phaser(S)",
              "phaser(F)", "accum", "-");
  for (int ranks : {2, 4}) {
    for (int tasks : {1, 2}) {
      double sb = bench_smpi_barrier(ranks * tasks, iters);
      double sa = bench_smpi_allreduce(ranks * tasks, iters);
      double hb = bench_hcmpi_barrier(ranks, iters);
      double ps = bench_phaser(ranks, tasks, iters, /*fuzzy=*/false);
      double pf = bench_phaser(ranks, tasks, iters, /*fuzzy=*/true);
      double ac = bench_accumulator(ranks, tasks, iters);
      std::printf("%-10d %8d | %12.2f %12.2f | %11.2f %11.2f %11.2f | %11.2f %11s\n",
                  ranks, tasks, sb, sa, hb, ps, pf, ac, "");
    }
  }
  std::printf("\n(times in us/op; single-core CI hosts oversubscribe, so\n"
              "cross-column comparisons are only meaningful on multicore)\n");
  return 0;
}
