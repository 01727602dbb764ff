// Quickstart: the three layers of the library in one file.
//
//   1. Habanero-C tasking (hc::):     async / finish / DDFs
//   2. HCMPI (hcmpi::):               message passing as asynchronous tasks
//   3. Unified collectives:           hcmpi accumulator across ranks & tasks
//
// Run: ./quickstart [--ranks=4] [--workers=2]
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/api.h"
#include "core/ddf.h"
#include "hcmpi/context.h"
#include "hcmpi/phaser_bridge.h"
#include "smpi/world.h"
#include "support/flags.h"
#include "support/observe.h"

namespace {

// --- 1. intra-node task parallelism: parallel vector add (paper Fig. 2) ---
void demo_tasks() {
  hc::Runtime rt({.num_workers = 2});
  std::vector<float> a(1 << 14, 1.5f), b(1 << 14, 2.5f), c(1 << 14);
  rt.launch([&] {
    hc::parallel_for(0, a.size(), /*grain=*/512,
                     [&](std::size_t i) { c[i] = a[i] + b[i]; });
  });
  std::printf("[tasks]  c[0]=%.1f c[last]=%.1f (expect 4.0)\n", c.front(),
              c.back());
}

// --- 2. data-driven tasks: a two-stage pipeline over DDFs -----------------
void demo_ddf() {
  hc::Runtime rt({.num_workers = 2});
  int result = 0;
  rt.launch([&] {
    auto stage1 = hc::ddf_create<int>();
    auto stage2 = hc::ddf_create<int>();
    hc::finish([&] {
      hc::async_await([&, stage1, stage2] {  // runs when stage1 is put
        stage2->put(stage1->get() * 10);
      }, stage1);
      hc::async_await([&, stage2] { result = stage2->get() + 5; }, stage2);
      hc::async([stage1] { stage1->put(4); });
    });
  });
  std::printf("[ddf]    pipeline result=%d (expect 45)\n", result);
}

// --- 3. HCMPI: ring ping-pong + a global accumulator ----------------------
void demo_hcmpi(int ranks, int workers) {
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = workers});
    ctx.run([&] {
      int me = ctx.rank(), p = ctx.size();
      // Pass a counter around the ring; finish gives blocking semantics
      // (paper Fig. 3: finish around Irecv == Recv).
      int token = 0;
      if (me == 0) {
        token = 100;
        ctx.send(&token, sizeof token, (me + 1) % p, /*tag=*/7);
        ctx.recv(&token, sizeof token, p - 1, 7);
      } else {
        ctx.recv(&token, sizeof token, me - 1, 7);
        ++token;
        ctx.send(&token, sizeof token, (me + 1) % p, 7);
      }
      // hcmpi-accum (paper Fig. 8): every task on every rank contributes.
      // A task blocked in accum_next holds its worker, so spawn exactly one
      // phased task per computation worker (see README limitations).
      hcmpi::HcmpiAccum<std::int64_t> acc(ctx, hc::ReduceOp::kSum);
      // Register every task before any of them may signal (X10 clock rule).
      std::vector<hc::Phaser::Registration*> regs;
      for (int t = 0; t < workers; ++t) regs.push_back(acc.register_task());
      hc::finish([&] {
        for (int t = 0; t < workers; ++t) {
          auto* reg = regs[std::size_t(t)];
          hc::async([&acc, reg, me, t] {
            acc.accum_next(reg, me * 10 + t);
            acc.drop(reg);
          });
        }
      });
      if (me == 0) {
        std::printf("[hcmpi]  ring token=%d (expect %d)\n", token, 100 + p - 1);
      }
    });
  });
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace=<file> / --metrics
  const int ranks = int(flags.get_int("ranks", 4));
  const int workers = int(flags.get_int("workers", 2));
  flags.reject_unread();
  demo_tasks();
  demo_ddf();
  demo_hcmpi(ranks, workers);
  std::printf("quickstart: ok\n");
  return 0;
}
