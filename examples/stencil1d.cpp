// 1-D heat diffusion with HCMPI: the canonical halo-exchange pattern, written
// the HCMPI way (paper §II-B):
//
//   * halo receives are posted as asynchronous communication tasks;
//   * the interior is computed while halos are in flight (async await(req)
//     runs the boundary update the moment its halo lands — Fig. 4);
//   * the global residual uses an hcmpi accumulator (phaser + Allreduce).
//
// Run: ./stencil1d [--ranks=4] [--cells=4096] [--iters=200]
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/api.h"
#include "hcmpi/context.h"
#include "hcmpi/phaser_bridge.h"
#include "smpi/world.h"
#include "support/flags.h"
#include "support/observe.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace=<file> / --metrics
  const int ranks = int(flags.get_int("ranks", 4));
  const std::size_t cells = std::size_t(flags.get_int("cells", 4096));
  const int iters = int(flags.get_int("iters", 200));
  flags.reject_unread();

  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      const int me = ctx.rank(), p = ctx.size();
      const std::size_t local = cells / std::size_t(p);
      // u has two ghost cells: u[0] and u[local+1].
      std::vector<double> u(local + 2, 0.0), next(local + 2, 0.0);
      if (me == 0) u[1] = 1000.0;  // hot boundary cell

      double residual = 0.0;
      for (int it = 0; it < iters; ++it) {
        hc::finish([&] {
          // Post halo exchange; tags 1=rightward, 2=leftward.
          hcmpi::RequestHandle rl, rr;
          if (me > 0) {
            ctx.isend(&u[1], sizeof(double), me - 1, 2);
            rl = ctx.irecv(&u[0], sizeof(double), me - 1, 1);
          }
          if (me + 1 < p) {
            ctx.isend(&u[local], sizeof(double), me + 1, 1);
            rr = ctx.irecv(&u[local + 1], sizeof(double), me + 1, 2);
          }
          // Interior overlaps with communication.
          hc::async([&] {
            for (std::size_t i = 2; i + 1 <= local; ++i) {
              next[i] = 0.5 * u[i] + 0.25 * (u[i - 1] + u[i + 1]);
            }
          });
          // Boundary cells run as DDTs when their halo arrives (Fig. 4).
          auto edge = [&](std::size_t i) {
            next[i] = 0.5 * u[i] + 0.25 * (u[i - 1] + u[i + 1]);
          };
          if (rl) {
            hc::async_await({rl.get()}, [&, edge] { edge(1); });
          } else {
            edge(1);
          }
          if (rr) {
            hc::async_await({rr.get()}, [&, edge] { edge(local); });
          } else {
            edge(local);
          }
        });  // all halos + updates complete here
        residual = 0.0;
        for (std::size_t i = 1; i <= local; ++i) {
          residual += std::abs(next[i] - u[i]);
        }
        std::swap(u, next);
      }

      // Global residual via hcmpi-accum (paper Fig. 8).
      hcmpi::HcmpiAccum<double> acc(ctx, hc::ReduceOp::kSum);
      auto* reg = acc.register_task();
      acc.accum_next(reg, residual);
      double global = acc.accum_get(reg);
      acc.drop(reg);
      if (me == 0) {
        std::printf("stencil1d: ranks=%d cells=%zu iters=%d global residual=%.6f\n",
                    p, cells, iters, global);
      }
    });
  });
  std::printf("stencil1d: ok\n");
  return 0;
}
