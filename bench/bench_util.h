// Shared helpers for the figure/table regeneration binaries. Every binary
// prints a self-describing header (paper artifact id + what to compare) and
// plain aligned columns so the output diffs cleanly across runs.
//
// Every main opens with a support::Flags and a support::Observe built from
// it, as the examples do, so each binary takes the shared observability
// flags (--trace=<file> / --metrics / --metrics-json / --fault-* / --prof-*)
// and rejects the flags nobody reads (Flags::reject_unread). The simulator
// binaries model timing analytically, so when observability is requested
// they additionally run a small *real* HCMPI workload (run_traced_probe)
// that exercises every instrumented layer — worker task spans, the Fig. 10
// comm-task lifecycle, non-blocking collectives, and the DDDF REGISTER/DATA
// protocol — to populate the trace and the registry.
#pragma once

#include <cstdarg>
#include <cstdio>

#include "core/api.h"
#include "dddf/space.h"
#include "hcmpi/context.h"
#include "smpi/world.h"
#include "support/observe.h"

namespace benchutil {

inline void header(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("%s\n", description);
  std::printf("==============================================================\n");
}

inline void section(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("\n-- ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

// Runs a 2-rank HCMPI exchange on the real runtime when --trace/--metrics is
// active. Call right before main returns (the Observe destructor then writes
// the trace file and dumps the registry these events landed in).
inline void run_traced_probe(const support::Observe& obs) {
  if (!obs.active()) return;
  section("observability probe: 2-rank HCMPI exchange on the real runtime");
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, {
        .home = [](dddf::Guid g) { return int(g % 2); },
        .size = [](dddf::Guid) { return sizeof(int); },
    });
    ctx.run([&] {
      const int me = ctx.rank();
      const int peer = 1 - me;
      // Point-to-point ping-pong: drives comm tasks through every Fig. 10
      // transition (ALLOCATED -> PRESCRIBED -> ACTIVE -> COMPLETED ->
      // AVAILABLE, the last via slot recycling on later iterations).
      for (int i = 0; i < 8; ++i) {
        int out = me * 100 + i;
        int in = -1;
        hcmpi::RequestHandle s = ctx.isend(&out, sizeof out, peer, i);
        hcmpi::RequestHandle r = ctx.irecv(&in, sizeof in, peer, i);
        ctx.wait(s);
        ctx.wait(r);
      }
      // Compute tasks: populate worker rings with spawn/start/end events and
      // give the second worker something to steal.
      hc::finish([&] {
        for (int i = 0; i < 32; ++i) {
          hc::async([i] {
            volatile long acc = 0;
            for (int k = 0; k < 1000; ++k) acc = acc + k * i;
          });
        }
      });
      // A blocking collective (script-based under the hood) for the
      // coll_script_steps / collectives counters.
      int one = 1, sum = 0;
      ctx.allreduce(&one, &sum, 1, hcmpi::Datatype::kInt, hcmpi::Op::kSum);
      // DDDF: each rank produces one value the peer consumes, so both sides
      // log a remote get, a serve, and a DATA delivery.
      hc::finish([&] {
        space.put_value<int>(dddf::Guid(me), me + 42);
        space.async_await({dddf::Guid(peer)}, [&space, peer] {
          (void)space.get_value<int>(dddf::Guid(peer));
        });
      });
      space.finalize();
    });
  });
  std::printf("probe: 2 ranks x (8 p2p round-trips + 32 tasks + allreduce + "
              "1 DDDF exchange) completed\n");
}

}  // namespace benchutil
