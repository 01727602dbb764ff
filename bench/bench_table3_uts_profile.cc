// Table III — UTS overhead analysis for the T1 geometric tree on the Jaguar
// model: per-resource work / overhead / search time and the global count of
// failed steal requests, for 64 / 256 / 1024 nodes × {2,4,8,16} cores.
//
// Shape checks vs the paper: HCMPI's overhead column stays ~5x below MPI's;
// at 1024 nodes MPI's search time explodes as cores/node grows while
// HCMPI's stays stable; MPI piles up an order of magnitude more failed
// steals at the largest configuration.
#include <cstdio>

#include "bench/bench_util.h"
#include "sim/uts_sim.h"
#include "support/flags.h"
#include "support/observe.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  benchutil::header("Table III — UTS overhead analysis (T1, Jaguar model)",
                    "Times are per-resource averages in seconds; Fails are "
                    "global failed steal requests.");
  sim::MachineConfig m = sim::jaguar();
  const int node_list[] = {64, 256, 1024};
  const int core_list[] = {2, 4, 8, 16};
  int max_nodes = int(flags.get_int("max_nodes", 1024));
  flags.reject_unread();

  for (int nodes : node_list) {
    if (nodes > max_nodes) break;
    benchutil::section("%d nodes", nodes);
    std::printf("%5s | %9s %9s %9s %9s %10s | %9s %9s %9s %9s %10s\n",
                "cores", "MPI time", "work", "ovh", "search", "fails",
                "HC time", "work", "ovh", "search", "fails");
    for (int cores : core_list) {
      sim::UtsSimConfig mc;
      mc.tree = uts::t1();
      mc.nodes = nodes;
      mc.cores_per_node = cores;
      mc.chunk = 4;
      mc.poll_interval = 16;
      auto r_mpi = sim::run_uts_mpi(m, mc);
      sim::UtsSimConfig hc = mc;
      hc.chunk = 8;
      hc.poll_interval = 4;
      auto r_hc = sim::run_uts_hcmpi(m, hc);
      std::printf(
          "%5d | %9.4f %9.4f %9.5f %9.4f %10llu | %9.4f %9.4f %9.5f %9.4f "
          "%10llu\n",
          cores, r_mpi.time_s, r_mpi.work_s, r_mpi.overhead_s, r_mpi.search_s,
          (unsigned long long)r_mpi.failed_steals, r_hc.time_s, r_hc.work_s,
          r_hc.overhead_s, r_hc.search_s,
          (unsigned long long)r_hc.failed_steals);
    }
  }
  benchutil::run_traced_probe(obs);
  return 0;
}
