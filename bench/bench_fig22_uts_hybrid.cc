// Fig. 22 — HCMPI speedup over the MPI+OpenMP hybrid on UTS (T1 geometric
// tree, Jaguar model). The hybrid keeps every core computing but pays
// shared-queue lock contention, cancellable-barrier churn, and poll-gated
// steal responses; HCMPI gives up one core per node and wins anyway once
// cores/node reaches 8-16.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/uts_hybrid.h"
#include "support/flags.h"
#include "support/observe.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  benchutil::header("Fig. 22 — HCMPI speedup vs MPI+OpenMP on UTS T1",
                    "Speedup = hybrid time / HCMPI time on the same tree.");
  sim::MachineConfig m = sim::jaguar();
  const std::vector<int> node_list = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
  const std::vector<int> core_list = {2, 4, 8, 16};
  int max_nodes = int(flags.get_int("max_nodes", 1024));
  flags.reject_unread();

  std::printf("%6s", "nodes");
  for (int c : core_list) std::printf("  %9s%d", "cores=", c);
  std::printf("\n");
  for (int n : node_list) {
    if (n > max_nodes) break;
    std::printf("%6d", n);
    for (int c : core_list) {
      sim::UtsSimConfig cfg;
      cfg.tree = uts::t1();
      cfg.nodes = n;
      cfg.cores_per_node = c;
      cfg.chunk = 8;
      cfg.poll_interval = 4;
      auto hcmpi = sim::run_uts_hcmpi(m, cfg);
      sim::UtsSimConfig hy = cfg;
      hy.chunk = 4;
      hy.poll_interval = 16;
      auto hybrid = sim::run_uts_hybrid(m, hy);
      std::printf("  %10.2f", hybrid.time_s / hcmpi.time_s);
    }
    std::printf("\n");
  }
  benchutil::run_traced_probe(obs);
  return 0;
}
