// Fig. 25 — Smith–Waterman: HCMPI DDDF vs MPI+OpenMP, 1–16 nodes × 2–12
// cores, on the DAVinCI model (the paper's 371200×384000 problem, scaled
// tiling per DESIGN.md §2). Each implementation uses its best distribution:
// banded diagonals for DDDF, cyclic columns for the hybrid.
//
// Shape checks: ~0.5x at 2 cores/node (half of DDDF's cores are the
// communication worker), crossover around 6 cores/node, DDDF ahead at 8-12
// cores because the hybrid pays an implicit barrier between diagonals while
// DDDF's unstructured wavefront keeps flowing.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/sw_sim.h"
#include "support/flags.h"
#include "support/observe.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  const auto cells = std::uint64_t(flags.get_int("cells", 340000));
  flags.reject_unread();
  benchutil::header("Fig. 25 — SW speedup: MPI+OpenMP time / HCMPI-DDDF time",
                    "Values > 1 mean the DDDF dataflow version wins.");
  sim::MachineConfig m = sim::davinci();
  const std::vector<int> node_list = {1, 2, 4, 8, 16};
  const std::vector<int> core_list = {2, 4, 6, 8, 12};

  std::printf("%6s", "cores");
  for (int n : node_list) std::printf("  %8s%-3d", "nodes=", n);
  std::printf("\n");
  for (int c : core_list) {
    std::printf("%6d", c);
    for (int n : node_list) {
      sim::SwSimConfig cfg;
      cfg.outer_rows = 40;
      cfg.outer_cols = 40;
      cfg.inner = 8;
      cfg.cells_per_inner = cells;
      cfg.nodes = n;
      cfg.cores = c;
      cfg.dist = sim::SwDist::kBandedDiagonal;
      auto dddf = sim::run_sw_dddf(m, cfg);
      sim::SwSimConfig hy = cfg;
      hy.dist = sim::SwDist::kCyclicColumn;
      auto hybrid = sim::run_sw_hybrid(m, hy);
      std::printf("  %11.2f", hybrid.time_s / dddf.time_s);
    }
    std::printf("\n");
  }
  benchutil::run_traced_probe(obs);
  return 0;
}
