// Fig. 24 / Table IV — Smith–Waterman DDDF scaling on the DAVinCI model:
// 8–96 nodes × 2–12 cores. The paper's 1.856M×1.92M-cell problem is tiled
// 200×200 outer × 32×32 inner; this harness uses 100×100 outer × 8×8 inner
// with the per-inner-tile cell count preserved in spirit (DESIGN.md §2), so
// the wavefront slackness per node matches the paper's regime.
//
// Shape checks: ~1.7-2x per node doubling up to 64 nodes, a weaker 64->96
// step (wavefront ramp starves 96 nodes), and 2->12 core speedups in the
// 8-10x band (one core is the communication worker).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/sw_sim.h"
#include "support/flags.h"
#include "support/observe.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  const auto cells = std::uint64_t(flags.get_int("cells", 870000));
  flags.reject_unread();
  benchutil::header(
      "Fig. 24 / Table IV — Smith-Waterman DDDF scaling (DAVinCI model)",
      "Times in seconds; banded-diagonal DDF_HOME distribution.");
  sim::MachineConfig m = sim::davinci();
  const std::vector<int> node_list = {8, 16, 32, 64, 96};
  const std::vector<int> core_list = {2, 4, 8, 12};

  std::printf("%6s", "cores");
  for (int n : node_list) std::printf("  %8s%-3d", "nodes=", n);
  std::printf("\n");
  for (int c : core_list) {
    std::printf("%6d", c);
    for (int n : node_list) {
      sim::SwSimConfig cfg;
      cfg.outer_rows = 100;
      cfg.outer_cols = 100;
      cfg.inner = 8;
      cfg.cells_per_inner = cells;
      cfg.nodes = n;
      cfg.cores = c;
      cfg.dist = sim::SwDist::kBandedDiagonal;
      auto r = sim::run_sw_dddf(m, cfg);
      std::printf("  %11.1f", r.time_s);
    }
    std::printf("\n");
  }
  benchutil::run_traced_probe(obs);
  return 0;
}
