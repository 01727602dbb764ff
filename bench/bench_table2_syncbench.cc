// Table II — EPCC syncbench collective synchronization times (µs) on the
// DAVinCI (MVAPICH2/InfiniBand) model: nodes {2,4,8,16,32,64} × cores
// {2,4,8}. Shape checks: HCMPI < hybrid < MPI for both barriers and
// reductions; fuzzy < strict; MPI grows fastest with cores/node.
#include <cstdio>

#include "bench/bench_util.h"
#include "sim/syncbench.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  flags.reject_unread();
  benchutil::header("Table II — EPCC Syncbench (MVAPICH2 on InfiniBand model)",
                    "Collective synchronization times in microseconds. "
                    "(S) strict barrier, (F) fuzzy barrier.");
  sim::MachineConfig m = sim::davinci();
  const int node_list[] = {2, 4, 8, 16, 32, 64};
  const int core_list[] = {2, 4, 8};
  for (int nodes : node_list) {
    benchutil::section("Nodes = %d", nodes);
    std::printf("%-26s", "Cores");
    for (int c : core_list) std::printf("%8d", c);
    std::printf("\n");
    sim::SyncbenchRow rows[3];
    for (int i = 0; i < 3; ++i) rows[i] = sim::syncbench(m, nodes, core_list[i]);
    auto line = [&](const char* name, double sim::SyncbenchRow::* field) {
      std::printf("%-26s", name);
      for (int i = 0; i < 3; ++i) std::printf("%8.1f", rows[i].*field);
      std::printf("\n");
    };
    line("MPI Barrier", &sim::SyncbenchRow::mpi_barrier_us);
    line("MPI+OMP Barrier (S)", &sim::SyncbenchRow::hybrid_barrier_strict_us);
    line("HCMPI Phaser (S)", &sim::SyncbenchRow::hcmpi_phaser_strict_us);
    line("MPI+OMP Barrier (F)", &sim::SyncbenchRow::hybrid_barrier_fuzzy_us);
    line("HCMPI Phaser (F)", &sim::SyncbenchRow::hcmpi_phaser_fuzzy_us);
    line("MPI Reduction", &sim::SyncbenchRow::mpi_reduction_us);
    line("MPI+OMP Reduction", &sim::SyncbenchRow::hybrid_reduction_us);
    line("HCMPI Accumulator", &sim::SyncbenchRow::hcmpi_accumulator_us);
  }
  benchutil::run_traced_probe(obs);
  return 0;
}
