// Ablations over the design choices DESIGN.md calls out:
//
//   A. Dedicated communication worker — HCMPI with cores−1 computation
//      workers + an always-responsive worker vs. the hybrid model where all
//      cores compute but steal responses are poll-gated. (The paper's core
//      thesis: "the benefits of a dedicated communication worker can
//      outweigh the loss of parallelism".)
//   B. Strict vs fuzzy phaser barriers across node counts (Table II's (S)
//      vs (F) rows isolated).
//   C. UTS chunk-size / polling-interval sweep (the paper tuned -c/-i per
//      system; this shows the sensitivity surface).
//
// The steal-batch policy's ablation runs on the real runtime, as
// bench_runtime_micro's BM_SpawnBurst/one and /half (DESIGN.md §8).
#include <cstdio>

#include "bench/bench_util.h"
#include "sim/syncbench.h"
#include "sim/uts_hybrid.h"
#include "sim/uts_sim.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  flags.reject_unread();
  sim::MachineConfig jag = sim::jaguar();
  sim::MachineConfig dav = sim::davinci();

  benchutil::header("Ablation studies",
                    "A: dedicated comm worker; B: strict vs fuzzy phaser; "
                    "C: UTS chunk/poll sensitivity.");

  benchutil::section(
      "A. Dedicated comm worker (UTS T1, 64 nodes, Jaguar model): time (s)");
  std::printf("%6s %18s %18s %10s\n", "cores", "dedicated(HCMPI)",
              "all-compute(hyb)", "ratio");
  for (int cores : {2, 4, 8, 16}) {
    sim::UtsSimConfig cfg;
    cfg.tree = uts::t1();
    cfg.nodes = 64;
    cfg.cores_per_node = cores;
    cfg.chunk = 8;
    cfg.poll_interval = 4;
    auto ded = sim::run_uts_hcmpi(jag, cfg);
    auto all = sim::run_uts_hybrid(jag, cfg);
    std::printf("%6d %18.4f %18.4f %10.2f\n", cores, ded.time_s, all.time_s,
                all.time_s / ded.time_s);
  }

  benchutil::section("B. Strict vs fuzzy phaser barrier (8 cores, DAVinCI "
                     "model): time (us)");
  std::printf("%6s %10s %10s %10s\n", "nodes", "strict", "fuzzy", "saved%");
  for (int nodes : {2, 8, 32, 64}) {
    auto row = sim::syncbench(dav, nodes, 8);
    double saved = 100.0 * (row.hcmpi_phaser_strict_us -
                            row.hcmpi_phaser_fuzzy_us) /
                   row.hcmpi_phaser_strict_us;
    std::printf("%6d %10.1f %10.1f %10.1f\n", nodes,
                row.hcmpi_phaser_strict_us, row.hcmpi_phaser_fuzzy_us, saved);
  }

  benchutil::section(
      "C. UTS chunk/poll sweep (HCMPI, T1, 64 nodes x 16 cores): time (s)");
  std::printf("%8s", "chunk\\i");
  for (int poll : {2, 4, 8, 16}) std::printf("%10d", poll);
  std::printf("\n");
  for (int chunk : {2, 4, 8, 16, 32}) {
    std::printf("%8d", chunk);
    for (int poll : {2, 4, 8, 16}) {
      sim::UtsSimConfig cfg;
      cfg.tree = uts::t1();
      cfg.nodes = 64;
      cfg.cores_per_node = 16;
      cfg.chunk = chunk;
      cfg.poll_interval = poll;
      auto r = sim::run_uts_hcmpi(jag, cfg);
      std::printf("%10.4f", r.time_s);
    }
    std::printf("\n");
  }

  benchutil::run_traced_probe(obs);
  return 0;
}
