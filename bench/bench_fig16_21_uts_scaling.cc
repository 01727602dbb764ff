// Figs. 16–21 — UTS strong scaling on the Jaguar model.
//
//   Fig. 16/18: running time, T1-family geometric tree, MPI vs HCMPI
//   Fig. 17/19: running time, T3-family binomial tree,  MPI vs HCMPI
//   Fig. 20/21: HCMPI speedup over MPI for both trees
//
// Substitution note (DESIGN.md §2): the paper ran T1XXL/T3XXL (3–4.2 G
// nodes); this harness defaults to the published ~4.1 M-node T1/T3 shapes,
// so absolute seconds are smaller, but the shape claims remain checkable:
// MPI stops scaling and reverses at high node×core counts while HCMPI keeps
// scaling; HCMPI loses at 2 cores/node (it gives up one core); the speedup
// crossover sits at 8–16 cores/node.
//
// Flags: --max_nodes=N (default 1024), --cores=a,b,.. not supported — edit
// below; --quick limits to 256 nodes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/uts_sim.h"
#include "support/flags.h"
#include "support/observe.h"

namespace {

struct TreeCase {
  const char* label;
  uts::Params params;
  int mpi_chunk, mpi_poll;    // paper's best: T1XXL c=4 i=16; T3XXL c=15 i=8
  int hcmpi_chunk, hcmpi_poll;  // paper's best: c=8 i=4
};

void run_tree(const sim::MachineConfig& m, const TreeCase& tc, int max_nodes) {
  const std::vector<int> node_list = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
  const std::vector<int> core_list = {2, 4, 8, 16};

  benchutil::section("%s: running time (s), MPI (cf. Fig. 16/17)", tc.label);
  std::printf("%6s", "nodes");
  for (int c : core_list) std::printf("  %9s%d", "cores=", c);
  std::printf("\n");
  std::vector<std::vector<double>> mpi_t, hcmpi_t;
  for (int n : node_list) {
    if (n > max_nodes) break;
    std::printf("%6d", n);
    mpi_t.emplace_back();
    for (int c : core_list) {
      sim::UtsSimConfig cfg;
      cfg.tree = tc.params;
      cfg.nodes = n;
      cfg.cores_per_node = c;
      cfg.chunk = tc.mpi_chunk;
      cfg.poll_interval = tc.mpi_poll;
      auto r = sim::run_uts_mpi(m, cfg);
      mpi_t.back().push_back(r.time_s);
      std::printf("  %10.4f", r.time_s);
    }
    std::printf("\n");
  }

  benchutil::section("%s: running time (s), HCMPI (cf. Fig. 18/19)", tc.label);
  std::printf("%6s", "nodes");
  for (int c : core_list) std::printf("  %9s%d", "cores=", c);
  std::printf("\n");
  for (std::size_t i = 0; i < mpi_t.size(); ++i) {
    int n = node_list[i];
    std::printf("%6d", n);
    hcmpi_t.emplace_back();
    for (int c : core_list) {
      sim::UtsSimConfig cfg;
      cfg.tree = tc.params;
      cfg.nodes = n;
      cfg.cores_per_node = c;
      cfg.chunk = tc.hcmpi_chunk;
      cfg.poll_interval = tc.hcmpi_poll;
      auto r = sim::run_uts_hcmpi(m, cfg);
      hcmpi_t.back().push_back(r.time_s);
      std::printf("  %10.4f", r.time_s);
    }
    std::printf("\n");
  }

  benchutil::section("%s: HCMPI speedup over MPI (cf. Fig. 20/21)", tc.label);
  std::printf("%6s", "nodes");
  for (int c : core_list) std::printf("  %9s%d", "cores=", c);
  std::printf("\n");
  for (std::size_t i = 0; i < mpi_t.size(); ++i) {
    std::printf("%6d", node_list[i]);
    for (std::size_t j = 0; j < core_list.size(); ++j) {
      std::printf("  %10.2f", mpi_t[i][j] / hcmpi_t[i][j]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  int max_nodes = int(flags.get_int("max_nodes", 1024));
  if (flags.get_bool("quick", false)) max_nodes = 256;
  // --gen_mx grows the geometric tree toward the paper's nodes-per-core
  // regime (e.g. 12 → ~70 M nodes; see EXPERIMENTS.md "known deviations").
  int gen_mx = int(flags.get_int("gen_mx", 0));
  flags.reject_unread();

  benchutil::header("Figs. 16-21 — UTS strong scaling (Jaguar/MPICH2 model)",
                    "Same deterministic tree explored by the reference MPI "
                    "work-stealing code and by HCMPI (cores-1 computation "
                    "workers + 1 communication worker per node).");

  sim::MachineConfig m = sim::jaguar();
  TreeCase t1{"T1 (geometric)", uts::t1(), 4, 16, 8, 4};
  if (gen_mx > 0) t1.params.gen_mx = gen_mx;
  TreeCase t3{"T3 (binomial)", uts::t3(), 15, 8, 8, 4};
  run_tree(m, t1, max_nodes);
  run_tree(m, t3, max_nodes);
  benchutil::run_traced_probe(obs);
  return 0;
}
