// UTS with intra-node work stealing on the hc runtime (paper §IV-B, the
// intra-node half of the HCMPI UTS design; the search is
// uts::count_workstealing). The count must match the sequential traversal
// exactly — that's the whole point of UTS.
//
// Run: ./uts_workstealing [--workers=4] [--b0=4] [--gen_mx=8] [--chunk=32]
#include <cstdio>

#include "apps/uts/uts.h"
#include "core/api.h"
#include "support/flags.h"
#include "support/observe.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace=<file> / --metrics
  uts::Params p;
  p.b0 = flags.get_double("b0", 4.0);
  p.gen_mx = int(flags.get_int("gen_mx", 8));
  p.root_seed = std::uint32_t(flags.get_int("seed", 10));
  const int workers = int(flags.get_int("workers", 4));
  const int chunk = int(flags.get_int("chunk", 32));
  flags.reject_unread();

  uts::CountResult seq = uts::count_sequential(p);

  std::uint64_t par = 0;
  hc::Runtime rt({.num_workers = workers});
  rt.launch([&] { par = uts::count_workstealing(p, chunk); });

  std::printf("uts_workstealing: %s\n", p.name().c_str());
  std::printf("  sequential: %llu nodes, %llu leaves, depth %d\n",
              (unsigned long long)seq.nodes, (unsigned long long)seq.leaves,
              seq.max_depth);
  std::printf("  parallel:   %llu nodes on %d workers -> %s\n",
              (unsigned long long)par, workers,
              par == seq.nodes ? "MATCH" : "MISMATCH");
  return par == seq.nodes ? 0 : 1;
}
