#include "bench/bench_thread_micro_main.h"
#include "sim/machine.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  flags.reject_unread();
  int rc = run_thread_micro(
      sim::davinci(),
      "Fig. 14 — Thread micro-benchmarks, MVAPICH2/InfiniBand (DAVinCI)");
  benchutil::run_traced_probe(obs);
  return rc;
}
