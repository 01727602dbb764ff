#include "bench/bench_thread_micro_main.h"
#include "sim/machine.h"

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace / --metrics / --prof-* / ...
  flags.reject_unread();
  int rc = run_thread_micro(
      sim::jaguar(),
      "Fig. 15 — Thread micro-benchmarks, MPICH2/Gemini (Jaguar), including "
      "the paper's repeatable 2-thread anomaly");
  benchutil::run_traced_probe(obs);
  return rc;
}
