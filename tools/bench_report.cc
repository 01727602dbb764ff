// bench_report: CLI for the canonical benchmark harness (bench/harness.h).
//
// Run mode (default) — execute the three canonical workloads and write the
// canonical report:
//
//   bench_report [--out=BENCH_9.json] [--reps=5] [--warmup=1] [--workers=4]
//                [--steal=one|half] [--transport=thread|socket]
//                [--only=bench1,bench2] [--quick] [--quiet]
//
//   --quick shrinks every workload (1 warmup, 3 reps, smaller trees/counts)
//   for the CI perf-smoke lane; nightly/local runs use the defaults.
//   --steal pins the scheduler's steal-batch policy for the whole run and
//   --only restricts to a subset of the workloads — together they drive the
//   CI steal-ablation step (one vs half on runtime_micro).
//   --transport pins the wire for the run (smpi_msgrate is the workload that
//   touches it); the smpi_msgrate_socket section always forces loopback
//   sockets and is recorded ungated, so the default report carries a
//   thread-vs-socket baseline side by side.
//
// Compare mode — the perf gate. Diffs two reports and exits nonzero when any
// gated metric's median regresses past the threshold:
//
//   bench_report --compare --baseline=BENCH_6.json --candidate=new.json
//                [--threshold=0.10]
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "core/worker.h"
#include "net/boot.h"
#include "support/flags.h"

namespace {

int run_compare(const support::Flags& flags) {
  const std::string base_path = flags.get("baseline", "");
  const std::string cand_path = flags.get("candidate", "");
  if (base_path.empty() || cand_path.empty()) {
    std::fprintf(stderr,
                 "bench_report --compare needs --baseline=<file> and "
                 "--candidate=<file>\n");
    return 2;
  }
  bench::Report base, cand;
  std::string err;
  if (!bench::read_report(base_path, &base, &err)) {
    std::fprintf(stderr, "bench_report: bad baseline %s: %s\n",
                 base_path.c_str(), err.c_str());
    return 2;
  }
  if (!bench::read_report(cand_path, &cand, &err)) {
    std::fprintf(stderr, "bench_report: bad candidate %s: %s\n",
                 cand_path.c_str(), err.c_str());
    return 2;
  }
  bench::CompareOptions opts;
  opts.threshold = flags.get_double("threshold", 0.10);
  bench::CompareResult res = bench::compare(base, cand, opts);
  std::printf("bench_report: %s (baseline) vs %s (candidate), gate %.0f%%\n",
              base_path.c_str(), cand_path.c_str(), opts.threshold * 100);
  for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
  if (res.ok()) {
    std::printf("PASS: no metric regressed past the threshold\n");
    return 0;
  }
  std::printf("FAIL: %zu regression(s)\n", res.regressions.size());
  for (const auto& r : res.regressions) {
    std::printf("  %s/%s: %s (baseline %.6g, candidate %.6g)\n",
                r.bench.c_str(), r.metric.c_str(), r.what.c_str(), r.baseline,
                r.candidate);
  }
  return 1;
}

int run_benchmarks(const support::Flags& flags) {
  bench::RunOptions o;
  if (flags.get_bool("quick", false)) {
    o.warmup = 1;
    o.reps = 3;
    o.micro_tasks = 5000;
    o.uts_gen_mx = 6;
    o.msgrate_msgs = 5000;
  }
  o.warmup = int(flags.get_int("warmup", o.warmup));
  o.reps = int(flags.get_int("reps", o.reps));
  o.workers = int(flags.get_int("workers", o.workers));
  o.micro_tasks = int(flags.get_int("micro-tasks", o.micro_tasks));
  o.uts_gen_mx = int(flags.get_int("uts-gen-mx", o.uts_gen_mx));
  o.msgrate_msgs = int(flags.get_int("msgrate-msgs", o.msgrate_msgs));
  o.verbose = !flags.get_bool("quiet", false);
  o.steal = flags.get("steal", "");
  o.transport = flags.get("transport", "");
  o.only = flags.get("only", "");
  if (!o.steal.empty()) {
    hc::StealPolicy p;
    if (!hc::parse_steal_policy(o.steal, &p)) {
      std::fprintf(stderr, "bench_report: bad --steal=%s "
                   "(want one|half)\n", o.steal.c_str());
      return 2;
    }
  }
  if (!o.transport.empty()) {
    net::Mode m;
    if (!net::parse_mode(o.transport, &m)) {
      std::fprintf(stderr, "bench_report: bad --transport=%s "
                   "(want thread|socket)\n", o.transport.c_str());
      return 2;
    }
  }

  bench::Report r = bench::run_all(o);

  const std::string out = flags.get("out", "BENCH_9.json");
  if (!bench::write_report(r, out)) {
    std::fprintf(stderr, "bench_report: failed to write %s\n", out.c_str());
    return 2;
  }
  std::printf("bench_report: wrote %s\n", out.c_str());
  for (const auto& [name, b] : r.benchmarks) {
    for (const auto& [mname, m] : b.metrics) {
      std::printf("  %-14s %-14s median %12.0f %s (IQR %.0f, %d reps)\n",
                  name.c_str(), mname.c_str(), m.median, m.unit.c_str(),
                  m.iqr(), m.reps);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  if (flags.get_bool("compare", false)) return run_compare(flags);
  return run_benchmarks(flags);
}
