// The benchmark binary: one workload, one pass, one process.
//
//   perfbench --workload uts|sw_dddf|msgrate|syncbench --seed N
//             --seconds S [--warmup S] [--setups K] [--trace 0|1]
//             [--trace-out FILE] [--wrong-reference]
//
// Prints one JSON object as its last line: correct, attempted, failed and
// every metric the pass measured. Exits 1 when an output check failed.
// perfbench/run.py builds this binary and runs the passes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "net/boot.h"
#include "prof/prof.h"

namespace {

struct Workload {
  const char* name;
  void (*run)(const pb::Options&, pb::Checks&, pb::Metrics&);
  net::Mode mode;
  bool with_space;
};

const Workload kWorkloads[] = {
    {"uts", pb::run_uts, net::Mode::kThread, false},
    {"sw_dddf", pb::run_sw_dddf, net::Mode::kThread, true},
    {"msgrate", pb::run_msgrate, net::Mode::kThread, false},
    {"syncbench", pb::run_syncbench, net::Mode::kThread, false},
};

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--warmup") o.warmup_s = std::atof(value().c_str());
    else if (a == "--setups") o.setups = std::atoi(value().c_str());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--wrong-reference") o.wrong_reference = true;
    else return usage(("unknown argument " + a).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (o.workload == c.name) w = &c;
  }
  if (w == nullptr) return usage("--workload must name a workload");
  if (!(o.seconds > 0) || o.setups < 1) return usage("bad --seconds or --setups");

  pb::trace::enable(o.trace);
  // The traced pass counts smpi deliveries, which needs prof telemetry.
  if (o.trace) prof::set_telemetry(true);

  pb::Checks checks;
  pb::Metrics m;
  net::set_mode(w->mode);
  m["setup_s"] = pb::measure_setup(o, w->with_space);
  if (o.trace) {
    pb::run_calibrations(m);
    net::set_mode(w->mode);
  }
  w->run(o, checks, m);
  m["peak_rss_mb"] = pb::peak_rss_mb();
  if (o.trace && !o.trace_out.empty() && !pb::trace::write_chrome(o.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }

  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"metrics\":{",
              w->name, checks.failed() == 0 ? "true" : "false",
              (unsigned long long)checks.attempted(),
              (unsigned long long)checks.failed());
  bool first = true;
  for (const auto& [name, v] : m) {
    if (!std::isfinite(v)) continue;
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checks.failed() == 0 && checks.attempted() > 0 ? 0 : 1;
}
