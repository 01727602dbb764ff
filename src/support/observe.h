// RAII wiring of the shared observability flag set for every bench, example
// and tool binary: construct one Observe from the parsed Flags at the top of
// main, and at scope exit it writes the requested artifacts alongside the
// binary's own output. Its constructor reads every flag below, so a main
// that then reads its own flags can call Flags::reject_unread().
//
// Registered flags (the single source of truth — every bench and example
// main routes through here):
//
//   --trace=<file>         Chrome-trace JSON of the run
//   --metrics              human-readable metrics-registry dump on stdout
//   --metrics-json=<file>  machine-readable metrics-registry export
//   --fault-*              hc-fault injection knobs (see fault/fault.h)
//   --transport=thread|socket  smpi wire transport (see net/boot.h): ranks
//                          as threads with direct delivery, or real Unix
//                          domain sockets between processes
//   --prof-hz=<N>          wall-clock sampling profiler at N Hz (997 when
//                          =0 given): every registered thread, parked or
//                          running, takes a sample of its current state
//   --prof-out=<file>      profiler report as collapsed stacks
//                          (`thread;state count`)
//   --prof-telemetry       scheduler/comm telemetry histograms and cadence
//                          gauges (independent of --prof-hz: costs a clock
//                          read + lock-free, bounded histogram insert per
//                          coarse event)
//
// Tracing, profiling and telemetry are bits of one gate word that each hot
// site tests once, through a prof::Probe.
#pragma once

#include <cstdio>
#include <string>

#include "fault/fault.h"
#include "net/boot.h"
#include "prof/prof.h"
#include "support/flags.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace support {

// True for argv entries Observe/Flags own (--name or --name=value forms).
// Binaries that mix our flags with another parser's (google-benchmark)
// partition argv with this; such flags must use the --name=value form.
inline bool is_observability_flag(const char* arg) {
  const std::string a = arg;
  if (a.rfind("--", 0) != 0) return false;
  const std::string body = a.substr(2, a.find('=') - 2);
  return body == "trace" || body == "metrics" || body == "metrics-json" ||
         body == "transport" ||
         body.rfind("fault-", 0) == 0 || body.rfind("prof-", 0) == 0;
}

class Observe {
 public:
  explicit Observe(const Flags& flags)
      : trace_path_(flags.get("trace", "")),
        metrics_(flags.get_bool("metrics", false)),
        metrics_json_path_(flags.get("metrics-json", "")),
        prof_out_(flags.get("prof-out", "")) {
    if (!trace_path_.empty()) {
      trace::Collector::global().clear();
      trace::set_enabled(true);
    }
    fault::configure(flags);  // --fault-* knobs (no-ops when absent)
    net::configure(flags);    // --transport=thread|socket

    int hz = int(flags.get_int("prof-hz", 0));
    telemetry_ = flags.get_bool("prof-telemetry", false);
    if (hz > 0 || !prof_out_.empty()) {
      prof_started_ = prof::start({.hz = hz});  // 0 picks the default
      // Deliberately does NOT imply --prof-telemetry: sampling alone pays
      // only the state register's byte stores (~5% on empty tasks);
      // telemetry adds a clock read and histogram insert per event, so
      // combining them is an explicit choice.
    }
    if (telemetry_) prof::set_telemetry(true);
  }

  ~Observe() {
    if (prof_started_) {
      prof::stop();
      prof::export_metrics(MetricsRegistry::global());
      std::string s = prof::summary();
      if (!s.empty()) std::printf("\n-- prof samples --\n%s", s.c_str());
    }
    if (!prof_out_.empty()) {
      if (prof::write_report(prof_out_)) {
        std::printf("prof: wrote %s\n", prof_out_.c_str());
      } else {
        std::fprintf(stderr, "prof: failed to write %s\n", prof_out_.c_str());
      }
    }
    if (telemetry_) prof::set_telemetry(false);
    if (!trace_path_.empty()) {
      trace::set_enabled(false);
      if (trace::write_chrome_trace(trace_path_)) {
        std::printf("\ntrace: wrote %zu track(s) to %s "
                    "(open in Perfetto / chrome://tracing)\n",
                    trace::Collector::global().size(), trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: failed to write %s\n",
                     trace_path_.c_str());
      }
      std::uint64_t dropped =
          MetricsRegistry::global().counter_value("trace.dropped");
      if (dropped > 0) {
        std::fprintf(stderr,
                     "trace: WARNING %llu event(s) overwritten by full rings "
                     "(raise the ring capacity to avoid truncation)\n",
                     (unsigned long long)dropped);
      }
    }
    if (metrics_) {
      std::printf("\n-- metrics registry --\n");
      MetricsRegistry::global().dump(stdout);
    }
    if (!metrics_json_path_.empty()) {
      if (!MetricsRegistry::global().write_json(metrics_json_path_)) {
        std::fprintf(stderr, "metrics: failed to write %s\n",
                     metrics_json_path_.c_str());
      }
    }
  }

  Observe(const Observe&) = delete;
  Observe& operator=(const Observe&) = delete;

  bool tracing() const { return !trace_path_.empty(); }
  bool metrics() const { return metrics_; }
  bool profiling() const { return prof_started_; }
  bool active() const {
    return tracing() || metrics_ || !metrics_json_path_.empty() ||
           prof_started_ || telemetry_;
  }

 private:
  std::string trace_path_;
  bool metrics_;
  std::string metrics_json_path_;
  std::string prof_out_;
  bool prof_started_ = false;
  bool telemetry_ = false;
};

}  // namespace support
