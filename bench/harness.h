// Canonical benchmark harness (hc-prof): runs N warmup + M measured
// repetitions of the canonical workloads —
//
//   runtime_micro        task spawn/steal throughput on the hc runtime (the
//                        bench_runtime_micro scheduler path),
//   uts                  intra-node work-stealing UTS, T1-shaped geometric
//                        tree (paper Fig. 16 configuration family,
//                        depth-reduced),
//   smpi_msgrate         2-rank smpi message-rate micro (empty-payload
//                        ping-pong) on the process's transport,
//   smpi_msgrate_socket  the same ping-pong forced over loopback sockets
//                        (recorded ungated: thread-vs-socket baseline),
//
// and emits a canonical BENCH_<pr>.json: median/IQR per metric plus selected
// runtime counters captured through the metrics registry's JSON export (not
// stdout scraping). compare() diffs two reports and flags >threshold
// regressions on metric medians — the CI perf-smoke gate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

// --- minimal JSON value (writer + recursive-descent parser) -----------------
// The harness cannot take a JSON dependency (container rule: nothing gets
// installed), so this covers exactly the subset the reports use. Object keys
// keep insertion order so emitted files diff cleanly.

struct Json {
  enum class T { kNull, kBool, kNum, kStr, kArr, kObj };
  T t = T::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  static Json object() { Json j; j.t = T::kObj; return j; }
  static Json array() { Json j; j.t = T::kArr; return j; }
  static Json number(double v) { Json j; j.t = T::kNum; j.num = v; return j; }
  static Json boolean(bool v) { Json j; j.t = T::kBool; j.b = v; return j; }
  static Json string(std::string s) {
    Json j;
    j.t = T::kStr;
    j.str = std::move(s);
    return j;
  }

  // Object helpers. set() replaces an existing key in place.
  Json& set(const std::string& key, Json v);
  const Json* find(const std::string& key) const;
  double num_or(const std::string& key, double def) const;
  std::string str_or(const std::string& key, const std::string& def) const;

  std::string dump(int indent = 0) const;

  // Parses `text` into `*out`; false (with *err set) on malformed input.
  static bool parse(const std::string& text, Json* out, std::string* err);
};

// --- report schema -----------------------------------------------------------

struct MetricSummary {
  double median = 0, p25 = 0, p75 = 0, min = 0, max = 0;
  int reps = 0;
  std::string unit;
  bool higher_is_better = true;
  double iqr() const { return p75 - p25; }
};

// Summarizes measured rep samples (median / quartiles by linear
// interpolation between closest ranks).
MetricSummary summarize(std::vector<double> samples, const std::string& unit,
                        bool higher_is_better);

struct BenchResult {
  std::string name;
  // Gated metrics: compare() applies the regression threshold to medians.
  std::map<std::string, MetricSummary> metrics;
  // Informational runtime counters / derived telemetry; recorded, diffed in
  // notes, never gated (they move with machine load).
  std::map<std::string, double> counters;
  // false: the whole benchmark is informational — compare() reports its
  // metrics in notes but never fails the gate (socket msgrate moves with
  // kernel scheduling far more than the in-process workloads).
  bool gated = true;
};

struct Report {
  std::string schema = "hcmpi-bench/1";
  int pr = 9;
  std::string host;
  std::map<std::string, BenchResult> benchmarks;
};

std::string to_json(const Report& r);
bool from_json(const std::string& text, Report* out, std::string* err);
bool write_report(const Report& r, const std::string& path);
bool read_report(const std::string& path, Report* out, std::string* err);

// --- compare (the perf gate) -------------------------------------------------

struct CompareOptions {
  double threshold = 0.10;  // fractional regression on a metric median
};

struct Regression {
  std::string bench, metric;
  double baseline = 0, candidate = 0;
  double change = 0;  // signed fraction, worse-direction positive
  std::string what;   // human sentence
};

struct CompareResult {
  std::vector<Regression> regressions;
  std::vector<std::string> notes;  // every metric's verdict line
  bool ok() const { return regressions.empty(); }
};

CompareResult compare(const Report& baseline, const Report& candidate,
                      const CompareOptions& opts = {});

// --- runner ------------------------------------------------------------------

struct RunOptions {
  int warmup = 1;
  int reps = 5;
  int workers = 4;          // hc workers for runtime_micro / UTS
  int micro_tasks = 20000;  // tasks per runtime_micro rep
  int uts_gen_mx = 8;       // T1-shaped tree, depth-reduced for harness time
  int uts_chunk = 32;
  int msgrate_msgs = 20000; // ping-pongs per smpi_msgrate rep
  bool verbose = true;      // per-rep progress lines on stdout
  // Steal-batch policy applied process-wide before the workloads run
  // ("one" | "half"; empty keeps the current default). The CI
  // steal-ablation step flips this between two harness runs.
  std::string steal;
  // Transport applied process-wide before the workloads run ("thread" |
  // "socket"; empty keeps the current mode). Only smpi_msgrate touches the
  // wire, so this flips which transport its gated numbers measure;
  // smpi_msgrate_socket always forces loopback sockets regardless.
  std::string transport;
  // Comma-separated benchmark subset ("runtime_micro,uts"); empty = all.
  std::string only;
};

BenchResult run_runtime_micro(const RunOptions& o);
BenchResult run_uts(const RunOptions& o);
BenchResult run_smpi_msgrate(const RunOptions& o);
BenchResult run_smpi_msgrate_socket(const RunOptions& o);
Report run_all(const RunOptions& o);

}  // namespace bench
