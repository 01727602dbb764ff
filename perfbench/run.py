#!/usr/bin/env python3
"""End-to-end benchmark of the HCMPI stack.

Run from the root of a checkout:

  python3 perfbench/run.py --workload sw_dddf --seed 1 --seconds 20 --trace 0

builds the benchmark (perfbench/CMakeLists.txt, Release, into .bench_build/)
and runs one workload. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The exit code is 0 only when every output check passed.

  python3 perfbench/run.py --selfcheck 10 --workload msgrate --seed 1

runs the untraced pass with seeds 1..10 and prints, per end-to-end metric,
the median and the quartile spread against the metric's bound; it exits 1
when a spread other than setup_s's is a third of its bound or more.

See perfbench/README.md for the workloads, metrics and reference figures.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

# A per-layer metric the named workload's traced pass does not produce is
# taken from a short traced probe of the workload that exercises its layer.
# `uts` and `syncbench` run only as such probes (see README.md).
SOURCE = {
    "apps.uts_seq_nodes_per_s": "uts",
    "apps.sw_tile_cells_per_s": "sw_dddf",
    "core.spawn_to_start_us.p50": "msgrate",
    "core.spawn_to_start_us.p99": "msgrate",
    "core.steal_success_pct": "msgrate",
    "hcmpi.submit_ns.p50": "msgrate",
    "hcmpi.request_us.p50": "msgrate",
    "hcmpi.request_us.p99": "msgrate",
    "hcmpi.rtt_overhead_us": "msgrate",
    "hcmpi.polls_per_completion": "msgrate",
    "hcmpi.accum_us.p50": "syncbench",
    "hcmpi.allreduce_us.p50": "syncbench",
    "hcmpi.steal_serve_us.p50": "uts",
    "dddf.put_ns.p50": "sw_dddf",
    "dddf.data_per_remote_get": "sw_dddf",
    "dddf.remote_gets_per_tile": "sw_dddf",
    "dddf.finalize_ms": "sw_dddf",
}
PROBE_SECONDS = 1.5


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def child_env():
    """The environment of every child: no HCMPI_* settings from outside
    (fault injection, transport), temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HCMPI_")}
    tmp = os.path.join(ROOT, BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/: nothing to build")
    log = os.path.join(ROOT, BUILD + ".log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd), log))


def run_pass(workload, seed, seconds, trace, extra=()):
    """Runs one pass of the benchmark binary; returns (result, exit code)."""
    env = child_env()
    session = os.path.join(BUILD, "sock.%d" % os.getpid())
    env["HCMPI_SESSION"] = session  # socket-loopback rendezvous, in the checkout
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(os.path.join(ROOT, session), ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), p.returncode
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, p.returncode))


def metric_block(names, values, units):
    out = {}
    for name in names:
        if name not in values:
            fail("metric %s was not measured" % name)
        out[name] = {"value": values[name], "unit": units[name]}
    return out


def untraced(spec, args):
    res, code = run_pass(args.workload, args.seed, args.seconds, False,
                         args.extra)
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = res["correct"] and code == 0
    return {"correct": ok, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metric_block(names, res["metrics"], units)}


def traced(spec, args):
    w, seed, half = args.workload, args.seed, args.seconds / 2
    trace_out = os.path.join(BUILD, "trace-%s.json" % w)
    base, c1 = run_pass(w, seed, half, False, ["--setups", "10"])
    tr, c2 = run_pass(w, seed, half, True,
                      ["--setups", "10", "--trace-out", trace_out])
    passes = [(base, c1), (tr, c2)]
    values = dict(tr["metrics"])
    source = {k: w for k in values}
    values["latency_p99_us"] = base["metrics"]["latency_p99_us"]
    source["latency_p99_us"] = w + " (untraced)"
    untr, trd = base["metrics"]["work_per_s"], tr["metrics"]["work_per_s"]
    values["trace.overhead_pct"] = 100.0 * (untr - trd) / untr
    source["trace.overhead_pct"] = w
    names = [m["name"] for m in spec["per_layer"]]
    missing = [n for n in names if n not in values]
    for probe in sorted({SOURCE[n] for n in missing if n in SOURCE}):
        res, code = run_pass(probe, seed, PROBE_SECONDS, True,
                             ["--setups", "5", "--warmup", "0.5"])
        passes.append((res, code))
        for n in missing:
            if SOURCE.get(n) == probe and n in res["metrics"]:
                values[n] = res["metrics"][n]
                source[n] = probe + " (probe)"
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("per-layer metrics, workload %s (Chrome trace: %s)" % (w, trace_out))
    for n in names:
        if n in values:
            print("  %-30s %14.6g %-8s from %s" % (n, values[n], units[n], source[n]))
    ok = all(r["correct"] and c == 0 for r, c in passes)
    return {"correct": ok,
            "attempted": sum(r["attempted"] for r, _ in passes),
            "failed": sum(r["failed"] for r, _ in passes),
            "metrics": metric_block(names, values, units)}


def selfcheck(spec, args):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.selfcheck):
        seed = args.seed + i
        res, code = run_pass(args.workload, seed, args.seconds, False)
        runs.append(res)
        vals = " ".join("%s=%.6g" % (n, res["metrics"][n]) for n in bounds)
        print("seed %d: correct=%s failed=%d/%d %s" % (
            seed, res["correct"] and code == 0, res["failed"],
            res["attempted"], vals), flush=True)
    print("%-18s %14s %10s %8s" % ("metric", "median", "IQR/med", "bound"))
    steady = True
    for n, bound in bounds.items():
        v = [r["metrics"][n] for r in runs]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        ok = n == "setup_s" or spread < bound / 3
        steady &= ok
        print("%-18s %14.6g %10.4f %8.3f %s" % (n, med, spread, bound,
                                                 "ok" if ok else "WIDE"))
    return steady


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", type=int, default=0, metavar="RUNS")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="perturb every reference result (the checks must fail)")
    args = ap.parse_args()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.extra = ["--wrong-reference"] if args.wrong_reference else []
    build()
    if args.selfcheck:
        sys.exit(0 if selfcheck(spec, args) else 1)
    out = traced(spec, args) if args.trace else untraced(spec, args)
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
