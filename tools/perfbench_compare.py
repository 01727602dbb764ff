#!/usr/bin/env python3
"""Runs perfbench and the runtime micro-benchmarks in two checkouts,
alternately, and compares them.

  python3 tools/perfbench_compare.py --base ../base --head . --out perf.jsonl

Each checkout needs bench_runtime_micro built in build-perf/ first:

  cmake -S <checkout> -B <checkout>/build-perf -DCMAKE_BUILD_TYPE=Release
  cmake --build <checkout>/build-perf --target bench_runtime_micro

For pair i = 1, 2, runs the micro cases (BM_SpawnBurst/one and /half,
BM_UtsWorkStealing, BM_SmpiPingPong/0; 3 repetitions) in the base checkout,
then in the head checkout. Exits 1 when
  - a case's median wall time per iteration is worse than base by more than
    35% in both pairs;
  - in either head run, BM_SpawnBurst/half's rate is more than 10% below
    /one's;
  - a case the base has is missing from the head, or a head case reports
    an error.
A case the base lacks is reported but not compared.

Then, for each gated perfbench workload (sw_dddf, msgrate) and pair i, runs
`python3 perfbench/run.py --workload W --seed i --seconds 10` in the base
checkout, then in the head checkout. Exits 1 when any run fails its checks,
or when an end-to-end metric of BENCHMARK.json (in the head checkout) is
worse than base by more than its bound in both pairs of a workload; 0
otherwise. Every run's result goes to --out as one JSON line {workload,
seed, side, exit, result}. Two 10 s pairs catch a gross regression in CI
time; a gain claim needs ten 20 s pairs.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("sw_dddf", "msgrate")
PAIRS = 2
SECONDS = 10

MICRO = os.path.join("build-perf", "bench", "bench_runtime_micro")
MICRO_FILTER = (
    "^(BM_SpawnBurst/(one|half)|BM_UtsWorkStealing|BM_SmpiPingPong/0)(/|$)")
MICRO_BOUND = 0.35
STEAL_BOUND = 0.10
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run(root, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result


def run_micro(root):
    """Runs the micro cases; returns the exit code and, per case, its median
    real time per iteration in ns, or None when the case reported an error.
    Google Benchmark prints nothing when the filter matches no case."""
    exe = os.path.join(root, MICRO)
    if not os.path.isfile(exe):
        print("%s: not built (see this script's usage)" % exe)
        return 1, {}
    p = subprocess.run([exe, "--benchmark_filter=" + MICRO_FILTER,
                        "--benchmark_repetitions=3",
                        "--benchmark_report_aggregates_only=true",
                        "--benchmark_format=json"],
                       stdout=subprocess.PIPE, text=True)
    try:
        runs = json.loads(p.stdout)["benchmarks"] if p.stdout.strip() else []
    except (KeyError, ValueError):
        return p.returncode or 1, {}
    cases = {}
    for b in runs:
        # A case that times by wall clock carries a /real_time suffix.
        name = b["run_name"].replace("/real_time", "")
        if b.get("error_occurred"):
            cases[name] = None
        elif b.get("aggregate_name") == "median":
            cases[name] = b["real_time"] * TIME_UNIT_NS[b["time_unit"]]
    return p.returncode, cases


def change(base, head):
    return (head - base) / base if base else 0.0


def compare_micro(base, head, out):
    failed = False
    pairs = []
    for i in range(1, PAIRS + 1):
        pair = {}
        for side, root in (("base", base), ("head", head)):
            code, cases = run_micro(root)
            out.write(json.dumps({"workload": "bench_runtime_micro",
                                  "seed": i, "side": side, "exit": code,
                                  "result": cases}) + "\n")
            out.flush()
            if code != 0:
                print("bench_runtime_micro pair %d: %s run exited %d"
                      % (i, side, code))
                failed = True
            pair[side] = cases
        pairs.append(pair)
        head_cases = pair["head"]
        one = head_cases.get("BM_SpawnBurst/one")
        half = head_cases.get("BM_SpawnBurst/half")
        if one and half:
            # Equal tasks per iteration: the rate ratio is the time ratio.
            ratio = one / half
            slow = ratio < 1 - STEAL_BOUND
            failed |= slow
            print("micro    BM_SpawnBurst/half rate vs /one, head pair %d: "
                  "%+6.1f%%%s" % (i, 100 * (ratio - 1),
                                  "  REGRESSED" if slow else ""))
    for n in sorted({n for p in pairs for side in p.values() for n in side}):
        bases = [p["base"].get(n) for p in pairs]
        heads = [p["head"].get(n) for p in pairs]
        in_base = any(n in p["base"] for p in pairs)
        if any(n in p["head"] and h is None for p, h in zip(pairs, heads)):
            print("micro    %-20s head reported an error" % n)
            failed = True
        elif in_base and None in heads:
            print("micro    %-20s missing from head" % n)
            failed = True
        elif not in_base:
            print("micro    %-20s not in base, not compared" % n)
        elif None in bases:
            print("micro    %-20s base reported an error, not compared" % n)
        else:
            changes = [change(b, h) for b, h in zip(bases, heads)]
            regressed = all(c > MICRO_BOUND for c in changes)
            failed |= regressed
            print("micro    %-20s bound %3.0f%%  head vs base:%s%s" % (
                n, 100 * MICRO_BOUND,
                "".join(" %+6.1f%%" % (100 * c) for c in changes),
                "  REGRESSED" if regressed else ""))
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", default=".")
    ap.add_argument("--out", default="perfbench-compare.jsonl")
    args = ap.parse_args()
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    with open(args.out, "w") as out:
        failed = compare_micro(args.base, args.head, out)
        for w in WORKLOADS:
            pairs = []
            for seed in range(1, PAIRS + 1):
                pair = {}
                for side, root in (("base", args.base), ("head", args.head)):
                    code, res = run(root, w, seed)
                    out.write(json.dumps({"workload": w, "seed": seed,
                                          "side": side, "exit": code,
                                          "result": res}) + "\n")
                    out.flush()
                    if code != 0 or res is None or not res["correct"]:
                        print("%s seed %d: %s run failed its checks (exit %d)"
                              % (w, seed, side, code))
                        failed = True
                    else:
                        pair[side] = res["metrics"]
                if len(pair) == 2:
                    pairs.append(pair)
            if len(pairs) < PAIRS:
                continue
            for m in metrics:
                n = m["name"]
                sign = -1 if m["better"] == "higher" else 1
                changes = [change(p["base"][n]["value"], p["head"][n]["value"])
                           for p in pairs]
                regressed = all(sign * c > m["bound"] for c in changes)
                failed |= regressed
                print("%-8s %-16s bound %3.0f%%  head vs base:%s%s" % (
                    w, n, 100 * m["bound"],
                    "".join(" %+6.1f%%" % (100 * c) for c in changes),
                    "  REGRESSED" if regressed else ""))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
