#!/usr/bin/env python3
"""Runs perfbench in two checkouts, alternately, and compares them.

  python3 tools/perfbench_compare.py --base ../base --head . --out perf.jsonl

For each gated workload (sw_dddf, msgrate) and pair i = 1, 2, runs
`python3 perfbench/run.py --workload W --seed i --seconds 10` in the base
checkout, then in the head checkout, and appends each run's result line to
--out as one JSON object {workload, seed, side, exit, result}. Exits 1 when
any run fails its checks, or when an end-to-end metric of BENCHMARK.json (in
the head checkout) is worse than base by more than its bound in both pairs
of a workload; 0 otherwise. Two 10 s pairs catch a gross regression in CI
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


def change(base, head):
    return (head - base) / base if base else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", default=".")
    ap.add_argument("--out", default="perfbench-compare.jsonl")
    args = ap.parse_args()
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    failed = False
    with open(args.out, "w") as out:
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
