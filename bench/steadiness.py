"""Repeat the benchmark with distinct seeds and report how well it repeats.

    python3 bench/steadiness.py [workload ...]

Makes two sets of runs, one after the other.  In each set, every workload
(all of them by default) runs ten times, with seeds 1 to 10 and the
``run_seconds`` of BENCHMARK.json, one run at a time.  For every set and
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median, and
flags a spread above a tenth, above a third of the metric's bound, or
above the bound.  It then compares the medians of the two sets and flags
a second median that is worse than the first by more than the bound.
Prints markdown tables on stdout; the raw results go to stderr as JSON.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_flags(spread, bound):
    flags = []
    if spread > 0.1:
        flags.append("> 1/10")
    if spread > bound / 3:
        flags.append("> bound/3")
    if spread > bound:
        flags.append("> bound")
    return " ".join(flags)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    medians = {}
    for set_no in range(1, SETS + 1):
        print(f"\n### Set {set_no}\n")
        print("| workload | metric | median | Q1 | Q3 | spread | bound "
              "| flag |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for workload in names:
            results = [run_once(workload, seed, spec["run_seconds"])
                       for seed in SEEDS]
            print(json.dumps({"set": set_no, "workload": workload,
                              "results": results}), file=sys.stderr)
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in results]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                medians[set_no, workload, metric] = med
                print(f"| {workload} | {metric} | {med:.4g} | {q1:.4g} | "
                      f"{q3:.4g} | {spread:.3f} | {bound} | "
                      f"{spread_flags(spread, bound)} |")
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"| {workload} | failed / attempted | {failed} / "
                  f"{attempted} | | | | | |")
            sys.stdout.flush()

    print(f"\n### Set {SETS} against set 1\n")
    print("| workload | metric | set 1 median | last median | change "
          "| bound | flag |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in names:
        for metric, bound in bounds.items():
            first = medians[1, workload, metric]
            last = medians[SETS, workload, metric]
            change = last / first - 1
            flag = "worse by > bound" if change > bound else ""
            print(f"| {workload} | {metric} | {first:.4g} | {last:.4g} | "
                  f"{change:+.3f} | {bound} | {flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
