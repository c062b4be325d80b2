"""Self-test of the benchmark, one op per workload.

    python3 bench/selftest.py

Checks, for each workload, that
- BENCHMARK.json names exactly the metrics the runner emits, with their units;
- an untraced and a traced run of one op emit every metric and pass;
- the per-layer counts of two traced runs of that op are equal;
- the op counts as failed against a corrupted reference entry.
Exits 1 on the first failed check.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (after the path set-up above)
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "ratio")


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    workloads.use_source_tree()
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared_e2e == run.END_TO_END,
          "BENCHMARK.json end_to_end matches the runner")
    check(declared_layer == tracer.METRICS,
          "BENCHMARK.json per_layer matches the tracer")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")

    for name in workloads.WORKLOADS:
        op = min(workloads.build(name, 1), key=lambda o: o.key)
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            result = run.measure(name, 1, 0, trace, ops=[op])
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            check(emitted == declared and result["correct"]
                  and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name} trace={trace}: one op ({op.key}) emits every "
                  f"metric with its unit and passes")
            if trace:
                again = run.measure(name, 1, 0, trace, ops=[op])
                counts = {k: m["value"] for k, m in result["metrics"].items()
                          if m["unit"] in COUNT_UNITS}
                counts_again = {k: again["metrics"][k]["value"]
                                for k in counts}
                check(counts == counts_again,
                      f"{name}: per-layer counts repeat exactly")

        reference = dict(workloads.load_reference(name))
        reference[op.key] = "0" * 64
        outcome = run.run_pass([op], reference)
        check(outcome.failed == 1,
              f"{name}: a corrupted reference entry fails the op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
