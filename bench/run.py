"""Benchmark of bseq: one workload, one seed, a fixed time; one JSON line.

    python3 bench/run.py --workload manifests|ladder|synth --seed N \\
        --seconds S --trace 0|1

One process, one op at a time, a closed loop with one client.  The run
repeats passes over the workload's batch (see ``workloads.py``) while
another pass fits in ``--seconds``, checks every op's output against
``reference/<workload>.json``, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing: ``setup_s`` (median over fresh interpreters of importing bseq and
building the inputs), ``pass_s`` (one pass), ``op_p50_s`` and ``op_max_s``
(median and slowest op latency of a pass), each the median over passes,
and ``peak_rss_mb``.  The four times are CPU times in reference seconds:
each latency is scaled by the machine's speed at that moment, measured
by short rounds of ``calibrate.py`` every 0.1 s of the run (see there).
Each op's median raw and scaled latency, and the raw pass time, go to
stderr.  The share of failed ops is ``failed / attempted``.
With ``--trace 1`` every op of a pass runs untraced and then traced, back
to back; the metrics are the per-layer ones of ``tracer.METRICS`` from the
traced passes, in raw wall seconds, plus the tracing overhead against the
untraced runs of the same ops.  The spans of the last traced pass are
written to ``.bench_out/spans-<workload>.jsonl``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402  (after the path set-up above)
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
# calibration rounds run after each set-up, back to back
SETUP_ROUNDS = 10
# an op's latency is scaled by the rounds in a window this wide, centred
# on the op, or as wide as the op if it took longer
WINDOW_S = 1.0

# runs in a fresh interpreter: import bseq, build the inputs, then
# calibration rounds; prints the set-up's CPU time and the rounds' ones
_SETUP_CODE = """\
import json, sys, time
start = time.process_time()
sys.path.insert(0, {bench!r})
import workloads
workloads.use_source_tree()
workloads.build({workload!r}, {seed!r})
setup = time.process_time() - start
import calibrate
print(json.dumps([setup, [calibrate.seconds() for _ in range({rounds})]]))
"""


def setup_seconds(workload, seed):
    """Set-up time in reference seconds.

    The median CPU time of ``SETUP_REPEATS`` set-ups, each in a fresh
    interpreter, scaled by the mean time of the rounds run after them all.
    """
    code = _SETUP_CODE.format(bench=BENCH, workload=workload, seed=seed,
                              rounds=SETUP_ROUNDS)
    times, rounds = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code],
                              cwd=workloads.ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        setup, cpu = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(setup)
        rounds += cpu
    return (statistics.median(times) * calibrate.REF_S
            / statistics.mean(rounds))


class Pass:
    """One pass over the ops.

    ``spans`` holds each op's (start, end) perf_counter times,
    ``latencies`` its CPU time without the calibration rounds that ran
    inside it, ``scaled`` that latency in reference seconds (only for
    passes run under a ``calibrate.Sampler``).
    """

    def __init__(self):
        self.spans = []
        self.latencies = []
        self.scaled = []
        self.failed = 0

    @property
    def cpu(self):
        return sum(self.latencies)

    @property
    def wall(self):
        return sum(end - start for start, end in self.spans)

    def add(self, start, end, cpu, failed, rounds=()):
        self.spans.append((start, end))
        self.latencies.append(cpu - sum(rounds))
        self.failed += failed


def run_op(op, reference):
    """Run one op; return its start and end, its CPU time, and whether
    it failed.

    The op is timed, then its output is checked against the reference.
    """
    if os.path.isdir(workloads.OUT_DIR):
        shutil.rmtree(workloads.OUT_DIR)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        raw = op.run()
    except Exception:
        end, cpu = time.perf_counter(), time.process_time() - cpu
        print(f"op {op.key!r} raised:", file=sys.stderr)
        traceback.print_exc()
        return start, end, cpu, True
    end, cpu = time.perf_counter(), time.process_time() - cpu
    if workloads.digest(op.collect(raw)) != reference.get(op.key):
        print(f"op {op.key!r}: output differs from the reference",
              file=sys.stderr)
        return start, end, cpu, True
    return start, end, cpu, False


def run_pass(ops, reference, sampler=None):
    """Run every op once; ``sampler`` is running if given."""
    p = Pass()
    for op in ops:
        start, end, cpu, failed = run_op(op, reference)
        rounds = sampler.between(start, end) if sampler else ()
        p.add(start, end, cpu, failed, rounds)
    return p


def scale(passes, sampler):
    """Fill in each op's latency in reference seconds.

    The scale is ``REF_S`` over the mean time of the rounds that began in
    the op's window: ``WINDOW_S`` wide, centred on the op, widened to the
    op's own span if that is longer.
    """
    for p in passes:
        for (start, end), latency in zip(p.spans, p.latencies):
            half = max(end - start, WINDOW_S) / 2
            mid = (start + end) / 2
            rounds = sampler.between(mid - half, mid + half)
            while not rounds:
                half *= 2
                rounds = sampler.between(mid - half, mid + half)
            p.scaled.append(latency * calibrate.REF_S
                            / statistics.mean(rounds))


def run_traced_pass(ops, reference, trace):
    """Run every op untraced and then traced, back to back.

    Returns the untraced and the traced pass.  Pairing each op with itself
    keeps the machine's slow drift out of the overhead.
    """
    plain, traced = Pass(), Pass()
    for i, op in enumerate(ops):
        plain.add(*run_op(op, reference))
        trace.op = i
        trace.install()
        try:
            traced.add(*run_op(op, reference))
        finally:
            trace.uninstall()
    return plain, traced


def _fits(started, last, seconds):
    return time.perf_counter() - started + last <= seconds


def untraced_run(ops, reference, seconds):
    sampler = calibrate.Sampler()
    started = time.perf_counter()
    passes, last = [], 0.0
    sampler.start()
    try:
        while not passes or _fits(started, last, seconds):
            begun = time.perf_counter()
            passes.append(run_pass(ops, reference, sampler))
            last = time.perf_counter() - begun
    finally:
        sampler.stop()
    scale(passes, sampler)
    for i, op in enumerate(ops):
        raw = statistics.median(p.latencies[i] for p in passes)
        scaled = statistics.median(p.scaled[i] for p in passes)
        print(f"op {op.key:40s} {raw:10.4f} s {scaled:10.4f} ref s",
              file=sys.stderr)
    rounds = [cpu for _, cpu in sampler.rounds]
    print(f"raw pass {statistics.median(p.cpu for p in passes):.4f} s, "
          f"{len(rounds)} rounds, median {statistics.median(rounds):.5f} s",
          file=sys.stderr)
    metrics = {
        "pass_s": statistics.median(sum(p.scaled) for p in passes),
        "op_p50_s": statistics.median(
            statistics.median(p.scaled) for p in passes),
        "op_max_s": statistics.median(max(p.scaled) for p in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, metrics


def traced_run(ops, reference, seconds, spans_path):
    started = time.perf_counter()
    plain, traced, per_pass = [], [], []
    while not traced or _fits(started, plain[-1].wall + traced[-1].wall,
                              seconds):
        trace = tracer.Tracer()
        untraced_pass, traced_pass = run_traced_pass(ops, reference, trace)
        plain.append(untraced_pass)
        traced.append(traced_pass)
        per_pass.append(tracer.layer_metrics(trace.spans))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    trace.write(spans_path)
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.spans"] = len(trace.spans)
    metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for p, t in zip(plain, traced))
    return plain + traced, metrics


END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s",
              "op_max_s": "s", "peak_rss_mb": "MB"}


def measure(workload, seed, seconds, trace, ops=None):
    """One run; returns the result object printed as the last line.

    ``ops`` replaces the workload's batch (the self-test runs one op).
    """
    reference = workloads.load_reference(workload)
    if trace:
        units = tracer.METRICS
    else:
        units = END_TO_END
        setup = setup_seconds(workload, seed)
    if ops is None:
        ops = workloads.build(workload, seed)
    if trace:
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{workload}.jsonl")
        passes, values = traced_run(ops, reference, seconds, spans_path)
    else:
        passes, values = untraced_run(ops, reference, seconds)
        values["setup_s"] = setup
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads.use_source_tree()
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, OSError) as e:
        print(f"cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{result['attempted']} ops, {result['failed']} failed",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
