"""Spans around the public functions of each bseq layer, and their metrics.

``Tracer.install()`` replaces each function in ``TRACED`` by a wrapper in
every ``bseq`` namespace that binds it (``resolution`` binds
``subquotient_presentation`` by name, ``bourbaki`` binds ``compose`` and
so on), so calls through any of those names are recorded.  ``uninstall()``
puts the originals back.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer metrics listed in ``METRICS``.
"""

import importlib
import json
import sys
import time

# layer -> public functions wrapped in the traced run
TRACED = {
    "rings": ("parse_polynomial", "format_polynomial"),
    "modules": ("subquotient_presentation",),
    "groebner": ("groebner", "normal_form", "minimal_generators", "kernel",
                 "syzygies", "intersect", "contains", "equal", "lift",
                 "krull_dim"),
    "koszul": ("E", "koszul_differential", "generate_A", "generate_B"),
    "resolution": ("cohomology_pattern", "minimal_resolution",
                   "fp_dimension", "fp_hilbert_function", "mapping_cone",
                   "exactness_audit", "hilbert_numerator"),
    "bourbaki": ("problem_from_manifest", "verify_condition_a",
                 "verify_condition_b", "nontriviality", "assemble",
                 "cone_resolution", "synthesize_from_phi"),
    "cli": ("main",),
}


def _size(result):
    return len(result.vectors)


# what a span keeps of its call, for the ratio and sum metrics
_NOTES = {
    "groebner.groebner": lambda args, result: len(result),
    "groebner.normal_form": lambda args, result: result.is_zero(),
    "groebner.minimal_generators":
        lambda args, result: (len(args[0].vectors), _size(result)),
    "groebner.kernel": lambda args, result: _size(result),
    "groebner.syzygies": lambda args, result: _size(result),
    "bourbaki.synthesize_from_phi": lambda args, result: result is not None,
}

# the benchmark's per-layer metrics: name -> unit
METRICS = {}
for _layer, _fns in TRACED.items():
    for _fn in _fns:
        METRICS[f"{_layer}.{_fn}.calls"] = "count"
        METRICS[f"{_layer}.{_fn}.s"] = "s"
        METRICS[f"{_layer}.{_fn}.self_s"] = "s"
for _layer in TRACED:
    METRICS[f"{_layer}.errors"] = "count"
METRICS.update({
    "groebner.self_s": "s",
    "groebner.gb_size_sum": "count",
    "groebner.syz_gens_sum": "count",
    "groebner.normal_form.zero_ratio": "ratio",
    "groebner.minimal_generators.kept_ratio": "ratio",
    "bourbaki.synth.accept_ratio": "ratio",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    """Records one span per call of a traced function while installed.

    A span is ``[name, start, end, parent, op, raised, note]``: ``parent``
    is the index of the enclosing span or -1, ``op`` the op id set by the
    runner, ``note`` what ``_NOTES`` keeps of the call.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self):
        homes = {layer: importlib.import_module(f"bseq.{layer}")
                 for layer in TRACED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bseq" or name.startswith("bseq.")]
        for layer, fns in TRACED.items():
            home = homes[layer]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[6] = note(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def write(self, path):
        """Write the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "raised", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (all but the ``trace.*`` ones).

    ``s`` is inclusive time, counted once for nested calls of the same
    function; ``self_s`` subtracts the time of the child spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {m: 0 for m in METRICS if not m.startswith("trace.")}
    counts = {}
    for i, (name, start, end, parent, _op, raised, note) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += dur - child[i]
        if layer == "groebner":
            out["groebner.self_s"] += dur - child[i]
        if raised:
            out[layer + ".errors"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name + ".s"] += dur
        if note is not None:
            counts.setdefault(name, []).append(note)
    gb = counts.get("groebner.groebner", [])
    out["groebner.gb_size_sum"] = sum(gb)
    out["groebner.syz_gens_sum"] = (sum(counts.get("groebner.kernel", []))
                                    + sum(counts.get("groebner.syzygies", [])))
    nf = counts.get("groebner.normal_form", [])
    out["groebner.normal_form.zero_ratio"] = _ratio(sum(nf), len(nf))
    mg = counts.get("groebner.minimal_generators", [])
    out["groebner.minimal_generators.kept_ratio"] = _ratio(
        sum(k for _, k in mg), sum(o for o, _ in mg))
    syn = counts.get("bourbaki.synthesize_from_phi", [])
    out["bourbaki.synth.accept_ratio"] = _ratio(sum(syn), len(syn))
    return out


def _ratio(num, den):
    return num / den if den else 0.0
