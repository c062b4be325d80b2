"""The three benchmark workloads: inputs from a seed, one op, its output.

Every workload is a fixed batch of ops.  ``build(name, seed)`` makes the
batch; an op's ``run()`` does the user-visible work, and ``collect()``
turns its result into the output whose ``digest()`` must equal the entry
of ``reference/<workload>.json`` recorded at the seed commit.  Each op
builds its own problem objects, so no Gröbner basis or problem cache
survives from one op, or one pass, to the next.

- manifests: ``bseq verify`` and ``bseq assemble --out`` on the three
  shipped manifests over Q and F_32003, through ``bseq.cli.main``.
- ladder: ``bseq cohomology`` for E(7,3), E(8,3), E(9,3) and E(9,4), and
  for the two curve coordinate rings presented in ``modules/``.
- synth: seeded random functionals phi pushed through the synthesizer and,
  when accepted, through both conditions, assembly, the cone resolution
  and its Hilbert numerator.

The seed sets the order in which a pass runs the ops.  The synth batch is
a fixed set of random phi, each drawn from its own string seed, so the
reference holds one record per phi and every seed runs the same work.
Batches drawn from the run seed itself were not comparable across seeds:
over 40 seeds their slowest phi spread by 0.76 as (Q3 - Q1) / median,
three times the largest bound a metric may have, and their pass time
by 0.13.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
# assemble --out artefacts and trace spans
OUT_DIR = os.path.join(ROOT, ".bench_out")
OUT_PLACEHOLDER = "<out>"
# presentation files of the ladder, and what their path reads as in output
MODULES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "modules")
MODULE_PLACEHOLDER = "<module>"

WORKLOADS = ("manifests", "ladder", "synth")

MANIFESTS = ("example1", "example2", "example3")
FIELDS = ("q", "p:32003")
LADDER = ("E(7,3)", "E(8,3)", "E(9,3)", "E(9,4)")
# positive-dimensional modules, so that cohomology_pattern reaches
# fp_hilbert_function: S/I of the rational quartic in P^3 (not
# Cohen-Macaulay: one Ext of positive dimension, one of finite length) and
# of the rational normal quintic in P^5
LADDER_MODULES = ("rational_quartic.json", "rational_normal_quintic.json")

# synth cells: (n, shape, t, d, multiplier degree).  n = 5 takes only
# degree-0 multipliers on the E-only shape: with degree 1, or with the top
# summand, single phi there take 3-26 s against a pass of a few seconds,
# so one draw would decide the whole pass (see PREDICTIONS.md).
SYNTH_CELLS = tuple(
    [(n, "E_only", t, 0, deg)
     for n in (3, 4) for t in range(n - 1) for deg in (0, 1)]
    + [(5, "E_only", t, 0, 0) for t in range(4)]
    + [(n, "E_plus_top", 0, d, deg)
       for n in (3, 4) for d in (0, 1) for deg in (0, 1)])
SYNTH_PER_CELL = 6


def _digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def use_source_tree():
    """Import bseq from this checkout's ``src``; fail if it is not there."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bseq
    if os.path.dirname(os.path.dirname(os.path.abspath(bseq.__file__))) != SRC:
        raise ImportError(f"bseq imported from {bseq.__file__}, not {SRC}")


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    """One user-visible operation; ``key`` names its reference entry.

    ``run()`` is the timed work; ``collect(raw)`` turns its result into the
    output that is checked, outside the timed region.
    """

    def __init__(self, key, run, collect=lambda raw: raw):
        self.key = key
        self.run = run
        self.collect = collect


# ---------------------------------------------------------------------------
# manifests and ladder: the command line, in process
# ---------------------------------------------------------------------------

def _cli_op(key, argv, out_dir=None, module=None):
    """``bseq <argv>``; out_dir is the ``--out`` directory, if any, and
    module the presentation file the command reads, if any.

    The runner empties OUT_DIR before every pass, so artefacts an op fails
    to write are missing rather than left over.
    """
    from bseq import cli

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    def collect(raw):
        rc, stdout, stderr = raw
        if module is not None:
            # cohomology echoes its spec, here the file's path
            stdout = stdout.replace(module, MODULE_PLACEHOLDER)
        out = {"rc": rc, "stdout": stdout, "stderr": stderr}
        if out_dir is not None:
            # text-mode assemble prints the --out path
            out["stdout"] = stdout.replace(out_dir, OUT_PLACEHOLDER)
            out["files"] = {}
            if os.path.isdir(out_dir):
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        out["files"][name] = _digest(fh.read())
        return out

    return Op(key, run, collect)


def manifest_ops():
    ops = []
    for field in FIELDS:
        for name in MANIFESTS:
            path = os.path.join(ROOT, "manifests", name + ".json")
            verify = ["--field", field, "verify", path]
            if name != "example1":  # 2 and 3 carry the top summand
                verify.append("--nontriviality")
            ops.append(_cli_op(f"verify {name} {field}", verify))
            out_dir = os.path.join(OUT_DIR,
                                   f"{name}_{field.replace(':', '_')}")
            ops.append(_cli_op(
                f"assemble {name} {field}",
                ["--field", field, "assemble", path, "--out", out_dir],
                out_dir))
    return ops


def ladder_ops():
    ops = [_cli_op(f"cohomology {spec}", ["cohomology", spec])
           for spec in LADDER]
    for name in LADDER_MODULES:
        path = os.path.join(MODULES_DIR, name)
        ops.append(_cli_op(f"cohomology {name}", ["cohomology", path],
                           module=path))
    return ops


# ---------------------------------------------------------------------------
# synth: seeded functionals through the construction side
# ---------------------------------------------------------------------------

def _monomial(rng, n, deg, coeffs):
    from bseq.rings import Polynomial
    exp = [0] * n
    for _ in range(deg):
        exp[rng.randrange(n)] += 1
    return Polynomial.monomial(n, tuple(exp), Fraction(rng.choice(coeffs)))


def _phi_e_only(rng, n, t, deg):
    """A random combination of the A-family on K_{t+1}, or None if zero."""
    from bseq import koszul
    fam = koszul.generate_A(n, t)
    acc = koszul.KoszulVector(n, fam[0].summands, {})
    for a in fam:
        if rng.random() < 0.6:
            continue
        acc = acc + a.mul_poly(_monomial(rng, n, deg, (-2, -1, 1, 2)))
    return None if acc.is_zero() else acc.to_functional()


def _phi_top(rng, n, d, deg_a):
    """A_0 times a monomial plus random B-terms on K_1 ⊕ K_{n-1}(d).

    The B multipliers have the degree that makes both summands agree on
    the shift: deg_b = n - 2 + deg_a - d.
    """
    from bseq import koszul
    from bseq.rings import Polynomial
    fam_a = koszul.generate_A(n, 0)
    fam_b = koszul.generate_B(n)
    deg_b = n - 2 + deg_a - d
    summands = [koszul.Summand(1, 0, True), koszul.Summand(n - 1, d, True)]
    coeffs = {}
    amult = _monomial(rng, n, deg_a, (-2, -1, 1, 2))
    for (_, I), q in fam_a[0].mul_poly(amult).coeffs.items():
        coeffs[(0, I)] = coeffs.get((0, I), Polynomial.zero(n)) + q
    used = False
    for b in fam_b:
        if rng.random() < 0.5:
            continue
        used = True
        bmult = _monomial(rng, n, deg_b, (-1, 1))
        for (_, I), q in b.mul_poly(bmult).coeffs.items():
            coeffs[(1, I)] = coeffs.get((1, I), Polynomial.zero(n)) + q
    if not used:
        return None
    vec = koszul.KoszulVector(n, summands, coeffs)
    return None if vec.is_zero() else vec.to_functional()


def cell_key(cell):
    n, shape, t, d, deg = cell
    return f"n{n}-{shape}-t{t}-d{d}-deg{deg}"


def synth_phi(cell, index):
    """Entry ``index`` of ``cell``: the first nonzero phi of its stream."""
    n, shape, t, d, deg = cell
    rng = random.Random(f"bseq-synth/{cell_key(cell)}/{index}")
    while True:
        if shape == "E_only":
            phi = _phi_e_only(rng, n, t, deg)
        else:
            phi = _phi_top(rng, n, d, deg)
        if phi is not None:
            return phi


def synth_record(n, t, shape, phi, d):
    """Synthesize from phi and, if accepted, assemble; the canonical record."""
    from bseq import bourbaki, resolution
    p = bourbaki.synthesize_from_phi(n, t, shape, phi, d=d)
    if p is None:
        return {"accepted": False}
    rep_a = bourbaki.verify_condition_a(p)
    rep_b = bourbaki.verify_condition_b(p)
    seq = bourbaki.assemble(p)
    cone = bourbaki.cone_resolution(p, seq)
    q = resolution.hilbert_numerator(cone)
    return {
        "accepted": True,
        "betas": len(p.betas),
        "beta_minimal_count": p.provenance["beta_minimal_count"],
        "F": list(p.F.twists),
        "G": list(p.G.twists),
        "condition_a": [rep_a.ok, rep_a.witness],
        "condition_b": [rep_b.ok, rep_b.witness],
        "audit": seq.audit,
        "c": seq.c,
        "ideal": seq.ideal_strings(),
        "cone_ranks": [m.rank for m in cone.modules],
        "q": str(q),
    }


def _synth_op(cell, index, phi):
    n, shape, t, d, _ = cell

    def run():
        return synth_record(n, t, shape, phi, d)

    return Op(f"{cell_key(cell)}/{index}", run)


def synth_ops():
    return [_synth_op(cell, index, synth_phi(cell, index))
            for cell in SYNTH_CELLS for index in range(SYNTH_PER_CELL)]


# ---------------------------------------------------------------------------

def build(workload, seed):
    """The workload's ops for this seed, in the order a pass runs them."""
    if workload == "manifests":
        ops = manifest_ops()
    elif workload == "ladder":
        ops = ladder_ops()
    elif workload == "synth":
        ops = synth_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def digest(output):
    """The reference form of an op's output: SHA-256 of canonical JSON."""
    return _digest(json.dumps(output, sort_keys=True, separators=(",", ":")))
