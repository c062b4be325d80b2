"""Command-line front end.

Subcommands: verify and assemble run b-sequence checks from JSON manifests;
koszul prints differentials, syzygy-module presentations and the generator
families; cohomology reports Ext patterns; hilbert and numcheck expose the
Hilbert-series tooling.  Exit codes: 0 pass, 1 mathematical failure,
2 input error, 3 internal error (a failed certificate, or a complex the
code built itself that fails its own check).
"""

import argparse
import functools
import json
import os
import re
import sys

from .rings import ParseError, binomial, field_from_name, parse_polynomial
from .modules import FPModule, GradedFreeModule, Vec
from . import bourbaki, groebner, koszul, resolution
from .bourbaki import _is_int_list, _is_string_list, _nvars, _required

__all__ = ["main"]


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"bad JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


# JSON strings as ``json.dumps`` writes them with ``ensure_ascii``
_quote = json.encoder.encode_basestring_ascii
_SCALARS = {True: "true", False: "false", None: "null"}


def _dumps(obj, sort_keys=False):
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)``, byte for byte,
    for the dicts (string keys), lists, strings, ints, bools and None that
    the reports hold.  The standard library's C encoder serves only
    ``indent=None``, and its pure-Python indenting path took most of the
    time of writing a report."""
    out = []
    _write(obj, out, "\n", sort_keys)
    return "".join(out)


def _write(obj, out, newline, sort_keys):
    """Append ``obj``'s JSON to ``out``; ``newline`` is the line break
    with the indent of ``obj``'s own line."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner, sort_keys)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all(isinstance(value, str) for value in obj):
            # a map's entries: one join, no call per entry
            out.append("[" + inner + ("," + inner).join(map(_quote, obj))
                       + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner, sort_keys)
            sep = "," + inner
        out.append(newline + "]")
    elif obj is None or isinstance(obj, bool):
        out.append(_SCALARS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(_dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# verify / assemble
# ---------------------------------------------------------------------------

def _load_problem(args):
    path = args.manifest
    data = _load_json(path)
    field = field_from_name(args.field)
    base = os.path.dirname(os.path.abspath(path))
    try:
        return bourbaki.problem_from_manifest(data, field=field, base_dir=base)
    except bourbaki.InvalidProblem:
        raise
    except ValueError as e:  # bad input, named by its file
        raise InputError(f"{path}: {e}") from e


def cmd_verify(args):
    p = _load_problem(args)
    rep_a = bourbaki.verify_condition_a(p)
    rep_b = bourbaki.verify_condition_b(p)
    rep_rank = bourbaki.rank_conditions(p)
    payload = {}
    lines = [
        f"condition (a): {'pass' if rep_a.ok else 'FAIL'}"
        + (f"  [{rep_a.witness}]" if rep_a.witness else ""),
        f"condition (b): {'pass' if rep_b.ok else 'FAIL'}"
        + (f"  [{rep_b.witness}]" if rep_b.witness else ""),
        f"rank condition: {'pass' if rep_rank.ok else 'FAIL'}"
        f"  ({rep_rank.details['left']} vs {rep_rank.details['right']})",
    ]
    ok = rep_a.ok and rep_b.ok and rep_rank.ok
    if args.verbose:
        lines.append(f"  kernel generators: {rep_a.details['ker_phi_gens']}, "
                     f"family+presentation generators: {rep_a.details['rhs_gens']}")
        lines.append(f"  intersection generators: "
                     f"{rep_b.details['intersection_gens']}, "
                     f"kernel of the family map: {rep_b.details['ker_beta_gens']}")
    if args.nontriviality:
        nt = bourbaki.nontriviality(p)
        payload["nontriviality"] = nt.to_dict()
        lines.append(
            f"non-triviality: {'non-trivial' if nt.verdict else 'TRIVIAL'}"
            f"  (mixed-support betas: {nt.mixed})")
        ok = ok and nt.verdict
    payload["pass"] = ok
    lines.append("verdict: " + ("pass" if ok else "fail"))
    if args.format == "json":
        # text prints neither: (b)'s intersection count is made when read
        payload.update(condition_a=rep_a.to_dict(),
                       condition_b=rep_b.to_dict(),
                       rank_condition=rep_rank.to_dict(),
                       manifest=bourbaki.problem_to_manifest(p))
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_assemble(args):
    p = _load_problem(args)
    try:
        seq = bourbaki.assemble(p)
    except bourbaki.AssemblyError as e:
        print(f"assembly failed: {e}", file=sys.stderr)
        return 1
    cone = bourbaki.cone_resolution(p, seq)
    q = resolution.hilbert_numerator(cone)
    vanishing = resolution.q_vanishing(q, 4)
    codim = groebner.krull_dim(seq.ideal)
    codim = p.n - codim if codim >= 0 else None
    betti = resolution.BettiTable.from_complex(cone)
    ideal_lines = seq.ideal_strings()
    payload = {
        "audit": seq.audit,
        "ideal": ideal_lines,
        "shift_c": seq.c,
        "cone_ranks": [m.rank for m in cone.modules],
        "betti": sorted([[i, j, v] for (i, j), v in betti.entries.items()]),
        "q": str(q),
        "q_vanishing": vanishing,
        "codim_krull": codim,
    }
    lines = [
        f"assembled length-{seq.length} sequence; I shifted by c = {seq.c}",
    ]
    if args.verbose:
        lines += [f"  audit {k}: {v}" for k, v in sorted(seq.audit.items())]
    lines += [
        "ideal (reduced GB): " + ", ".join(ideal_lines),
        f"Q(t) = {q}",
        f"Q vanishing at 1 (orders 0..3): {vanishing}",
        f"codim by Krull dimension: {codim}",
    ]
    if p.shape == "E_plus_top":
        rep = resolution.numerical_conditions(
            p.n, p.t, None, p.d, list(p.F.twists), list(p.G.twists),
            solve_c=True)
        payload["numerical_report"] = rep.to_dict()
        lines.append(
            f"numerical conditions: inferred c = {rep.inferred_c}; "
            f"all hold: {rep.all_hold()}")
    if args.format == "json" or args.out:  # text never prints it
        payload["manifest"] = bourbaki.problem_to_manifest(p)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        cone_json = {"ranks": payload["cone_ranks"],
                     "maps": [bourbaki.map_to_json(d) for d in cone.maps]}
        files = [
            ("report.json", _dumps(payload, sort_keys=True)),
            ("ideal.txt", "\n".join(ideal_lines) + "\n"),
            # the manifest has formatted f already
            ("f.json", _dumps(payload["manifest"]["f"])),
            ("g.json", _dumps(bourbaki.map_to_json(p.beta_map))),
            ("phi.json", _dumps(bourbaki.map_to_json(p.phi))),
            ("cone.json", _dumps(cone_json)),
            ("q.txt", str(q) + "\n"),
        ]
        for name, text in files:
            with open(os.path.join(args.out, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        lines.append(f"wrote report.json, ideal.txt, maps, cone.json and "
                     f"q.txt to {args.out}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# koszul printers
# ---------------------------------------------------------------------------

# Koszul data whose rank or family size C(n, k) exceeds this is refused
# before any work: `koszul E --n 14 --s 7` (rank 3432) already takes seconds
# to print, and C(n, n/2) grows like 2^n.
KOSZUL_RANK_LIMIT = 2000
# A presentation file whose twist or relation list is longer than this is
# refused before any relation is parsed: the rank and the relation count
# set the size of every Gröbner run of ``cohomology``.
MODULE_SIZE_LIMIT = 2000


def _check_koszul_size(n, *ks):
    """Refuse a request that builds a Koszul rank or family C(n, k) above
    ``KOSZUL_RANK_LIMIT``.  C(n, k) >= n for 0 < k < n, so a large n is
    refused without computing the binomial."""
    for k in ks:
        if 0 < k < n and (n > KOSZUL_RANK_LIMIT
                          or binomial(n, k) > KOSZUL_RANK_LIMIT):
            raise InputError(f"Koszul rank C({n},{k}) exceeds the limit "
                             f"of {KOSZUL_RANK_LIMIT}")


def cmd_koszul(args):
    field = field_from_name(args.field)
    n = args.n
    what = args.what
    lines = []
    payload = {"n": n, "what": what}
    if what == "d":
        if args.s is None:
            raise InputError("koszul d needs --s")
        if not 1 <= args.s <= n:
            raise InputError(f"s out of range 1..{n}")
        _check_koszul_size(n, args.s - 1, args.s)
        dmap = koszul.koszul_differential(n, args.s, 0, field)
        entries = bourbaki.map_to_json(dmap)["entries"]
        payload["matrix"] = [entries[k:k + dmap.source.rank] for k in
                             range(0, len(entries), dmap.source.rank)]
        payload["source_twists"] = list(dmap.source.twists)
        payload["target_twists"] = list(dmap.target.twists)
        lines += ["[" + ", ".join(row) + "]" for row in payload["matrix"]]
    elif what == "E":
        if args.s is None:
            raise InputError("koszul E needs --s")
        if not 1 <= args.s <= n:
            raise InputError(f"s out of range 1..{n}")
        _check_koszul_size(n, args.s - 1, args.s, args.s + 1)
        mod = koszul.E(n, args.s, args.shift, field)
        payload["rank"] = mod.rank
        payload["ambient_twists"] = list(mod.ambient.twists)
        payload["generators"] = [str(v) for v in mod.gens.vectors]
        lines.append(f"E({n},{args.s},{args.shift}): rank {mod.rank}, "
                     f"ambient twists {list(mod.ambient.twists)}")
        lines += [f"  {v}" for v in payload["generators"]]
    elif what == "A":
        if args.t is None:
            raise InputError("koszul A needs --t")
        if not 0 <= args.t <= n - 1:
            raise InputError(f"t out of range 0..{n - 1}")
        _check_koszul_size(n, args.t, args.t + 1)
        fam = koszul.generate_A(n, args.t, field)
        payload["family"] = [koszul.format_koszul_vector(v) for v in fam]
        for i, v in enumerate(fam):
            lines.append(f"A{i + 1} = {koszul.format_koszul_vector(v)}")
    elif what == "B":
        _check_koszul_size(n, 2)
        fam = koszul.generate_B(n, field)
        labels = koszul.b_index(n)
        payload["family"] = [koszul.format_koszul_vector(v) for v in fam]
        for (i, j), v in zip(labels, fam):
            lines.append(f"B{i}{j} = {koszul.format_koszul_vector(v)}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

_E_SPEC = re.compile(r"^E\((\d+),(\d+)(?:,(-?\d+))?\)$")


def _pattern_from_spec(spec, field):
    """The Ext pattern of E(n,s[,shift]) terms joined by '+', read off
    the codifferentials of their Koszul tails, or of a JSON presentation
    file, read off its minimal resolution."""
    spec = spec.strip()
    if os.path.exists(spec):
        data = _load_json(spec)
        where = f"{spec}:"
        n = _nvars(data, where)
        twists = _required(data, "twists", where)
        if not _is_int_list(twists):
            raise InputError(f"{spec}: 'twists' must be a list of integers")
        relations = _required(data, "relations", where)
        if not isinstance(relations, list) or not all(
                map(_is_string_list, relations)):
            raise InputError(
                f"{spec}: 'relations' must be a list of lists of strings")
        for what, items in (("twists", twists), ("relations", relations)):
            if len(items) > MODULE_SIZE_LIMIT:
                raise InputError(f"{spec}: {len(items)} {what} exceed the "
                                 f"limit of {MODULE_SIZE_LIMIT}")
        rels = []
        for i, coords in enumerate(relations):
            if len(coords) != len(twists):
                raise InputError(f"{spec}: relation {i} has {len(coords)} "
                                 f"coordinates for {len(twists)} twists")
            rels.append(Vec.from_polys(
                n, [parse_polynomial(s, n, field) for s in coords], field))
        return resolution.cohomology_pattern(
            FPModule(GradedFreeModule(n, twists, field=field), rels))
    parts = [s.strip() for s in spec.split("+")]
    summands = []
    for part in parts:
        m = _E_SPEC.match(part)
        if not m:
            raise InputError(f"cannot parse module spec {part!r}")
        n, s = int(m.group(1)), int(m.group(2))
        shift = int(m.group(3)) if m.group(3) else 0
        if summands and n != summands[0][0]:
            raise InputError("all summands must share n")
        if not 1 <= s <= n:
            raise InputError(f"E out of range: {part}")
        # the tail builds K_s .. K_n; K_{s-1} is the ambient of E(n,s)
        _check_koszul_size(n, *range(s - 1, n + 1))
        summands.append((n, s, shift))
    return resolution.ext_pattern(koszul.dual_tail(
        n, [koszul.Summand(s, shift) for _, s, shift in summands], field))


def cmd_cohomology(args):
    field = field_from_name(args.field)
    pattern = _pattern_from_spec(args.spec, field)
    payload = {"spec": args.spec, "ext": {}}
    lines = [f"Ext^j(M, S(-n)) pattern for {args.spec}:"]
    for j in sorted(pattern):
        e = pattern[j]
        if not e.dims:
            continue
        payload["ext"][str(j)] = {
            "dims": {str(k): v for k, v in sorted(e.dims.items())},
            "finite_length": e.finite_length,
        }
        dims = ", ".join(f"deg {k}: {v}" for k, v in sorted(e.dims.items()))
        lines.append(f"  j={j}: {dims}"
                     f"  (finite length: {e.finite_length})")
    nonzero = [j for j, e in pattern.items() if e.dims]
    if not nonzero:
        lines.append("  all higher Ext vanish (free or maximal depth)")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# hilbert / numcheck
# ---------------------------------------------------------------------------

# Hilbert windows above this are refused before any work: the printout
# grows with the window (`--window 200000` prints 3.5 MB for
# (x1,x2,x3)(x4,x5,x6)).
HILBERT_WINDOW_LIMIT = 1000


def cmd_hilbert(args):
    if not 0 <= args.window <= HILBERT_WINDOW_LIMIT:
        raise InputError(f"window {args.window} out of range "
                         f"0..{HILBERT_WINDOW_LIMIT}")
    field = field_from_name(args.field)
    data = _load_json(args.ideal)
    n = _nvars(data, f"{args.ideal}:")
    amb = GradedFreeModule(n, [0], field=field)
    generators = _required(data, "generators", f"{args.ideal}:")
    if not _is_string_list(generators):
        raise InputError(f"{args.ideal}: 'generators' must be a list of strings")
    gens = [Vec.from_polys(n, [parse_polynomial(s, n, field)], field)
            for s in generators]
    ideal = groebner.SubmoduleGens(amb, gens)
    hf = resolution.HilbertNumerator(groebner.quotient_numerator(ideal),
                                     n).series(args.window)
    dim = groebner.krull_dim(ideal)
    payload = {"n": n, "window": args.window, "hilbert_function": hf,
               "krull_dim": dim, "codim": n - dim if dim >= 0 else None}
    lines = ["deg: " + " ".join(str(d) for d in range(args.window + 1)),
             "h:   " + " ".join(str(v) for v in hf),
             f"dim S/I = {dim}" + (f", codim = {n - dim}" if dim >= 0 else "")]
    _emit(args, payload, lines)
    return 0


def cmd_numcheck(args):
    # refused before any binomial: C(10^6, 5·10^5) has 301,027 digits
    _nvars({"n": args.n}, "numcheck:")
    if args.solve_c and args.c is not None:
        raise InputError("give either --c or --solve-c")
    if not 0 <= args.t <= args.n - 1:
        raise InputError(f"t out of range 0..{args.n - 1}")
    rep = resolution.numerical_conditions(
        args.n, args.t, args.c if args.c is not None else 0, args.d,
        args.a, args.b, solve_c=args.solve_c)
    payload = rep.to_dict()
    lines = []
    if rep.inferred_c is not None:
        lines.append(f"inferred c = {rep.inferred_c}")
    for idx, cond in ((1, rep.cond1), (2, rep.cond2), (3, rep.cond3)):
        lines.append(f"condition {idx}: {'holds' if cond[0] else 'FAILS'}"
                     f"  ({cond[1]} vs {cond[2]})")
    lines.append("all conditions hold" if rep.all_hold()
                 else "some condition fails")
    _emit(args, payload, lines)
    return 0 if rep.all_hold() else 1


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="bseq",
        description="Exact verification and assembly of long Bourbaki "
                    "sequences from b-sequence data over K[x1..xn].")
    ap.add_argument("--field", default="q",
                    help="coefficient field: q (rationals) or p:PRIME")
    ap.add_argument("--format", default="text", choices=("text", "json"))
    ap.add_argument("--verbose", action="store_true",
                    help="extra diagnostics in text output")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the b-sequence conditions")
    v.add_argument("manifest")
    v.add_argument("--nontriviality", action="store_true",
                   help="also require the non-decomposability verdict")
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("assemble", help="assemble the audited sequence")
    a.add_argument("manifest")
    a.add_argument("--out", help="directory for report/ideal/map files")
    a.set_defaults(func=cmd_assemble)

    k = sub.add_parser("koszul", help="print differentials and families")
    k.add_argument("what", choices=("d", "E", "A", "B"))
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--s", type=int)
    k.add_argument("--t", type=int)
    k.add_argument("--shift", type=int, default=0)
    k.set_defaults(func=cmd_koszul)

    c = sub.add_parser("cohomology", help="Ext pattern of a module spec")
    c.add_argument("spec", help="E(n,s[,shift]) [+ E(...)] or a JSON file")
    c.set_defaults(func=cmd_cohomology)

    h = sub.add_parser("hilbert", help="Hilbert function of S/I")
    h.add_argument("ideal", help="JSON file with n and generators")
    h.add_argument("--window", type=int, default=12)
    h.set_defaults(func=cmd_hilbert)

    m = sub.add_parser("numcheck", help="closed-form codimension-3 conditions")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--t", type=int, required=True)
    m.add_argument("--d", type=int, default=0)
    m.add_argument("--c", type=int)
    m.add_argument("--solve-c", action="store_true")
    m.add_argument("--a", type=int, nargs="+", required=True)
    m.add_argument("--b", type=int, nargs="+", required=True)
    m.set_defaults(func=cmd_numcheck)
    return ap


@functools.cache
def _parser():
    """The parser of ``main``, built on its first call and kept: parsing
    leaves it as it was, and a process that calls ``main`` many times
    builds it once.  Not built at import, which needs no parser."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as e:
        if isinstance(e, bourbaki.InvalidProblem):
            print(f"invalid problem: {e}", file=sys.stderr)
            return 1
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:  # a failed certificate: a bug, not a verdict
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
