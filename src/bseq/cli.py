"""Command-line front end.

Subcommands: verify and assemble run b-sequence checks from JSON manifests;
koszul prints differentials, syzygy-module presentations and the generator
families; cohomology reports Ext patterns; hilbert and numcheck expose the
Hilbert-series tooling.  Exit codes: 0 pass, 1 mathematical failure,
2 input error.
"""

import argparse
import json
import os
import re
import sys

from .rings import ParseError, field_from_name, format_polynomial, parse_polynomial
from .modules import FPModule, GradedFreeModule, Vec, fp_direct_sum
from . import bourbaki, groebner, koszul, resolution

__all__ = ["main"]


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"bad JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# verify / assemble
# ---------------------------------------------------------------------------

def _load_problem(args):
    data = _load_json(args.manifest)
    field = field_from_name(args.field)
    base = os.path.dirname(os.path.abspath(args.manifest))
    return bourbaki.problem_from_manifest(data, field=field, base_dir=base)


def cmd_verify(args):
    p = _load_problem(args)
    rep_a = bourbaki.verify_condition_a(p)
    rep_b = bourbaki.verify_condition_b(p)
    rep_rank = bourbaki.rank_conditions(p)
    payload = {
        "manifest": bourbaki.problem_to_manifest(p),
        "condition_a": rep_a.to_dict(),
        "condition_b": rep_b.to_dict(),
        "rank_condition": rep_rank.to_dict(),
    }
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
        "manifest": bourbaki.problem_to_manifest(p),
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
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        with open(os.path.join(args.out, "ideal.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(ideal_lines) + "\n")
        with open(os.path.join(args.out, "f.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(bourbaki.map_to_json(p.f), fh, indent=2)
        with open(os.path.join(args.out, "g.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(bourbaki.map_to_json(seq.beta_map), fh, indent=2)
        with open(os.path.join(args.out, "phi.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(bourbaki.map_to_json(p.phi), fh, indent=2)
        with open(os.path.join(args.out, "cone.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"ranks": payload["cone_ranks"],
                       "maps": [bourbaki.map_to_json(d) for d in cone.maps]},
                      fh, indent=2)
        with open(os.path.join(args.out, "q.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(str(q) + "\n")
        lines.append(f"wrote report.json, ideal.txt, maps, cone.json and "
                     f"q.txt to {args.out}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# koszul printers
# ---------------------------------------------------------------------------

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
        dmap = koszul.koszul_differential(n, args.s, 0, field)
        payload["matrix"] = [[format_polynomial(e) for e in row]
                             for row in dmap.rows]
        payload["source_twists"] = list(dmap.source.twists)
        payload["target_twists"] = list(dmap.target.twists)
        for row in dmap.rows:
            lines.append("[" + ", ".join(format_polynomial(e) for e in row) + "]")
    elif what == "E":
        if args.s is None:
            raise InputError("koszul E needs --s")
        if not 1 <= args.s <= n:
            raise InputError(f"s out of range 1..{n}")
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
        fam = koszul.generate_A(n, args.t, field)
        payload["family"] = [koszul.format_koszul_vector(v) for v in fam]
        for i, v in enumerate(fam):
            lines.append(f"A{i + 1} = {koszul.format_koszul_vector(v)}")
    elif what == "B":
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


def _module_from_spec(spec, field):
    """E(n,s[,shift]) terms joined by '+', or a JSON presentation file."""
    spec = spec.strip()
    if os.path.exists(spec):
        data = _load_json(spec)
        n = data["n"]
        pres = GradedFreeModule(n, data["twists"])
        rels = []
        for coords in data["relations"]:
            rels.append(Vec.from_polys(
                [parse_polynomial(s, n, field) for s in coords]))
        return FPModule(pres, rels)
    parts = [s.strip() for s in spec.split("+")]
    mods = []
    n_seen = None
    for part in parts:
        m = _E_SPEC.match(part)
        if not m:
            raise InputError(f"cannot parse module spec {part!r}")
        n, s = int(m.group(1)), int(m.group(2))
        shift = int(m.group(3)) if m.group(3) else 0
        if n_seen is not None and n != n_seen:
            raise InputError("all summands must share n")
        n_seen = n
        if not 1 <= s <= n:
            raise InputError(f"E out of range: {part}")
        mods.append(koszul.E(n, s, shift, field).fp)
    total = mods[0]
    for extra in mods[1:]:
        total = fp_direct_sum(total, extra)
    return total


def cmd_cohomology(args):
    field = field_from_name(args.field)
    fp = _module_from_spec(args.spec, field)
    pattern = resolution.cohomology_pattern(fp)
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

def cmd_hilbert(args):
    field = field_from_name(args.field)
    data = _load_json(args.ideal)
    n = data["n"]
    amb = GradedFreeModule(n, [0])
    gens = []
    for s in data["generators"]:
        p = parse_polynomial(s, n, field)
        gens.append(Vec(n, {(0, e): c for e, c in p.terms.items()}))
    ideal = groebner.SubmoduleGens(amb, gens)
    hf = resolution.hilbert_from_groebner(ideal, args.window)
    dim = groebner.krull_dim(ideal)
    payload = {"n": n, "window": args.window, "hilbert_function": hf,
               "krull_dim": dim, "codim": n - dim if dim >= 0 else None}
    lines = ["deg: " + " ".join(str(d) for d in range(args.window + 1)),
             "h:   " + " ".join(str(v) for v in hf),
             f"dim S/I = {dim}" + (f", codim = {n - dim}" if dim >= 0 else "")]
    _emit(args, payload, lines)
    return 0


def cmd_numcheck(args):
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


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
