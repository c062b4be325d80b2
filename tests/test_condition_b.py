"""Condition (b) by containments in Im f: agreement with the intersection
route that it replaced (``oracles.condition_b_by_intersection``), and the
submodules that the conditions, synthesis and assembly no longer build."""

import gc
import random
import weakref
from collections import Counter

import pytest

from bseq import bourbaki as bk
from bseq import groebner as gb
from bseq.modules import GradedFreeModule, ModuleMap
from bseq.rings import RATIONALS, Polynomial, PrimeField

from conftest import load_problem, manifest_path, synth_draws
from oracles import condition_b_by_intersection

FIELDS = [RATIONALS, PrimeField(32003)]
FIELD_IDS = ["Q", "F32003"]
MANIFESTS = ["example1.json", "example2.json", "example3.json"]
SURJ = "Im(beta∘f) differs from <beta> ∩ Ker eps"
ISO = "f(Ker beta∘f) differs from Ker beta"


def outcome(verify, p):
    """What a route of condition (b) reports on ``p``: the verdict, the
    witness and both counts, or the refusal of an f that is not
    injective."""
    try:
        rep = verify(p)
    except bk.InvalidProblem as e:
        return ("invalid", str(e))
    return (rep.ok, rep.witness, rep.details["intersection_gens"],
            rep.details["ker_beta_gens"])


def f_mutants(p, rng, subsets):
    """Column lists of maps into p's G: f itself, f without one column,
    f with one column times one variable, and ``subsets`` random subsets
    of Ker(eps∘beta)'s generators, alone and with Ker beta's."""
    cols = p.f.columns()
    yield cols
    for j in range(len(cols)):
        yield cols[:j] + cols[j + 1:]
    for j in range(len(cols)):
        for i in range(1, p.n + 1):
            x = Polynomial.variable(p.n, i, p.field)
            yield cols[:j] + [cols[j].mul_poly(x)] + cols[j + 1:]
    ker_g = list(p.ker_g().vectors)
    ker_b = list(gb.kernel(p.beta_map).vectors)
    for _ in range(subsets):
        some = [v for v in ker_g if rng.random() < 0.5]
        yield some
        yield some + ker_b


def with_f(p, cols):
    """A fresh problem on p's data with the map to G whose columns are
    ``cols``."""
    F = GradedFreeModule(p.n, [v.homogeneous_degree(p.G) for v in cols],
                         field=p.field)
    f = ModuleMap.from_columns(F, p.G, cols)
    return bk.BSequenceProblem(p.n, p.t, p.shape, p.betas, p.phi, f, d=p.d)


def compare(p, rng, subsets, seen):
    """Both routes on every f mutant of ``p``, each on a problem of its
    own; the witnesses met go to ``seen``."""
    for cols in f_mutants(p, rng, subsets):
        ours = outcome(bk.verify_condition_b, with_f(p, cols))
        theirs = outcome(condition_b_by_intersection, with_f(p, cols))
        assert ours == theirs, cols
        seen[ours[1] if ours[0] != "invalid" else "invalid"] += 1


def test_containments_agree_with_the_intersection_route():
    """The verdict, the witness and both counts of the containment route
    equal those of the intersection route on the three manifests, over Q
    and F_32003, on every synth draw that synthesizes, over Q, and on f
    mutants of all of them; every witness occurs."""
    rng = random.Random(32)
    seen = Counter()
    for field in FIELDS:
        for name in MANIFESTS:
            compare(load_problem(name, field), rng, 6, seen)
    synthesized = 0
    for n, t, shape, d, phi in synth_draws(RATIONALS):
        p = bk.synthesize_from_phi(n, t, shape, phi, d=d)
        if p is not None:
            synthesized += 1
            compare(p, rng, 2, seen)
    assert synthesized >= 50
    assert all(seen[w] for w in (None, SURJ, ISO, "invalid")), seen


def record_run_requests(monkeypatch):
    """The ``SubmoduleGens`` that each untracked or tracked run is asked
    of from here on, in order."""
    runs = []
    untracked, tracked = gb._untracked, gb._tracked

    def spy_untracked(gens):
        runs.append(gens)
        return untracked(gens)

    def spy_tracked(gens):
        runs.append(gens)
        return tracked(gens)

    monkeypatch.setattr(gb, "_untracked", spy_untracked)
    monkeypatch.setattr(gb, "_tracked", spy_tracked)
    return runs


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_text_verify_builds_no_kernel_of_beta_f_and_no_intersection(
        monkeypatch, capsys, field):
    """Text ``verify`` never prints the intersection count, so it builds
    no run over beta(Ker(eps∘beta)); and (b) takes no kernel of beta∘f."""
    from bseq import cli
    maps = []
    kernel = gb.kernel

    def spy_kernel(f, target_relations=None, image=None):
        maps.append(f)
        return kernel(f, target_relations, image=image)

    monkeypatch.setattr(gb, "kernel", spy_kernel)
    runs = record_run_requests(monkeypatch)
    built = []
    init = bk.BSequenceProblem.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(bk.BSequenceProblem, "__init__", spy_init)
    spec = "q" if field is RATIONALS else "p:32003"
    for name in MANIFESTS:
        maps.clear()
        runs.clear()
        assert cli.main(["--field", spec, "verify",
                         manifest_path(name)]) == 0
        assert "intersection" not in capsys.readouterr().out
        p = built[-1]
        assert maps and p.beta_f() not in maps
        inter = tuple(p.beta_map.apply(h) for h in p.ker_g().vectors)
        assert all(gens.vectors != inter for gens in runs)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_synthesis_builds_no_run_over_its_betas_alone(monkeypatch, field):
    """The betas are part of a minimal generating set of Ker phi, so
    synthesis counts them without a run over <beta>: on every synth draw
    that synthesizes, the count is an oracle's minimal generator count."""
    synthesized = 0
    for n, t, shape, d, phi in synth_draws(field):
        with monkeypatch.context() as m:
            runs = record_run_requests(m)
            p = bk.synthesize_from_phi(n, t, shape, phi, d=d)
        if p is None:
            continue
        synthesized += 1
        assert all(gens is not p.beta_span() for gens in runs)
        span = gb.SubmoduleGens(p.U, p.betas, check=False)
        assert p.provenance["beta_minimal_count"] == len(
            gb.minimal_generators(span).vectors)
        assert p.provenance["beta_redundant"] is False
    assert synthesized >= 50


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", MANIFESTS)
def test_rank_additivity_finishes_no_run_over_ker_phi(monkeypatch, field,
                                                       name):
    """rank Ker phi is read off <beta> + Ker eps, which condition (a)
    equates with Ker phi and has built a basis of: no run over Ker phi's
    generators is finished, and the identity still holds."""
    p = load_problem(name, field)
    assert bk.verify_condition_a(p).ok
    runs = record_run_requests(monkeypatch)
    rep = bk.rank_additivity(p)
    assert rep.ok
    assert all(gens is not p.ker_phi() for gens in runs)
    assert rep.details["left"] == (gb.submodule_rank(p.ker_phi())
                                   - gb.submodule_rank(p.kere))


class WeakProblem(bk.BSequenceProblem):
    """A problem that a weak reference can name."""
    __slots__ = ("__weakref__",)


def test_condition_b_report_does_not_keep_its_problem_alive():
    """The lazy intersection count holds Ker(eps∘beta), U and beta, not
    the problem, whose cache holds the report: with the cycle collector
    off, the problem dies with its last reference."""
    q = load_problem("example1.json")
    gc.disable()
    try:
        p = WeakProblem(q.n, q.t, q.shape, q.betas, q.phi, q.f, d=q.d)
        rep = bk.verify_condition_b(p)
        ref = weakref.ref(p)
        del p
        assert ref() is None
        assert rep.details["intersection_gens"] == 2
    finally:
        gc.enable()


def test_a_lazy_detail_is_computed_once_on_first_read():
    calls = []

    def count():
        calls.append(1)
        return 7

    rep = bk.ConditionReport("b", True, None, {"x": count, "y": 1})
    assert calls == []
    assert rep.to_dict() == {"condition": "b", "holds": True,
                             "witness": None, "x": 7, "y": 1}
    assert list(rep.details) == ["x", "y"] and rep.details["x"] == 7
    assert calls == [1]
