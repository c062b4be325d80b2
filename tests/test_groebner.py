"""Gröbner engine: bases, normal forms, syzygies, kernels, set operations."""

import itertools
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bseq.rings import (DimensionMismatch, Polynomial, PrimeField, RATIONALS,
                        binomial, merge_terms, mono_divides, mono_lcm,
                        parse_polynomial)
from bseq.modules import GradedFreeModule, ModuleMap, Vec, compose
from bseq import groebner as gb
from bseq import koszul
from bseq import resolution as rl

from conftest import load_problem
from oracles import hilbert_function


def P(text, n):
    return parse_polynomial(text, n)


def vec_of(poly):
    return Vec(poly.n, {(0, e): c for e, c in poly.terms.items()})


def ideal_gens(n, *texts):
    amb = GradedFreeModule(n, [0])
    return gb.SubmoduleGens(amb, [vec_of(P(t, n)) for t in texts])


def example1_ideal():
    texts = [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)]
    return ideal_gens(6, *texts)


# ---------------------------------------------------------------------------
# groebner
# ---------------------------------------------------------------------------

def test_monomial_generators_are_already_reduced():
    amb = GradedFreeModule(2, [0])
    gens = gb.SubmoduleGens(amb, [vec_of(P("x1", 2)), vec_of(P("x2", 2))])
    basis = gb.groebner(gens)
    lead_polys = sorted(str(v.component(0)) for v in basis.vectors)
    assert lead_polys == ["x1", "x2"]


def test_product_of_two_linear_ideals_is_its_own_basis():
    basis = gb.groebner(example1_ideal())
    assert len(basis.vectors) == 9
    polys = {str(v.component(0)) for v in basis.vectors}
    assert polys == {f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)}


def test_single_relation_is_its_own_basis():
    amb = GradedFreeModule(2, [1, 1])
    v = Vec(2, {(1, (1, 0)): Fraction(1), (0, (0, 1)): Fraction(-1)})
    gens = gb.SubmoduleGens(amb, [v])
    basis = gb.groebner(gens)
    assert len(basis.vectors) == 1
    # hand Buchberger: a single generator has no S-pairs at all
    assert gb.normal_form(v, basis).is_zero()


def test_every_generator_reduces_to_zero():
    rng = random.Random(5)
    for trial in range(10):
        n = rng.choice((2, 3))
        amb = GradedFreeModule(n, [0, 1])
        vecs = []
        for _ in range(rng.randint(2, 4)):
            pos = rng.randrange(2)
            deg = rng.randint(1, 3) + (1 - amb.twists[pos])
            exp = [0] * n
            for _ in range(max(deg, 0)):
                exp[rng.randrange(n)] += 1
            vecs.append(Vec(n, {(pos, tuple(exp)): Fraction(rng.randint(1, 4))}))
        gens = gb.SubmoduleGens(amb, vecs)
        basis = gb.groebner(gens)
        for v in gens.vectors:
            assert gb.normal_form(v, basis).is_zero()


def test_buchberger_criterion_every_s_pair_reduces_to_zero():
    from bseq.rings import mono_lcm
    basis = gb.groebner(ideal_gens(
        3, "x1^2 - x2*x3", "x1*x2 - x3^2", "x2^2*x3 - x1*x3^2"))
    vectors, leads = basis.vectors, basis.leads
    for (i, (pi, ei)), (j, (pj, ej)) in itertools.combinations(
            enumerate(leads), 2):
        if pi != pj:
            continue
        lcm = mono_lcm(ei, ej)
        si = tuple(a - b for a, b in zip(lcm, ei))
        sj = tuple(a - b for a, b in zip(lcm, ej))
        ci = vectors[i].terms[(pi, ei)]
        cj = vectors[j].terms[(pj, ej)]
        inv = basis.ambient.field.inv
        s = (vectors[i].mul_poly(Polynomial.monomial(3, si, inv(ci)))
             - vectors[j].mul_poly(Polynomial.monomial(3, sj, inv(cj))))
        assert gb.normal_form(s, basis).is_zero()


def test_reduced_basis_matches_external_engine():
    sympy = pytest.importorskip("sympy")
    cases = [
        (3, ["x1^2 - x2*x3", "x1*x2 - x3^2", "x2^2*x3 - x1*x3^2"]),
        (4, ["x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"]),
        (3, ["x1^3 + x2^3 + x3^3", "x1*x2*x3"]),
    ]
    def canon(expr, xs):
        poly = sympy.Poly(expr, *xs).monic()
        return frozenset(poly.terms())

    for n, texts in cases:
        xs = sympy.symbols(f"x1:{n + 1}")
        ref = sympy.groebner(
            [sympy.sympify(t.replace("^", "**")) for t in texts],
            *xs, order="grevlex")
        ours = gb.groebner(ideal_gens(n, *texts))
        ours_set = {canon(sympy.sympify(
            str(v.component(0)).replace("^", "**")), xs)
            for v in ours.vectors}
        ref_set = {canon(p, xs) for p in ref.exprs}
        assert ours_set == ref_set


def test_reduced_basis_is_canonical_under_generator_shuffle():
    rng = random.Random(1)
    texts = ["x1^2 - x2^2", "x1*x2 + x2^2", "x2^3"]
    base = ideal_gens(2, *texts)
    expected = [str(v) for v in gb.groebner(base).vectors]
    for _ in range(4):
        shuffled = texts[:]
        rng.shuffle(shuffled)
        again = [str(v) for v in gb.groebner(ideal_gens(2, *shuffled)).vectors]
        assert again == expected


def elem_vector(eng, g):
    """An engine element's vector, rebuilt from its monic lead and its keyed
    tail divided by its lead coefficient."""
    terms = {(g.pos, g.exp): eng.field.one}
    terms.update((eng.order.term(-k), c if g.lc == 1 else
                  eng.field.fraction(c, g.lc)) for k, c in g.tail.items())
    return Vec(eng.n, terms, eng.field)


def reference_reduced_basis(gens):
    """Interreduction with one fresh engine per kept element."""
    eng = gb._engine_for(gens)
    key = eng.order.key
    kept = []
    for g in sorted(eng.basis, key=lambda g: key(g.pos, g.exp)):
        if not any(h.pos == g.pos and mono_divides(h.exp, g.exp)
                   for h in kept):
            kept.append(g)
    final = []
    for g in kept:
        sub = gb._Engine(eng.n, eng.order, eng.field)
        for h in kept:
            if h is not g:
                # adjoined as it is, keyed with the lead first, as the
                # engine adjoins a remainder
                terms = sorted(elem_vector(eng, h).terms.items(),
                               key=lambda t: key(*t[0]), reverse=True)
                sub._append(eng.field.integral(
                    {-key(*t): c for t, c in terms})[0], None)
        rem = sub.reduce(elem_vector(eng, g))
        lead = max(rem.terms, key=lambda k: key(*k))
        final.append((rem.scale(eng.field.inv(rem.terms[lead])), lead))
    final.sort(key=lambda t: key(*t[1]), reverse=True)
    return [v for v, _ in final], [lead for _, lead in final]


@st.composite
def homogeneous_submodules(draw, n=st.integers(2, 3)):
    """1-4 homogeneous generators in a free module of rank 1-3 with twists
    0/1, over Q or F_32003."""
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    amb = GradedFreeModule(
        draw(n), draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)),
        field=field)
    return homogeneous_gens(draw, amb)


def homogeneous_gens(draw, amb):
    n, twists, field = amb.n, amb.twists, amb.field
    vecs = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(twists) - 1))
            exp = [0] * n
            for var in draw(st.lists(st.integers(0, n - 1),
                                     min_size=deg - twists[pos],
                                     max_size=deg - twists[pos])):
                exp[var] += 1
            c = draw(st.integers(-5, 5).filter(bool))
            terms[(pos, tuple(exp))] = field.from_int(c)
        vecs.append(Vec(n, terms, field))
    return gb.SubmoduleGens(amb, vecs)


@given(homogeneous_submodules())
@settings(max_examples=60, deadline=None)
def test_reduced_basis_matches_per_element_interreduction(gens):
    vectors, leads = reference_reduced_basis(gens)
    basis = gb.groebner(gens)
    assert list(basis.leads) == leads
    assert [list(v.terms.items()) for v in basis.vectors] == \
        [list(v.terms.items()) for v in vectors]


def test_reduced_basis_queues_no_s_pairs(monkeypatch):
    gens = ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2", "x2^2*x3 - x1*x3^2")
    basis = gb.groebner(gens)
    eng = gb._engine_for(gens)

    def no_append(self, *args):
        raise AssertionError("interreduction went through _append")

    monkeypatch.setattr(gb._Engine, "_append", no_append)
    pushed = []
    monkeypatch.setattr(gb.heapq, "heappush", lambda *a: pushed.append(a))
    reducer = eng.reduced_basis()
    vectors = list(gb.GroebnerBasis(gens.ambient, reducer).vectors)
    assert vectors == list(basis.vectors)
    assert [(g.pos, g.exp) for g in reducer.basis] == list(basis.leads)
    assert reducer.pairs == [] and basis.reducer.pairs == []
    assert pushed == []


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_forms_share_the_cached_reducer():
    basis = gb.groebner(ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2"))
    v = vec_of(P("x1^3 + x1*x2*x3 + x3^3", 3))
    reducer = basis.reducer
    first = gb.normal_form(v, basis)
    assert gb.normal_form(v, basis) == first
    assert basis.reducer is reducer
    assert [elem_vector(reducer, g) for g in reducer.basis] == \
        list(basis.vectors)
    assert len(reducer.basis) == len(basis.vectors)


def test_a_fresh_basis_keys_only_the_reduced_vector(monkeypatch):
    pack = gb.ModuleOrder.pack
    calls = []

    def counting_pack(self, terms):
        calls.extend(terms)
        return pack(self, terms)

    monkeypatch.setattr(gb.ModuleOrder, "pack", counting_pack)
    basis = gb.groebner(ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2"))
    v = vec_of(P("x1^3 + x1*x2*x3 + x3^3", 3))
    calls.clear()
    gb.normal_form(v, basis)
    assert sorted(calls) == sorted(v.terms)


def test_contains_leaves_the_reducer_unchanged():
    a = ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2")
    basis = gb.groebner(a)
    reducer = basis.reducer
    elems = [(g.pos, g.exp, g.nkey, dict(g.tail)) for g in reducer.basis]
    b = ideal_gens(3, "x1^3 - x1*x2*x3", "x1^2*x2 - x1*x3^2", "x3^5")
    assert not gb.contains(a, b)
    assert gb.contains(a, ideal_gens(3, "x1^3 - x1*x2*x3"))
    assert basis.reducer is reducer
    assert [(g.pos, g.exp, g.nkey, g.tail) for g in reducer.basis] == elems
    assert reducer.pairs == []


def test_ideal_member_has_zero_normal_form():
    basis = gb.groebner(example1_ideal())
    assert gb.normal_form(vec_of(P("x1*x4", 6)), basis).is_zero()


def test_nonmember_survives_reduction():
    # no lead monomial x_i*x_j (i<=3<j) divides x1^2
    basis = gb.groebner(example1_ideal())
    v = vec_of(P("x1^2", 6))
    for (_, exp) in basis.leads:
        assert not all(a <= b for a, b in zip(exp, (2, 0, 0, 0, 0, 0)))
    assert gb.normal_form(v, basis) == v


def test_normal_form_of_zero():
    basis = gb.groebner(example1_ideal())
    assert gb.normal_form(Vec(6, {}), basis).is_zero()


def test_normal_form_rejects_wrong_ambient():
    basis = gb.groebner(example1_ideal())
    with pytest.raises(DimensionMismatch):
        gb.normal_form(Vec(6, {(3, (0,) * 6): Fraction(1)}), basis)


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

def test_koszul_syzygy_of_two_coprime_monomials():
    amb = GradedFreeModule(2, [0])
    gens = gb.SubmoduleGens(amb, [vec_of(P("x1", 2)), vec_of(P("x2", 2))])
    syz = gb.syzygies(gens)
    expected = gb.SubmoduleGens(
        GradedFreeModule(2, [1, 1]),
        [Vec(2, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(-1)})])
    assert gb.equal(syz, expected)


def test_free_generator_has_no_syzygies():
    amb = GradedFreeModule(3, [0])
    gens = gb.SubmoduleGens(amb, [Vec(3, {(0, (0, 0, 0)): Fraction(1)})])
    assert gb.syzygies(gens).vectors == ()


def brute_force_linear_syzygy_dimension(gens_polys, n):
    """dim of {(h_1..h_k) linear : Σ h_i g_i = 0} by exact Gaussian elimination."""
    k = len(gens_polys)
    unknowns = [(i, v) for i in range(k) for v in range(n)]  # coeff of x_v in h_i
    rows = {}
    for col, (i, v) in enumerate(unknowns):
        xv = tuple(1 if w == v else 0 for w in range(n))
        prod = gens_polys[i] * Polynomial.monomial(n, xv, Fraction(1))
        for exp, c in prod.terms.items():
            rows.setdefault(exp, [Fraction(0)] * len(unknowns))[col] += c
    matrix = [row[:] for row in rows.values()]
    rank = 0
    cols = len(unknowns)
    for col in range(cols):
        piv = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        pivval = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                fac = matrix[r][col] / pivval
                matrix[r] = [a - fac * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return cols - rank


def test_first_syzygies_of_the_product_ideal_live_in_degree_three():
    gens = example1_ideal()
    syz = gb.syzygies(gens)
    minimized = gb.minimal_generators(syz)
    degs = sorted(v.homogeneous_degree(syz.ambient) for v in minimized.vectors)
    assert set(degs) == {3}
    oracle = brute_force_linear_syzygy_dimension(
        [v.component(0) for v in gens.vectors], 6)
    assert len(minimized.vectors) == oracle


def elimination_syzygies(gens):
    """Independent syzygy route: eliminate the ambient block.

    Works in F ⊕ S^k on the graph generators (g_i, e_i) with an order that
    ranks every ambient term above every bookkeeping term; basis elements
    with empty ambient part generate the syzygy module.
    """
    from bseq.groebner import ModuleOrder, _Engine
    amb = gens.ambient
    k = len(gens.vectors)
    n = amb.n
    degs = [v.homogeneous_degree(amb) for v in gens.vectors]
    rank_f = amb.rank
    # the block order is still linear: raising the ambient twists by a
    # constant above every degree the run reaches adds it to the key's base
    # at each ambient position, so ambient terms rank above all others
    block = 1 << 8
    order = ModuleOrder(n, [t + block for t in amb.twists] + degs)
    eng = _Engine(n, order, amb.field)
    for i, g in enumerate(gens.vectors):
        graph = Vec(n, dict(g.terms) | {(rank_f + i, (0,) * n): Fraction(1)})
        eng._adjoin(*eng._reduce(*eng._keyed(graph)))
    eng.process()
    out = []
    for elem in eng.basis:
        terms = elem_vector(eng, elem).terms
        if all(pos >= rank_f for pos, _ in terms):
            out.append(Vec(n, {(pos - rank_f, e): c
                               for (pos, e), c in terms.items()}))
    book = GradedFreeModule(n, degs)
    return gb.SubmoduleGens(book, out, check=False)


def test_syzygies_complete_against_elimination_route():
    rng = random.Random(17)
    pool3 = ["x1^2", "x1*x2", "x2^2", "x2*x3", "x3^2", "x1*x3"]
    for trial in range(8):
        n = 3
        texts = rng.sample(pool3, rng.randint(2, 4))
        gens = ideal_gens(n, *texts)
        fast = gb.syzygies(gens)
        oracle = elimination_syzygies(gens)
        assert gb.equal(fast, oracle)
    # and in a genuinely module-valued ambient
    d2 = koszul.koszul_differential(4, 2)
    gens = gb.SubmoduleGens(d2.target, d2.columns(), check=False)
    assert gb.equal(gb.syzygies(gens), elimination_syzygies(gens))


def test_syzygies_recombine_to_zero():
    rng = random.Random(9)
    for _ in range(6):
        n = 3
        amb = GradedFreeModule(n, [0])
        vecs = []
        for _ in range(rng.randint(2, 5)):
            exp = [0] * n
            for _ in range(rng.randint(1, 3)):
                exp[rng.randrange(n)] += 1
            vecs.append(vec_of(Polynomial.monomial(n, tuple(exp), Fraction(1))))
        gens = gb.SubmoduleGens(amb, vecs)
        for s in gb.syzygies(gens).vectors:
            acc = Vec(n, {})
            for (i, exp), c in s.terms.items():
                acc = acc + gens.vectors[i].mul_poly(
                    Polynomial.monomial(n, exp, c))
            assert acc.is_zero()


def free_hf(amb, window):
    """Hilbert function of the free module ``amb`` on degrees 0..window."""
    return [sum(binomial(d - tw + amb.n - 1, amb.n - 1)
                for tw in amb.twists if tw <= d) for d in range(window + 1)]


@given(homogeneous_submodules())
@settings(max_examples=60, deadline=None)
def test_syzygies_are_complete_by_hilbert_function(gens):
    # 0 -> Syz -> F -> <V> -> 0 is exact, F the free module on V's
    # degrees; the rows are certified syzygies, so equality in every
    # degree of the window says no generator is missing
    syz = gb.syzygies(gens)
    assert hilbert_function(syz, 10, submodule=True) == [
        f - v for f, v in zip(free_hf(syz.ambient, 10),
                              hilbert_function(gens, 10, submodule=True))]


@st.composite
def redundant_submodules(draw):
    """The generators of ``homogeneous_submodules`` with up to three
    redundant ones put in at random places: a scalar multiple, a variable
    multiple, or the sum of two generators of one degree."""
    gens = draw(homogeneous_submodules())
    amb, field = gens.ambient, gens.ambient.field
    vecs = list(gens.vectors)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(vecs))
        kind = draw(st.sampled_from(["scale", "variable", "sum"]))
        if kind == "scale":
            extra = a.scale(field.from_int(draw(st.integers(2, 5))))
        elif kind == "variable":
            extra = a.mul_poly(Polynomial.variable(
                amb.n, draw(st.integers(1, amb.n)), field))
        else:
            extra = a + draw(st.sampled_from(vecs))
            if not extra.is_homogeneous(amb):
                continue
        vecs.insert(draw(st.integers(0, len(vecs))), extra)
    return amb, vecs


def terms_in_order(gens):
    return [list(v.terms.items()) for v in gens.vectors]


@given(redundant_submodules())
@settings(max_examples=80, deadline=None)
def test_minimal_syzygies_are_minimal_generators_then_syzygies(case):
    amb, vecs = case
    mg, syz = gb.minimal_syzygies(gb.SubmoduleGens(amb, vecs))
    ref = gb.minimal_generators(gb.SubmoduleGens(amb, vecs))
    ref_syz = gb.syzygies(ref)
    assert terms_in_order(mg) == terms_in_order(ref)
    assert syz.ambient == ref_syz.ambient
    assert terms_in_order(syz) == terms_in_order(ref_syz)


def test_minimal_syzygies_minimize_only_a_set_that_is_not_minimal(
        monkeypatch):
    runs = []
    untracked = gb._untracked
    monkeypatch.setattr(gb, "_untracked",
                        lambda gens: runs.append(gens) or untracked(gens))
    # nine quadrics x_i·x_j: minimal, so the tracked run's rows prove it
    gens = example1_ideal()
    mg, syz = gb.minimal_syzygies(gens)
    assert runs == [] and set(mg.vectors) == set(gens.vectors)
    # in intake order, with the run that syzygies(mg) reads
    assert mg._tracked is not None and gb.syzygies(mg).vectors == syz.vectors
    # x1 + x2 is redundant: a generator reduces to zero at intake, so the
    # first tracked run stops there and only the run of mg is finished
    processed = []
    process = gb._Engine.process
    monkeypatch.setattr(gb._Engine, "process", lambda self, upto=None: (
        processed.append(self.track), process(self, upto))[1])
    gens = ideal_gens(3, "x1", "x2", "x1 + x2")
    mg, syz = gb.minimal_syzygies(gens)
    assert runs == [gens] and len(mg.vectors) == 2
    assert processed.count(True) == 1
    # the S-pair of the first two is the third: no zero at intake, but the
    # finished run has the row x1·e1 - x2·e2 - e3
    gens = ideal_gens(3, "x1*x2 + x3^2", "x1^2 - x2*x3", "x1*x3^2 + x2^2*x3")
    processed.clear()
    mg, syz = gb.minimal_syzygies(gens)
    assert runs[-1] is gens and mg.vectors == gens.vectors[:2]
    assert processed.count(True) == 2
    assert terms_in_order(syz) == terms_in_order(gb.syzygies(mg))
    # the empty set builds no run at all
    engines = []
    monkeypatch.setattr(gb._Engine, "__init__",
                        lambda self, *a, **k: engines.append(self))
    empty = gb.SubmoduleGens(GradedFreeModule(3, [0]), [])
    mg, syz = gb.minimal_syzygies(empty)
    assert mg is empty and not syz.vectors and syz.ambient.rank == 0
    assert engines == []


@given(homogeneous_submodules(), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_quotient_numerator_with_a_valid_floor_is_exact(gens, k):
    # the exact numerator is a floor, met at intake or not; so is one less
    # λ^k (1-λ)^n wherever HS(F/W) is positive in degree k, never met
    amb, vecs = gens.ambient, gens.vectors
    exact = gb.quotient_numerator(gb.SubmoduleGens(amb, vecs))
    floors = [exact]
    if rl.HilbertNumerator(exact, amb.n).series_coefficient(k) > 0:
        floors.append(merge_terms(dict(exact), {
            k + i: (-1) ** i * binomial(amb.n, i) for i in range(amb.n + 1)},
            subtract=True))
    # the generators' own leads, the largest term of each under the order
    order = gb._order(amb.n, amb.twists)
    own = gb._leads_numerator(amb, [
        max(v.terms, key=lambda term: order.key(*term)) for v in vecs if v])
    for floor in floors:
        w = gb.SubmoduleGens(amb, vecs)
        assert gb.quotient_numerator(w, floor) == exact
        # where those leads meet the floor, no run is built
        assert (w._run is None) == (own == floor)


def test_a_floor_that_generator_leads_miss_is_met_at_intake():
    # x1^2 + x1*x2 and x1^2 share their lead x1^2, whose numerator misses
    # HS(S/W); intake adjoins x1*x2, and with it the leads meet the floor
    # while the degree-3 pair stays queued
    for field in (RATIONALS, PrimeField(32003)):
        amb = GradedFreeModule(2, [0], field=field)
        vecs = [Vec.from_polys(2, [parse_polynomial(t, 2, field)], field)
                for t in ("x1^2 + x1*x2", "x1^2")]
        exact = gb.quotient_numerator(gb.SubmoduleGens(amb, vecs))
        assert exact == {0: 1, 2: -2, 3: 1}
        w = gb.SubmoduleGens(amb, vecs)
        assert gb.quotient_numerator(w, exact) == exact
        assert w._run is not None and w._run.pairs


@st.composite
def repeated_lead_sets(draw):
    """An ambient and leads at each of its positions, drawn from a few
    lead sets so that one set recurs at positions of different twists,
    in another order or with a repeated lead."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    sets = draw(st.lists(st.lists(exps, max_size=4), min_size=1, max_size=3))
    twists = draw(st.lists(st.integers(-3, 5), min_size=1, max_size=6))
    leads = []
    for pos in range(len(twists)):
        chosen = draw(st.sampled_from(sets))
        chosen = draw(st.permutations(chosen)) + chosen[:draw(
            st.integers(0, 1))]
        leads += [(pos, e) for e in chosen]
    return GradedFreeModule(n, twists), draw(st.permutations(leads))


@given(repeated_lead_sets())
@settings(max_examples=200, deadline=None)
def test_leads_numerator_is_the_sum_over_positions(case):
    amb, leads = case
    direct = {}
    for pos, tw in enumerate(amb.twists):
        num = gb.monomial_quotient_numerator(
            [e for p, e in leads if p == pos], amb.n)
        merge_terms(direct, {j + tw: c for j, c in num.items()})
    assert gb._leads_numerator(amb, leads) == direct


def path_ideal(n):
    """(x1x2, x2x3, ..., x_{n-1}x_n) as exponent tuples."""
    return [tuple(int(k in (i, i + 1)) for k in range(n))
            for i in range(n - 1)]


@pytest.mark.parametrize("n", list(range(2, 13)) + [40])
def test_path_ideal_numerator_counts_independent_sets(n):
    # S/I is the Stanley-Reisner ring of the path's independence complex,
    # which has C(n-k+1, k) faces of size k: N = Σ_k C(n-k+1, k) λ^k
    # (1-λ)^(n-k).  The pivot cuts the path, whose halves are split apart,
    # so n = 40 takes milliseconds.
    expected = {}
    for k in range(n + 1):
        merge_terms(expected, {k + i: binomial(n - k + 1, k)
                               * binomial(n - k, i) * (-1) ** i
                               for i in range(n - k + 1)})
    assert gb.monomial_quotient_numerator(path_ideal(n), n) == expected


def standard_monomial_counts(gens, n, window):
    """How many monomials of each degree 0..window no generator divides."""
    counts = [0] * (window + 1)
    for exp in itertools.product(range(window + 1), repeat=n):
        if sum(exp) <= window and not any(
                all(a >= b for a, b in zip(exp, g)) for g in gens):
            counts[sum(exp)] += 1
    return counts


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.sampled_from([0, 0, 1, 2, 3])] * n), max_size=7))))
@settings(max_examples=150, deadline=None)
def test_monomial_numerator_counts_standard_monomials(case):
    n, gens = case
    num = rl.HilbertNumerator(gb.monomial_quotient_numerator(gens, n), n)
    assert num.series(6) == standard_monomial_counts(gens, n, 6)


def test_degrees_are_a_tuple_taken_once():
    amb = GradedFreeModule(2, [0, 2])
    x1 = Vec(2, {(0, (1, 0)): 1})
    mixed = Vec(2, {(0, (3, 0)): 1, (1, (1, 0)): -1})
    gens = gb.SubmoduleGens(amb, [x1, Vec.zero(2), mixed])
    degs = gens.degrees()
    assert degs == (1, None, 3)
    assert degs == tuple(v.homogeneous_degree(amb) for v in gens.vectors)
    assert gens.degrees() is degs


def test_a_resolution_takes_each_degree_once(monkeypatch):
    degree = Vec.homogeneous_degree
    calls = {}
    held = []

    def spy(self, module):
        calls[id(self)] = calls.get(id(self), 0) + 1
        held.append(self)  # keeps ids unique
        return degree(self, module)

    fp = koszul.E(6, 2).fp
    monkeypatch.setattr(Vec, "homogeneous_degree", spy)
    cc, _ = rl.minimal_resolution(fp)
    assert len(cc.modules) > 2 and calls and max(calls.values()) == 1


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_of_row_of_two_variables():
    n = 2
    src = GradedFreeModule(n, [1, 1])
    tgt = GradedFreeModule(n, [0])
    f = ModuleMap(src, tgt, [[P("x1", n), P("x2", n)]])
    ker = gb.kernel(f)
    expected = gb.SubmoduleGens(
        src, [Vec(n, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(-1)})])
    assert gb.equal(ker, expected)


def test_kernel_of_variable_row_functional_is_second_syzygy_module():
    n = 6
    phi = koszul.KoszulVector(
        n, [koszul.Summand(1, 0, True)],
        {(0, (i,)): Polynomial.variable(n, i) for i in range(1, n + 1)})
    fmap = phi.to_functional()
    ker = gb.kernel(fmap)
    assert gb.equal(ker, koszul.E(n, 2).gens)


def test_kernel_of_zero_map_is_everything():
    n = 2
    src = GradedFreeModule(n, [0, 1])
    tgt = GradedFreeModule(n, [0])
    ker = gb.kernel(ModuleMap.zero(src, tgt))
    units = gb.SubmoduleGens(
        src, [Vec(n, {(0, (0, 0)): Fraction(1)}),
              Vec(n, {(1, (0, 0)): Fraction(1)})])
    assert gb.equal(ker, units)


def test_kernel_into_quotient_uses_target_relations():
    # map S -> S/(x1) given by 1 has kernel (x1)
    n = 2
    src = GradedFreeModule(n, [0])
    tgt = GradedFreeModule(n, [0])
    ident = ModuleMap.identity(tgt)
    rels = gb.SubmoduleGens(tgt, [vec_of(P("x1", n))])
    ker = gb.kernel(ident, target_relations=rels)
    assert gb.equal(ker, gb.SubmoduleGens(src, [vec_of(P("x1", n))]))


@st.composite
def submodule_pairs(draw):
    """Two homogeneous generating sets in one free module, n <= 3."""
    a = draw(homogeneous_submodules(n=st.integers(1, 3)))
    return a, homogeneous_gens(draw, a.ambient)


@given(submodule_pairs(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_kernel_is_complete_by_hilbert_function(pair, with_relations):
    # f sends a's generators and a zero column into G/R; its image there
    # is (Im f + R)/R, so HF(Ker f) = HF(F) - (HF(Im f + R) - HF(R))
    a, b = pair
    amb = a.ambient
    cols = list(a.vectors) + [Vec(amb.n, {}, amb.field)]
    source = GradedFreeModule(
        amb.n, [v.homogeneous_degree(amb) for v in a.vectors] + [1],
        field=amb.field)
    f = ModuleMap.from_columns(source, amb, cols)
    ker = gb.kernel(f, target_relations=b if with_relations else None)
    rels = b if with_relations else gb.SubmoduleGens(amb, [])
    image = gb.submodule_sum(gb.SubmoduleGens(amb, cols, check=False), rels)
    assert hilbert_function(ker, 10, submodule=True) == [
        d - (i - r) for d, i, r in zip(
            free_hf(source, 10), hilbert_function(image, 10, submodule=True),
            hilbert_function(rels, 10, submodule=True))]


@given(submodule_pairs(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_zero_columns_add_their_units_to_the_kernel(pair, with_relations,
                                                    data):
    # zero columns at random places: kernel(f) runs on the image's own
    # generating set, zeros kept, and gives the kernel of the map without
    # them, relabelled, plus e_j for each zero column j
    a, b = pair
    amb = a.ambient
    n, field = amb.n, amb.field
    rels = b if with_relations else None
    zeros = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    slots = data.draw(st.permutations(
        [True] * len(zeros) + [False] * len(a.vectors)))
    cols, twists, kept, zero_at = [], [], [], []
    nonzero, zero_twist = iter(a.vectors), iter(zeros)
    for j, is_zero in enumerate(slots):
        if is_zero:
            cols.append(Vec.zero(n, field))
            twists.append(next(zero_twist))
            zero_at.append(j)
        else:
            cols.append(next(nonzero))
            twists.append(cols[-1].homogeneous_degree(amb))
            kept.append(j)
    f = ModuleMap.from_columns(GradedFreeModule(n, twists, field=field), amb,
                               cols)
    f0 = ModuleMap.from_columns(
        GradedFreeModule(n, [twists[j] for j in kept], field=field), amb,
        a.vectors)
    ker = gb.kernel(f, target_relations=rels)
    vectors = cols + (list(b.vectors) if with_relations else [])
    image = gb.SubmoduleGens(amb, vectors)
    assert image.vectors == tuple(vectors)
    assert gb.kernel(f, target_relations=rels,
                     image=image).vectors == ker.vectors
    units = [Vec.unit(n, j, field) for j in zero_at]
    assert all(u in ker.vectors for u in units)
    relabelled = [Vec(n, {(kept[pos], exp): c
                          for (pos, exp), c in h.terms.items()}, field)
                  for h in gb.kernel(f0, target_relations=rels).vectors]
    assert gb.equal(ker, gb.SubmoduleGens(f.source, relabelled + units))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)],
                         ids=["Q", "F32003"])
def test_zero_vectors_are_kept_and_skipped_at_intake(field):
    amb = GradedFreeModule(2, [0], field=field)
    x1, x2 = (Vec(2, {(0, e): field.one}, field) for e in ((1, 0), (0, 1)))
    zero = Vec.zero(2, field)
    gens = gb.SubmoduleGens(amb, [zero, x1, zero, x2])
    assert gens.vectors == (zero, x1, zero, x2)
    # intake order: ascending degree, then sorted term keys
    assert gb.minimal_generators(gens).vectors == (x2, x1)
    mg, syz = gb.minimal_syzygies(gens)
    assert mg.vectors == (x2, x1) and len(syz.vectors) == 1
    # a trailing zero: the nonzero ones are in intake order, yet not all
    mg, _ = gb.minimal_syzygies(gb.SubmoduleGens(amb, [x2, x1, zero]))
    assert mg.vectors == (x2, x1)
    rows = gb.syzygies(gens).vectors
    for i in (0, 2):
        assert Vec.unit(2, i, field) in rows
    koszul_row = Vec(2, {(1, (0, 1)): field.one, (3, (1, 0)): -field.one},
                     field)
    assert gb.equal(gb.syzygies(gens), gb.SubmoduleGens(
        gb._book(amb, gens.vectors),
        [Vec.unit(2, 0, field), Vec.unit(2, 2, field), koszul_row]))
    assert gb.lift(x2, gens) == Vec.unit(2, 3, field)
    other = PrimeField(7) if field == RATIONALS else RATIONALS
    with pytest.raises(DimensionMismatch):
        gb.SubmoduleGens(amb, [x1, Vec.zero(2, other)])


def test_kernel_refuses_an_image_of_other_generators():
    # a caller's image must hold the map's columns (zero ones included)
    # and relations, in an ambient ordered like its target
    n = 2
    src = GradedFreeModule(n, [1, 1, 0])
    tgt = GradedFreeModule(n, [0])
    cols = [vec_of(P("x1", n)), vec_of(P("x2", n)), Vec.zero(n)]
    f = ModuleMap.from_columns(src, tgt, cols)
    rels = gb.SubmoduleGens(tgt, [vec_of(P("x1^2", n))])
    for image, relations in (
            (gb.SubmoduleGens(tgt, cols[:2]), None),
            (gb.SubmoduleGens(tgt, cols[::-1]), None),
            (gb.SubmoduleGens(tgt, cols), rels),
            (gb.SubmoduleGens(GradedFreeModule(n, [0], field=PrimeField(7)),
                              cols, check=False), None)):
        with pytest.raises(AssertionError):
            gb.kernel(f, target_relations=relations, image=image)
    shifted = gb.SubmoduleGens(GradedFreeModule(n, [3]), cols, check=False)
    assert gb.kernel(f, image=shifted).vectors == gb.kernel(f).vectors


# ---------------------------------------------------------------------------
# submodule operations
# ---------------------------------------------------------------------------

def test_intersection_of_coprime_principal_ideals():
    a = ideal_gens(2, "x1")
    b = ideal_gens(2, "x2")
    inter = gb.intersect(a, b)
    assert gb.equal(inter, ideal_gens(2, "x1*x2"))


def test_intersection_builds_no_basis_of_either_side():
    a = ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2")
    b = ideal_gens(3, "x1", "x3^2")
    gb.intersect(a, b)
    assert a._gb is None and b._gb is None


@given(submodule_pairs())
@settings(max_examples=60, deadline=None)
def test_intersection_is_contained_in_both_and_complete(pair):
    a, b = pair
    inter = gb.intersect(a, b)
    for basis in (gb.groebner(a), gb.groebner(b)):
        assert all(gb.normal_form(v, basis).is_zero() for v in inter.vectors)
    # 0 -> a∩b -> a⊕b -> a+b -> 0 is exact, so HF(a∩b) + HF(a+b) =
    # HF(a) + HF(b); with a∩b contained in both, this equality in every
    # degree of the window says no element of the intersection is missing
    def hf(gens):
        return hilbert_function(gens, 6, submodule=True)

    assert list(map(sum, zip(hf(inter), hf(gb.submodule_sum(a, b))))) == \
        list(map(sum, zip(hf(a), hf(b))))


def test_intersection_against_syzygy_route():
    # independent construction: x ∈ A∩B iff (h, k) with Σh a = x = Σk b,
    # i.e. first-block combinations from the kernel of [A | -B]
    rng = random.Random(21)
    for _ in range(5):
        n = 2
        texts_a = [rng.choice(["x1^2", "x1*x2", "x2^2", "x1^3"])
                   for _ in range(2)]
        texts_b = [rng.choice(["x1*x2", "x2^2", "x2^3", "x1^2*x2"])
                   for _ in range(2)]
        A = ideal_gens(n, *texts_a)
        B = ideal_gens(n, *texts_b)
        inter = gb.intersect(A, B)
        amb = A.ambient
        degs = [v.homogeneous_degree(amb) for v in A.vectors]
        degs += [v.homogeneous_degree(amb) for v in B.vectors]
        book = GradedFreeModule(n, degs)
        cols = list(A.vectors) + [-v for v in B.vectors]
        mat = ModuleMap.from_columns(book, amb, cols)
        combos = []
        for s in gb.kernel(mat).vectors:
            acc = Vec(n, {})
            for (i, exp), c in s.terms.items():
                if i < len(A.vectors):
                    acc = acc + A.vectors[i].mul_poly(
                        Polynomial.monomial(n, exp, c))
            if not acc.is_zero():
                combos.append(acc)
        oracle = gb.SubmoduleGens(amb, combos, check=False)
        assert gb.equal(inter, oracle)


def test_containment_by_divisibility():
    assert gb.contains(ideal_gens(2, "x1"), ideal_gens(2, "x1^2"))
    assert not gb.contains(ideal_gens(2, "x1^2"), ideal_gens(2, "x1"))


def test_equal_agrees_with_mutual_containment():
    rng = random.Random(4)
    pool = ["x1^2", "x1*x2", "x2^2", "x1^2 - x1*x2", "x2^3"]
    for _ in range(8):
        A = ideal_gens(2, *rng.sample(pool, 2))
        B = ideal_gens(2, *rng.sample(pool, 2))
        assert gb.equal(A, B) == (gb.contains(A, B) and gb.contains(B, A))


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def combination(h, gens):
    """Σ h_i g_i for a cofactor vector h over the generators."""
    return sum((g.mul_poly(h.component(i))
                for i, g in enumerate(gens.vectors)), Vec(gens.ambient.n, {}))


def test_lift_recovers_membership_witness():
    amb = GradedFreeModule(2, [0])
    gens = gb.SubmoduleGens(amb, [vec_of(P("x1", 2)), vec_of(P("x2", 2))])
    h = gb.lift(vec_of(P("x1*x2", 2)), gens)
    assert h.positions() <= {0, 1}
    assert combination(h, gens) == vec_of(P("x1*x2", 2))


def test_lift_of_generator_is_witnessed():
    gens = example1_ideal()
    h = gb.lift(vec_of(P("x1*x4", 6)), gens)
    assert max(h.positions()) < len(gens)
    assert combination(h, gens) == vec_of(P("x1*x4", 6))


def test_lift_of_nonmember_is_none():
    gens = example1_ideal()
    assert gb.lift(vec_of(P("x1^2", 6)), gens) is None


def corrupt_element_cofactors(eng):
    for elem in eng.basis:
        elem.cof = {k: c * Fraction(2) for k, c in elem.cof.items()}


def corrupt_a_recorded_syzygy(eng):
    # a unit term adds v_0 to the combination; scaling the row would
    # leave it a syzygy
    eng.syzygies[0] = eng.syzygies[0] + Vec(2, {(0, (0, 0)): Fraction(1)})


def test_certificates_catch_a_corrupted_tracked_cofactor():
    # the second generators make the certificates clear denominators
    amb = GradedFreeModule(2, [0])
    target = vec_of(P("x1*x2 + x2^2", 2))
    for texts, (check, corrupt, message) in itertools.product(
            (("x1", "x2", "x1 + x2"), ("1/2*x1", "2/3*x2", "x1 + 1/3*x2")),
            ((lambda g: gb.lift(target, g), corrupt_element_cofactors,
              "lift certificate failed"),
             (gb.syzygies, corrupt_a_recorded_syzygy,
              "engine produced a non-syzygy"))):
        gens = gb.SubmoduleGens(amb, [vec_of(P(t, 2)) for t in texts])
        check(gens)  # sound before the corruption
        corrupt(gb._tracked(gens))
        with pytest.raises(AssertionError, match=message):
            check(gens)


# ---------------------------------------------------------------------------
# one tracked engine per submodule
# ---------------------------------------------------------------------------

def copy_of(gens):
    return gb.SubmoduleGens(gens.ambient, gens.vectors, check=False)


def terms_of(vectors):
    return [list(v.terms.items()) for v in vectors]


@given(homogeneous_submodules(), st.sampled_from(["lift", "syzygies"]))
@settings(max_examples=60, deadline=None)
def test_shared_tracked_engine_changes_no_result(gens, first):
    expected = gb.groebner(copy_of(gens))
    expected_syz = terms_of(gb.syzygies(copy_of(gens)).vectors)
    if first == "lift":
        for v in gens.vectors:
            assert gb.lift(v, gens) is not None
    else:
        assert terms_of(gb.syzygies(gens).vectors) == expected_syz
    assert gens._tracked is not None and gens._gb is None
    basis = gb.groebner(gens)
    assert basis.leads == expected.leads
    assert terms_of(basis.vectors) == terms_of(expected.vectors)
    assert terms_of(gb.syzygies(gens).vectors) == expected_syz


def test_groebner_after_lift_runs_no_second_buchberger(monkeypatch):
    gens = ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2", "x2^2*x3 - x1*x3^2")
    gb.lift(gens.vectors[0], gens)
    tracked = gens._tracked
    runs = []
    monkeypatch.setattr(gb._Engine, "process", lambda self: runs.append(self))
    gb.groebner(gens)
    gb.syzygies(gens)
    assert runs == []
    assert gens._tracked is tracked


# ---------------------------------------------------------------------------
# a vector keeps its keyed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)])
def test_a_vec_keyed_under_two_orders_gives_what_a_fresh_copy_gives(field):
    """v's two positions lie 2 degrees apart under the twists (0, 2) and
    level under (0, 0), so each order keys them differently.  Each order
    keys v in turn, twice, and every result equals that of a copy of v
    that was never keyed."""
    n = 3

    def vec(*texts):
        return Vec.from_polys(n, [parse_polynomial(s, n, field)
                                  for s in texts], field)

    v = vec("x1^3*x3", "2*x1*x2 - x3^2")
    # over F_p a second PrimeField(32003): equal, but another object
    again = field if field == RATIONALS else PrimeField(32003)
    cases = [
        (GradedFreeModule(n, [0, 0], field=field),
         [vec("x1", "0"), vec("0", "x3"), vec("x2", "x3")]),
        (GradedFreeModule(n, [0, 2], field=field),
         [vec("x1^4", "x1^2"), vec("x1^3*x3", "2*x1*x2 - x3^2")]),
        (GradedFreeModule(n, [0, 2], field=again),
         [vec("x1^2*x3^2", "x3^2"), vec("x1^3*x3", "x1*x2")]),
    ]

    def results(w, amb, vectors):
        gens = gb.SubmoduleGens(amb, vectors)
        basis = gb.groebner(gens)
        h = gb.lift(w, gens)
        out = (gb.member(w, basis), terms_of([gb.normal_form(w, basis)]),
               None if h is None else terms_of([h]))
        if w.is_homogeneous(amb):  # a generator of a run, too
            out += (len(gb.groebner(gb.SubmoduleGens(amb, vectors + [w]))),
                    len(gb.syzygies(gb.SubmoduleGens(amb, vectors + [w]))))
        return out

    seen = []
    for _ in range(2):
        for amb, vectors in cases:
            got = results(v, amb, vectors)
            assert got == results(Vec(n, v.terms, v.field), amb, vectors)
            seen.append(got[0])
            assert v._keyed is not None
    assert True in seen and False in seen
    fresh = Vec(n, v.terms, v.field)
    assert fresh._keyed is None
    assert v == fresh and hash(v) == hash(fresh)
    assert str(v) == str(fresh) and repr(v) == repr(fresh)


def test_member_twice_on_one_vec_gives_the_same_answer():
    """A reduction consumes its work dict; the kept keyed form must
    survive it."""
    basis = gb.groebner(ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2"))
    inside = vec_of(P("x1^3 - x1*x2*x3 + x1*x2 - x3^2", 3))
    outside = vec_of(P("x2^2 + x1*x3", 3))
    for v, expected in ((inside, True), (outside, False)):
        assert gb.member(v, basis) is expected
        kept = dict(v._keyed[2])
        assert kept
        assert gb.member(v, basis) is expected
        assert v._keyed[2] == kept


# ---------------------------------------------------------------------------
# krull dimension
# ---------------------------------------------------------------------------

def test_dimension_of_irrelevant_ideal_is_zero():
    gens = ideal_gens(6, *[f"x{i}" for i in range(1, 7)])
    assert gb.krull_dim(gens) == 0


def test_dimension_of_product_ideal_is_three():
    assert gb.krull_dim(example1_ideal()) == 3


def test_dimension_of_hypersurface():
    gens = ideal_gens(6, "x1^2")
    assert gb.krull_dim(gens) == 5


def test_unit_ideal_flagged_as_negative_dimension():
    amb = GradedFreeModule(2, [0])
    unit_gens = gb.SubmoduleGens(
        amb, [Vec(2, {(0, (0, 0)): Fraction(1)})], check=False)
    assert gb.krull_dim(unit_gens) == -1


def test_dimension_matches_series_pole_order_on_corpus():
    # the combinatorial dimension against the fully independent route:
    # numerator of the minimal free resolution, differentiated at 1
    from bseq import resolution as rl
    from bseq.modules import FPModule
    corpus = [
        ideal_gens(3, "x1^2", "x2^3"),
        ideal_gens(3, "x1*x2", "x2*x3"),
        ideal_gens(4, "x1*x2 - x3*x4"),
        example1_ideal(),
    ]
    for ideal in corpus:
        n = ideal.ambient.n
        fp = FPModule(ideal.ambient, list(ideal.vectors))
        cc, _ = rl.minimal_resolution(fp)
        hn = rl.hilbert_numerator(cc)
        pole = n - hn.split_at_one()[0]
        assert gb.krull_dim(ideal) == pole


def test_dimension_of_half_the_variables_in_forty():
    # (x1..x20) in n = 40: no variable set larger than 20 avoids every
    # lead support, so a search over subsets by size walks C(40, k) sets
    # for each k > 20; the least set meeting every support has 20
    gens = ideal_gens(40, *[f"x{i}" for i in range(1, 21)])
    start = time.perf_counter()
    assert gb.krull_dim(gens) == 20
    assert time.perf_counter() - start < 10


@st.composite
def monomial_ideals(draw):
    """Up to 6 non-constant monomials in n <= 6 variables."""
    n = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return n, draw(st.lists(exps, max_size=6))


@given(monomial_ideals())
@settings(max_examples=200, deadline=None)
def test_krull_dim_is_the_pole_order_of_the_numerator(case):
    # dim S/I = n - (the order of Q at 1) for Hilb = Q/(1 - λ)^n
    n, exps = case
    ideal = gb.SubmoduleGens(GradedFreeModule(n, [0]),
                             [Vec(n, {(0, e): Fraction(1)}) for e in exps])
    order, _ = rl.HilbertNumerator(gb.quotient_numerator(ideal),
                                   n).split_at_one()
    assert gb.krull_dim(ideal) == n - order


# ---------------------------------------------------------------------------
# minimal generators and rank
# ---------------------------------------------------------------------------

def test_minimal_generators_drop_redundant_members():
    gens = ideal_gens(2, "x1", "x1^2", "x2", "x1*x2")
    mg = gb.minimal_generators(gens)
    names = sorted(str(v.component(0)) for v in mg.vectors)
    assert names == ["x1", "x2"]


def test_minimal_generators_preserve_span():
    rng = random.Random(13)
    pool = ["x1^2", "x1*x2", "x2^2", "x1^3", "x1^2*x2", "x2^3"]
    for _ in range(6):
        gens = ideal_gens(2, *rng.sample(pool, 4))
        mg = gb.minimal_generators(gens)
        assert gb.equal(gens, mg)


def reference_minimal_generators(gens):
    """The greedy scan with a full Buchberger run after every kept
    generator: the reference the truncated run must match."""
    amb = gens.ambient
    order = gb.ModuleOrder(amb.n, amb.twists)
    idx = sorted(range(len(gens.vectors)), key=lambda i: (
        gens.vectors[i].homogeneous_degree(amb),
        sorted(order.key(*t) for t in gens.vectors[i].terms)))
    eng = gb._Engine(amb.n, order, amb.field, ambient_rank=amb.rank)
    kept = []
    for i in idx:
        v = gens.vectors[i]
        if eng._adjoin(*eng._reduce(*eng._keyed(v))) is not None:
            kept.append(v)
            eng.process()
    return kept


@st.composite
def generators_with_redundancy(draw):
    """homogeneous_submodules plus redundant generators: scalar and
    monomial multiples, sums and S-vectors of others, all shuffled.  An
    S-vector is redundant only through its S-pair, so it is kept wrongly
    if the pair of its degree has not been processed."""
    gens = draw(homogeneous_submodules())
    amb = gens.ambient
    field = amb.field
    key = gb.ModuleOrder(amb.n, amb.twists).key
    vecs = list(gens.vectors)
    for _ in range(draw(st.integers(0, 5))):
        v = draw(st.sampled_from(vecs))
        w = draw(st.sampled_from(vecs))
        kind = draw(st.sampled_from(["scalar", "monomial", "sum", "spair"]))
        if kind == "scalar":
            u = v.scale(field.from_int(draw(st.integers(-3, 3).filter(bool))))
        elif kind == "monomial":
            exp = [0] * amb.n
            exp[draw(st.integers(0, amb.n - 1))] += 1
            u = v.mul_poly(Polynomial.monomial(amb.n, exp, field.one))
        elif kind == "sum":
            same = v.homogeneous_degree(amb) == w.homogeneous_degree(amb)
            u = v + w if same else v
        else:
            (pv, ev), (pw, ew) = (max(x.terms, key=lambda t: key(*t))
                                  for x in (v, w))
            if pv != pw:
                continue
            lcm = mono_lcm(ev, ew)
            u = (v.mul_poly(Polynomial.monomial(
                     amb.n, [a - b for a, b in zip(lcm, ev)], w.terms[(pw, ew)]))
                 - w.mul_poly(Polynomial.monomial(
                     amb.n, [a - b for a, b in zip(lcm, ew)], v.terms[(pv, ev)])))
        if u:
            vecs.append(u)
    return gb.SubmoduleGens(amb, draw(st.permutations(vecs)))


@given(generators_with_redundancy())
@settings(max_examples=80, deadline=None)
def test_truncated_minimal_generators_match_the_full_run(gens):
    kept = gb.minimal_generators(gens).vectors
    ref = reference_minimal_generators(gens)
    assert len(kept) == len(ref)
    assert all(a is b for a, b in zip(kept, ref))


@given(generators_with_redundancy(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_basis_and_minimal_count_ignore_generator_order(gens, rng):
    shuffled = list(gens.vectors)
    rng.shuffle(shuffled)
    again = gb.SubmoduleGens(gens.ambient, shuffled)
    basis, basis_again = gb.groebner(gens), gb.groebner(again)
    assert basis_again.leads == basis.leads
    assert terms_of(basis_again.vectors) == terms_of(basis.vectors)
    assert len(gb.minimal_generators(again)) == len(
        gb.minimal_generators(gens))


@pytest.mark.parametrize("first", ["minimal_generators", "groebner"])
def test_minimal_generators_and_groebner_share_one_run(monkeypatch, first):
    """Either order builds one untracked run, which ``_engine_for`` then
    returns, and the basis's interreduction engine: no other engine."""
    gens = ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2", "x2^2*x3 - x1*x3^2",
                      "x1^3 - x1*x2*x3")
    built = []
    init = gb._Engine.__init__

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gb._Engine, "__init__", spy_init)
    calls = [gb.minimal_generators, gb.groebner]
    for call in calls if first == "minimal_generators" else calls[::-1]:
        call(gens)
    basis = gb.groebner(gens)
    run = gb._engine_for(gens)
    minimal = gb.minimal_generators(gens)
    assert built == [run, basis.reducer]
    assert not run.track and not run.pairs
    # the cubics lie in the ideal of the quadrics
    assert sorted(map(str, minimal.vectors)) == sorted(
        map(str, gens.vectors[:2]))


@given(homogeneous_submodules(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_truncated_process_leaves_exactly_the_pairs_above_its_degree(gens, d):
    amb = gens.ambient
    eng = gb._Engine(amb.n, gb.ModuleOrder(amb.n, amb.twists), amb.field,
                     ambient_rank=amb.rank)
    for v in gens.vectors:
        eng._adjoin(*eng._reduce(*eng._keyed(v)))
    eng.process(upto=d)

    def degree(i, j):
        lcm = mono_lcm(eng.basis[i].exp, eng.basis[j].exp)
        return sum(lcm) + amb.twists[eng.basis[i].pos]

    pairs = {p for idxs in eng.buckets.values()
             for p in itertools.combinations(idxs, 2)}
    queued = [(i, j) for _, _, i, j in eng.pairs]
    assert len(queued) == len(set(queued))
    assert set(queued) == {p for p in pairs if degree(*p) > d}
    assert eng.done == pairs - set(queued)
    # the pairs left queued complete the run
    eng.process()
    basis = gb.groebner(gens)
    reducer = eng.reduced_basis()
    vectors = list(gb.GroebnerBasis(amb, reducer).vectors)
    assert vectors == list(basis.vectors)
    assert [(g.pos, g.exp) for g in reducer.basis] == list(basis.leads)


def rational_normal_quintic_ideal():
    """The ideal of the rational normal quintic: n = 6, the 2x2 minors of
    [[x1..x5], [x2..x6]]."""
    x = [f"x{i}" for i in range(1, 7)]
    return ideal_gens(6, *[f"{x[i]}*{x[j + 1]} - {x[j]}*{x[i + 1]}"
                           for i, j in itertools.combinations(range(5), 2)])


def test_minimal_generators_reduce_no_pair_above_the_largest_degree(
        monkeypatch):
    """minimal_generators reduces no S-pair above its largest generator
    degree, on each syzygy module of E(6,2)'s resolution and of the
    rational normal quintic's, some of which are not minimal."""
    degs = []  # degrees of the pairs reduced since the last clear
    spair = gb._Engine._spair

    def spy_spair(self, i, j, lcm_key):
        pos, exp = self.order.term(lcm_key)
        degs.append(sum(exp) + self.order.twists[pos])
        return spair(self, i, j, lcm_key)

    monkeypatch.setattr(gb._Engine, "_spair", spy_spair)
    fp = koszul.E(6, 2).fp
    f0, rels = rl._prune_presentation(fp.presentation, fp.relations)
    steps = redundant = 0
    for current in (gb.SubmoduleGens(f0, rels, check=False),
                    rational_normal_quintic_ideal()):
        # the steps of minimal_resolution, each minimized by a fresh run
        while current.vectors:
            degs.clear()
            mg = gb.minimal_generators(current)
            assert all(d <= max(current.degrees()) for d in degs)
            steps += 1
            redundant += len(mg.vectors) < len(current.vectors)
            current = gb.syzygies(mg)
    assert steps == 8 and redundant >= 1


def test_submodule_rank_counts_lead_positions():
    n = 2
    amb = GradedFreeModule(n, [0, 0, 1])
    gens = gb.SubmoduleGens(amb, [
        Vec(n, {(0, (1, 0)): Fraction(1)}),
        Vec(n, {(2, (0, 0)): Fraction(1), (1, (0, 1)): Fraction(1)}),
    ])
    assert gb.submodule_rank(gens) == 2


def injectivity_corpus(field):
    """Maps whose injectivity is known from their kernels: each manifest's
    f and beta∘f, f with a duplicated and with a zero column, a map from
    the rank-0 module, and every Koszul differential for n = 4 (the top
    one injective, and ∂_5 from the rank-0 K_5)."""
    maps = []
    for i in (1, 2, 3):
        p = load_problem(f"example{i}.json", field)
        maps += [p.f, compose(p.beta_map, p.f)]
    p = load_problem("example1.json", field)
    cols, twists = p.f.columns(), list(p.f.source.twists)
    zero = Vec(p.n, {}, field)
    for extra, tw in ((cols[0], twists[0]), (zero, 0)):
        maps.append(ModuleMap.from_columns(
            GradedFreeModule(p.n, twists + [tw], field=field), p.G,
            cols + [extra]))
    maps.append(ModuleMap.from_columns(GradedFreeModule(p.n, [], field=field),
                                       p.G, []))
    maps += [koszul.koszul_differential(4, s, field=field)
             for s in range(1, 6)]
    return maps


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)],
                         ids=["Q", "F32003"])
def test_injective_agrees_with_an_empty_kernel(field):
    verdicts = [(gb.injective(f), not gb.kernel(f).vectors)
                for f in injectivity_corpus(field)]
    assert all(rank == ker for rank, ker in verdicts)
    assert {rank for rank, _ in verdicts} == {True, False}


def three_columns():
    # columns of a map in the synth batch: intake reduces the second to a
    # new element and the third to zero
    amb = GradedFreeModule(3, [3])
    return gb.SubmoduleGens(amb, [
        Vec(3, {(0, (1, 0, 0)): Fraction(1), (0, (0, 1, 0)): Fraction(2)}),
        Vec(3, {(0, (1, 0, 0)): Fraction(2), (0, (0, 0, 1)): Fraction(2)}),
        Vec(3, {(0, (0, 1, 0)): Fraction(2), (0, (0, 0, 1)): Fraction(-1)}),
    ])


@pytest.mark.parametrize("use", ["syzygies", "kernel"])
def test_syzygies_divide_no_input_again(monkeypatch, use):
    # the rows are the zero reductions the tracked run recorded, so
    # syzygies reduces nothing itself
    gens = three_columns()
    reduce = gb._Engine._reduce
    redivisions = []

    def spy(self, *args):
        if sys._getframe(1).f_code is gb.syzygies.__code__:
            redivisions.append(args)
        return reduce(self, *args)

    monkeypatch.setattr(gb._Engine, "_reduce", spy)
    if use == "syzygies":
        result = gb.syzygies(gens)
    else:
        result = gb.kernel(ModuleMap.from_columns(
            gb._book(gens.ambient, gens.vectors), gens.ambient,
            gens.vectors))
    assert result.vectors and redivisions == []


def rational_normal_quintic_first_syzygies():
    """The 20 linear first syzygies of the rational normal quintic's
    ideal (``rational_normal_quintic_ideal``), as vectors of rank 10 with
    all twists 2."""
    # the steps of minimal_resolution
    ideal = gb.minimal_generators(rational_normal_quintic_ideal())
    return gb.minimal_generators(gb.syzygies(ideal))


def test_each_distinct_syzygy_row_is_certified_once(monkeypatch):
    # the syzygies of the rational normal quintic's first syzygies record
    # one row twice
    gens = rational_normal_quintic_first_syzygies()
    assert len(gens.vectors) == 20 and gens.ambient.twists == (2,) * 10
    rows = [frozenset(s.terms.items()) for s in gb._tracked(gens).syzygies]
    assert len(set(rows)) < len(rows)
    combination = gb._combination
    certified = []

    def spy(vectors, cof, p):
        certified.append(frozenset(cof.items()))
        return combination(vectors, cof, p)

    monkeypatch.setattr(gb, "_combination", spy)
    syz = gb.syzygies(gens)
    assert len(certified) == len(set(certified)) == len(syz.vectors) == \
        len(set(rows))


# ---------------------------------------------------------------------------
# lead-term Hilbert functions
# ---------------------------------------------------------------------------

def test_hilbert_of_zero_ideal():
    amb = GradedFreeModule(2, [0])
    gens = gb.SubmoduleGens(amb, [])
    basis = gb.groebner(gens)
    assert hilbert_function(basis, 4) == [1, 2, 3, 4, 5]


def test_hilbert_of_product_ideal_matches_closed_form():
    basis = gb.groebner(example1_ideal())
    hf = hilbert_function(basis, 6)
    from math import comb
    assert hf == [2 * comb(d + 2, 2) - (1 if d == 0 else 0) for d in range(7)]


def test_hilbert_of_irrelevant_ideal():
    basis = gb.groebner(ideal_gens(3, "x1", "x2", "x3"))
    assert hilbert_function(basis, 3) == [1, 0, 0, 0]


def test_hilbert_function_against_direct_enumeration():
    rng = random.Random(2)
    from bseq.rings import mono_divides
    for _ in range(5):
        n = 3
        gens = ideal_gens(n, *(rng.sample(
            ["x1^2", "x1*x2", "x2^2*x3", "x3^3", "x1*x3^2"], 3)))
        basis = gb.groebner(gens)
        hf = hilbert_function(basis, 6)
        leads = [exp for _, exp in basis.leads]
        for d in range(7):
            count = 0
            for exp in itertools.product(range(d + 1), repeat=n):
                if sum(exp) != d:
                    continue
                if not any(mono_divides(l, exp) for l in leads):
                    count += 1
            assert hf[d] == count


# ---------------------------------------------------------------------------
# packed order keys
# ---------------------------------------------------------------------------

def tuple_key(twists, pos, exp):
    """The term order as a tuple: the reference the packed keys must match."""
    deg = sum(exp)
    return (deg + twists[pos], deg, tuple(-e for e in reversed(exp)), -pos)


@st.composite
def order_cases(draw):
    n = draw(st.integers(1, 6))
    twists = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    exps = st.tuples(*[st.integers(0, 6)] * n)
    positions = st.integers(0, len(twists) - 1)
    terms = draw(st.lists(st.tuples(positions, exps), min_size=2, max_size=2))
    shift = draw(exps)
    other = draw(positions)
    return n, twists, terms, shift, other


@given(order_cases())
@settings(max_examples=300, deadline=None)
def test_packed_key_orders_like_the_tuple_key(case):
    n, twists, ((p1, e1), (p2, e2)), _, _ = case
    order = gb.ModuleOrder(n, twists)
    k1, k2 = order.key(p1, e1), order.key(p2, e2)
    t1 = tuple_key(twists, p1, e1)
    t2 = tuple_key(twists, p2, e2)
    assert (k1 < k2) == (t1 < t2)
    assert (k1 == k2) == (t1 == t2)
    assert order.term(k1) == (p1, e1)


@given(order_cases())
@settings(max_examples=300, deadline=None)
def test_packed_key_is_additive(case):
    n, twists, ((pos, exp), _), shift, other = case
    order = gb.ModuleOrder(n, twists)
    delta = order.key(other, shift) - order.key(other, (0,) * n)
    moved = tuple(a + b for a, b in zip(exp, shift))
    assert order.key(pos, moved) == order.key(pos, exp) + delta


@given(order_cases(), st.integers(-8, 44))
@settings(max_examples=300, deadline=None)
def test_max_key_bounds_the_keys_of_a_degree(case, d):
    n, twists, ((pos, exp), _), _, _ = case
    order = gb.ModuleOrder(n, twists)
    assert (order.key(pos, exp) <= order.max_key(d)) == (
        sum(exp) + twists[pos] <= d)


def test_packed_key_range_boundary():
    top = 1 << gb.ModuleOrder.BITS
    order = gb.ModuleOrder(2, [0, 3])
    # the largest admitted terms still order like the tuple key
    edge = [(0, (top - 1, 0)), (0, (top - 2, 1)), (0, (0, top - 1)),
            (1, (top - 4, 0)), (1, (0, top - 4)), (1, (0, 0))]
    for a, b in itertools.combinations(edge, 2):
        assert (order.key(*a) < order.key(*b)) == (
            tuple_key([0, 3], *a) < tuple_key([0, 3], *b))
        assert order.term(order.key(*a)) == a
    for pos, exp in ((0, (top, 0)), (0, (1, top - 1)), (1, (top - 3, 0))):
        with pytest.raises(ValueError, match="range"):
            order.key(pos, exp)


def test_reduction_at_the_range_boundary():
    top = 1 << gb.ModuleOrder.BITS
    basis = gb.groebner(ideal_gens(2, "x1^60000 - x2^60000"))
    v = vec_of(P(f"x1^{top - 1}", 2))
    assert gb.normal_form(v, basis) == vec_of(
        P(f"x1^{top - 60001}*x2^60000", 2))
    with pytest.raises(ValueError, match="range"):
        gb.normal_form(vec_of(P(f"x1^{top}", 2)), basis)


@st.composite
def pack_cases(draw):
    """A term dict over random twists whose degrees are drawn near 0 and
    up to just past the key range, so some terms sit on its boundary and
    some beyond it."""
    n = draw(st.integers(1, 4))
    twists = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    top = 1 << gb.ModuleOrder.BITS
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        pos = draw(st.integers(0, len(twists) - 1))
        room = top - 1 - (twists[pos] - min(twists))  # the largest degree
        deg = draw(st.sampled_from([0, 1, room - 1, room, room + 1])
                   | st.integers(0, room + 2))
        cuts = sorted(draw(st.lists(st.integers(0, deg), min_size=n - 1,
                                    max_size=n - 1)))
        exp = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        terms[(pos, exp)] = draw(st.integers(-5, 5).filter(bool))
    return n, twists, terms


def assert_packs_like_key(order, terms):
    """``order.pack(terms)`` is each term's negated key, or raises what
    ``order.key`` raises for the first term out of range."""
    for pos, exp in terms:
        try:
            order.key(pos, exp)
        except ValueError as keyed:
            with pytest.raises(ValueError) as packed:
                order.pack(terms)
            assert str(packed.value) == str(keyed)
            return
    assert order.pack(terms) == {-order.key(pos, exp): c
                                 for (pos, exp), c in terms.items()}


@given(pack_cases())
@settings(max_examples=300, deadline=None)
def test_pack_is_the_negated_key_of_each_term(case):
    n, twists, terms = case
    assert_packs_like_key(gb.ModuleOrder(n, twists), terms)


def test_pack_range_boundary():
    # the cases of test_packed_key_range_boundary, packed as one vector
    # and reduced by normal_form
    top = 1 << gb.ModuleOrder.BITS
    amb = GradedFreeModule(2, [0, 3])
    order = gb.ModuleOrder(2, amb.twists)
    edge = {(0, (top - 1, 0)): 1, (0, (top - 2, 1)): 2, (0, (0, top - 1)): 3,
            (1, (top - 4, 0)): 4, (1, (0, top - 4)): 5, (1, (0, 0)): 6}
    assert_packs_like_key(order, edge)
    # x1^3·e_0 - e_1 moves x1^3·m·e_0 to m·e_1
    basis = gb.groebner(gb.SubmoduleGens(
        amb, [Vec(2, {(0, (3, 0)): 1, (1, (0, 0)): -1})]))
    assert gb.normal_form(Vec(2, edge), basis) == Vec(2, {
        (1, (top - 4, 0)): 5, (1, (top - 5, 1)): 2, (0, (0, top - 1)): 3,
        (1, (0, top - 4)): 5, (1, (0, 0)): 6})
    for pos, exp in ((0, (top, 0)), (0, (1, top - 1)), (1, (top - 3, 0))):
        terms = {**edge, (pos, exp): 7}
        assert_packs_like_key(order, terms)
        with pytest.raises(ValueError) as keyed:
            order.key(pos, exp)
        with pytest.raises(ValueError) as reduced:
            gb.normal_form(Vec(2, terms), basis)
        assert str(reduced.value) == str(keyed.value)


@st.composite
def divisibility_cases(draw):
    """Two exponent vectors at one position of a graded free module, each
    within the key range, exponents drawn near 0 and up to 2^16 - 1; the
    second is a multiple of the first in about half the cases."""
    n = draw(st.integers(1, 4))
    twists = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    pos = draw(st.integers(0, len(twists) - 1))
    room = (1 << gb.ModuleOrder.BITS) - 1 - (twists[pos] - min(twists))

    def exponent(left):
        exp = []
        for _ in range(n):
            e = draw(st.sampled_from([0, 1, 2, left - 1, left])
                     | st.integers(0, left))
            e = max(0, min(e, left))
            exp.append(e)
            left -= e
        return tuple(draw(st.permutations(exp)))

    a = exponent(room)
    if draw(st.booleans()):
        b = tuple(x + y for x, y in zip(a, exponent(room - sum(a))))
    else:
        b = exponent(room)
    return n, twists, pos, a, b


@given(divisibility_cases())
@settings(max_examples=300, deadline=None)
def test_guard_bit_divisibility_agrees_with_mono_divides(case):
    n, twists, pos, a, b = case
    order = gb.ModuleOrder(n, twists)
    ka, kb = order.key(pos, a), order.key(pos, b)
    assert order.divides(order.low(ka), kb) == mono_divides(a, b)
    assert order.divides(order.low(kb), ka) == mono_divides(b, a)


@given(order_cases(), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_cofactor_keys_round_trip_and_shift_additively(case, i):
    n, twists, ((_, exp), _), shift, other = case
    order = gb.ModuleOrder(n, twists)
    ck = order.cofactor_key(i, exp)
    assert order.cofactor_term(ck) == (i, exp)
    # the key shift of x^shift moves a cofactor term by x^shift too
    delta = order.key(other, shift) - order.key(other, (0,) * n)
    moved = tuple(a + b for a, b in zip(exp, shift))
    assert order.cofactor_key(i, moved) == ck + delta
    assert order.cofactor_term(ck + delta) == (i, moved)
    # the largest exponents stay clear of the generator index
    top = (1 << gb.ModuleOrder.BITS) - 1
    for edge in ((top,) + (0,) * (n - 1), (0,) * (n - 1) + (top,)):
        assert order.cofactor_term(order.cofactor_key(i, edge)) == (i, edge)


@given(divisibility_cases())
@settings(max_examples=300, deadline=None)
def test_lcm_key_is_the_key_of_the_lcm(case):
    # the pair keys of _Engine._append, refused exactly where key refuses
    # the lcm
    n, twists, pos, a, b = case
    order = gb.ModuleOrder(n, twists)
    try:
        expected = order.key(pos, mono_lcm(a, b))
    except ValueError:
        with pytest.raises(ValueError, match="range"):
            order.lcm_key(pos, a, b)
    else:
        assert order.lcm_key(pos, a, b) == expected


def test_lcm_key_range_boundary():
    top = 1 << gb.ModuleOrder.BITS
    order = gb.ModuleOrder(2, [0, 3])
    for pos, a, b in ((0, (top - 2, 0), (0, 1)), (1, (top - 4, 0), (1, 0)),
                      (1, (top - 5, 0), (0, 1))):
        assert order.lcm_key(pos, a, b) == order.key(pos, mono_lcm(a, b))
    for pos, a, b in ((0, (top - 1, 0), (0, 1)), (1, (top - 4, 0), (0, 1)),
                      (0, (top - 1, 0), (0, top - 1))):
        with pytest.raises(ValueError, match="range"):
            order.key(pos, mono_lcm(a, b))
        with pytest.raises(ValueError, match="range"):
            order.lcm_key(pos, a, b)


def tail_keys(basis):
    """The order keys of the tail terms of a basis's reducer."""
    return {-k for g in basis.reducer.basis for k in g.tail}


@pytest.mark.parametrize("use", ["fp_dimension", "contains"])
def test_a_fresh_basis_unpacks_no_tail_term(monkeypatch, use):
    fp = koszul.E(4, 2).fp
    texts = ("x1^2 - x2*x3", "x1*x2 - x3^2")
    # the tails of the basis the call under test builds afresh
    tails = tail_keys(gb.groebner(
        gb.SubmoduleGens(fp.presentation, fp.relations, check=False)
        if use == "fp_dimension" else ideal_gens(3, *texts)))
    term = gb.ModuleOrder.term
    calls = []

    def counting_term(self, key):
        calls.append(key)
        return term(self, key)

    monkeypatch.setattr(gb.ModuleOrder, "term", counting_term)
    if use == "fp_dimension":
        assert rl.fp_dimension(fp) >= 0
    else:
        assert gb.contains(ideal_gens(3, *texts), ideal_gens(
            3, "x1^3 - x1*x2*x3", "x2*x3^2 - x1*x2^2"))
    assert tails and calls
    assert not tails & set(calls)


# ---------------------------------------------------------------------------
# differential checks of the reduction loop
# ---------------------------------------------------------------------------

@st.composite
def small_ideals(draw):
    """2-3 homogeneous generators of degree <= 3 in n <= 3 variables, with
    small int and Fraction coefficients (a generator may cancel to 0)."""
    n = draw(st.integers(1, 3))
    coeffs = st.one_of(st.integers(-4, 4).filter(bool),
                       st.fractions(-3, 3, max_denominator=4).filter(bool))
    polys = []
    for _ in range(draw(st.integers(2, 3))):
        deg = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            exp = [0] * n
            for var in draw(st.lists(st.integers(0, n - 1),
                                     min_size=deg, max_size=deg)):
                exp[var] += 1
            terms[tuple(exp)] = draw(coeffs)
        polys.append(Polynomial(n, terms))
    return n, polys


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_reduced_basis_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    n, polys = case
    xs = sympy.symbols(f"x1:{n + 1}")

    def monic_terms(poly):
        poly = poly.monic()
        return frozenset(poly.terms())

    sym = [sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, *xs) for p in polys if p]
    ref = {monic_terms(g) for g in sympy.groebner(
        sym, *xs, order="grevlex").polys if not g.is_zero} if sym else set()
    amb = GradedFreeModule(n, [0])
    ours = gb.groebner(gb.SubmoduleGens(amb, [vec_of(p) for p in polys]))
    assert all(v.terms[lead] == 1 for v, lead in zip(ours.vectors, ours.leads))
    got = {monic_terms(sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in v.component(0).terms.items()}, *xs))
        for v in ours.vectors}
    assert got == ref


@st.composite
def small_submodules_over_q(draw):
    """1-4 homogeneous generators of a submodule of S^2 or S^3 over Q,
    n <= 3, twists 0/1."""
    amb = GradedFreeModule(
        draw(st.integers(1, 3)),
        draw(st.lists(st.integers(0, 1), min_size=2, max_size=3)))
    return homogeneous_gens(draw, amb)


@given(small_submodules_over_q())
@settings(max_examples=40, deadline=None)
def test_module_basis_matches_sympy(gens):
    # position i becomes a new variable y_i and every y_i·y_j joins the
    # ideal, so the ideal's y-linear part is the submodule: each side's
    # reduced basis reduces to zero against the other's
    sympy = pytest.importorskip("sympy")
    amb = gens.ambient
    n, r = amb.n, amb.rank
    xys = sympy.symbols(f"x1:{n + 1}") + sympy.symbols(f"y1:{r + 1}")

    def encode(v):
        return sympy.Poly.from_dict(
            {exp + tuple(int(j == pos) for j in range(r)):
             sympy.Rational(c.numerator, c.denominator)
             for (pos, exp), c in v.terms.items()}, *xys).as_expr()

    products = [xys[n + i] * xys[n + j]
                for i in range(r) for j in range(i, r)]
    ref = sympy.groebner([encode(v) for v in gens.vectors if v] + products,
                         *xys, order="grevlex", domain=sympy.QQ)
    ours = gb.groebner(gens)
    assert all(ref.contains(encode(v)) for v in ours.vectors)
    linear = [g for g in ref.polys
              if all(sum(m[n:]) == 1 for m in g.monoms())]
    assert len(linear) >= (1 if ours.vectors else 0)
    for g in linear:
        v = Vec(n, {(m[n:].index(1), m[:n]): Fraction(int(c.p), int(c.q))
                    for m, c in g.terms()})
        assert gb.member(v, ours)


@given(homogeneous_submodules())
@settings(max_examples=40, deadline=None)
def test_results_hold_only_field_coefficients(gens):
    amb = gens.ambient
    field = amb.field

    def check(vectors):
        for v in vectors:
            for c in v.terms.values():
                assert field.admits(c), (c, type(c))

    check(gb.groebner(gens).vectors)
    check(gb.syzygies(gens).vectors)
    for v in gens.vectors:
        check([gb.lift(v, gens)])
    degs = [v.homogeneous_degree(amb) for v in gens.vectors]
    source = GradedFreeModule(amb.n, degs, field=field)
    f = ModuleMap.from_columns(source, amb, gens.vectors)
    check(gb.kernel(f).vectors)


@st.composite
def integral_fraction_submodules(draw):
    """Homogeneous generators over Q or F_32003 built from (num, den)
    pairs: over Q once with every coefficient a Fraction, so an integral
    one is an integral Fraction, and once with each integral coefficient an
    int.  In about half the cases some denominators are 2 or 3, so integral
    and non-integral coefficients mix.  Also a vector to reduce."""
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    n = draw(st.integers(2, 3))
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    mixed = draw(st.booleans())
    dens = st.sampled_from([1, 1, 2, 3]) if mixed else st.just(1)

    def pairs(deg):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(twists) - 1))
            exp = [0] * n
            for var in draw(st.lists(st.integers(0, n - 1),
                                     min_size=deg - twists[pos],
                                     max_size=deg - twists[pos])):
                exp[var] += 1
            terms[(pos, tuple(exp))] = (draw(st.integers(-6, 6).filter(bool)),
                                        draw(dens))
        return terms

    raw = [pairs(draw(st.integers(1, 3)))
           for _ in range(draw(st.integers(2, 4)))]
    probe = pairs(draw(st.integers(1, 3)))
    amb = GradedFreeModule(n, twists, field=field)

    def build(make):
        return (gb.SubmoduleGens(amb, [
            Vec(n, {k: make(*c) for k, c in t.items()}, field) for t in raw]),
            Vec(n, {k: make(*c) for k, c in probe.items()}, field))

    if field == RATIONALS:
        return build(Fraction), build(field.fraction)
    return build(field.fraction), build(field.fraction)


def operation_results(gens, probe):
    """The results of the public operations on ``gens``, by name; ``lift``
    also lifts ``probe`` and x2^a·g0/2 - 3·x1^b·g1, a homogeneous
    combination of the first two generators (a, b >= 1)."""
    amb = gens.ambient
    basis = gb.groebner(gens)
    degs = [v.homogeneous_degree(amb) for v in gens.vectors]
    f = ModuleMap.from_columns(GradedFreeModule(amb.n, degs, field=amb.field),
                               amb, gens.vectors)
    g = gens.vectors
    top = max(degs[0], degs[1]) + 1
    x2a = (0, top - degs[0]) + (0,) * (amb.n - 2)
    x1b = (top - degs[1],) + (0,) * (amb.n - 1)
    member = (g[0].mul_poly(Polynomial.monomial(
                  amb.n, x2a, amb.field.fraction(1, 2)))
              - g[1].mul_poly(Polynomial.monomial(
                  amb.n, x1b, amb.field.from_int(3))))
    assert member.is_homogeneous(amb)
    return {
        "groebner": list(basis.vectors),
        "normal_form": [gb.normal_form(probe, basis)],
        "syzygies": list(gb.syzygies(gens).vectors),
        "lift": [gb.lift(v, gens) for v in g + (probe, member)],
        "kernel": list(gb.kernel(f).vectors),
    }


def assert_integral_engine(gens, probe, int_gens, int_probe):
    """Every value the engines keep on ``gens`` is an int over Q (keyed
    input, tails and tracked cofactors) and of the field over F_p, every
    lead coefficient is a positive int (1 over F_p), every result value is
    of the field and not an integral Fraction, and the results equal those
    on ``int_gens``, the same generators with int coefficients."""
    field = gens.ambient.field
    over_q = field == RATIONALS

    def check(values, where):
        for c in values:
            assert type(c) is int if over_q else field.admits(c), \
                (where, c, type(c))

    results = operation_results(gens, probe)
    for name, vectors in results.items():
        for v in vectors:
            if v is not None:
                for c in v.terms.values():
                    assert field.admits(c), (name, c, type(c))
                    assert not (type(c) is Fraction and c.denominator == 1)
    # what the engines keep: keyed input, tails and tracked cofactors
    tracked = gb._tracked(gens)
    for v in gens.vectors + (probe,):
        keyed, lam = tracked._keyed(v)
        check(keyed.values(), "intake")
        assert type(lam) is int and lam > 0
    for eng in (tracked, gb._engine_for(gens), gb.groebner(gens).reducer):
        for g in eng.basis:
            assert type(g.lc) is int and (g.lc > 0 if over_q else g.lc == 1)
            check(g.tail.values(), "tail")
            if g.cof is not None:
                check(g.cof.values(), "cofactor")
    assert all(g.cof is not None for g in tracked.basis)
    assert results == operation_results(int_gens, int_probe)


@given(integral_fraction_submodules())
@settings(max_examples=100, deadline=None)
def test_engine_stores_integral_rationals_as_ints(case):
    (gens, probe), (int_gens, int_probe) = case
    assert_integral_engine(gens, probe, int_gens, int_probe)


def rank2_input(twists, raw, probe, make):
    """Generators and a probe vector in rank 2 over Q, n = 3, from
    {(position, exponent): (numerator, denominator)} dicts."""
    amb = GradedFreeModule(3, twists)

    def vec(t):
        return Vec(3, {k: make(*c) for k, c in t.items()})
    return gb.SubmoduleGens(amb, [vec(t) for t in raw]), vec(probe)


def fixed_rank2_input(make):
    """A rank-2 input with integral coefficients and ones of denominator
    2 and 3: generators and a probe vector."""
    return rank2_input(
        [0, 0],
        [{(0, (0, 0, 1)): (3, 1), (0, (1, 0, 0)): (-1, 3),
          (1, (0, 1, 0)): (-2, 1)},
         {(1, (1, 1, 0)): (1, 1), (0, (0, 1, 1)): (-1, 2),
          (0, (1, 1, 0)): (-3, 2)},
         {(0, (1, 0, 0)): (3, 2), (1, (0, 0, 1)): (3, 1)}],
        {(0, (2, 0, 0)): (3, 2), (1, (1, 1, 0)): (2, 1)}, make)


# rank-2 inputs whose generators have leads 2 and 3, and 1/2
NON_UNIT_LEAD_INPUTS = {
    "leads_2_3": (
        [0, 1],
        [{(0, (2, 0, 0)): (2, 1), (0, (0, 1, 1)): (1, 1),
          (1, (1, 0, 0)): (-1, 1)},
         {(0, (1, 1, 0)): (3, 1), (0, (0, 0, 2)): (-1, 1),
          (1, (0, 1, 0)): (2, 1)},
         {(0, (0, 2, 0)): (2, 1), (0, (1, 0, 1)): (3, 1),
          (1, (0, 0, 1)): (5, 1)}],
        {(0, (2, 1, 0)): (1, 1), (1, (1, 1, 0)): (2, 1),
         (0, (0, 1, 2)): (-3, 1)}),
    "lead_1_2": (
        [0, 0],
        [{(0, (1, 1, 0)): (1, 2), (1, (0, 0, 2)): (1, 1),
          (0, (0, 1, 1)): (-2, 3)},
         {(0, (2, 0, 0)): (1, 2), (1, (1, 0, 1)): (-1, 3)},
         {(1, (0, 2, 0)): (3, 1), (0, (1, 0, 1)): (1, 2),
          (1, (1, 1, 0)): (1, 1)}],
        {(0, (2, 1, 0)): (1, 2), (1, (0, 1, 2)): (1, 1)}),
}


def test_fixed_input_stores_integral_rationals_as_ints():
    assert_integral_engine(*fixed_rank2_input(Fraction),
                           *fixed_rank2_input(RATIONALS.fraction))
    for spec in NON_UNIT_LEAD_INPUTS.values():
        assert_integral_engine(*rank2_input(*spec, Fraction),
                               *rank2_input(*spec, RATIONALS.fraction))


def test_reduction_steps_take_native_multipliers(monkeypatch):
    # no step of _reduce or _spair multiplies a tail or cofactor by a
    # Fraction, though the input's coefficients are all Fractions
    sub_multiple = gb.sub_multiple
    engine_code = {gb._Engine._reduce.__code__, gb._Engine._spair.__code__}
    multipliers = []

    def spy(acc, terms, shift, c, new=None, p=0):
        if sys._getframe(1).f_code in engine_code:
            multipliers.append(c)
        return sub_multiple(acc, terms, shift, c, new, p)

    monkeypatch.setattr(gb, "sub_multiple", spy)
    operation_results(*fixed_rank2_input(Fraction))
    assert multipliers and any(abs(c) != 1 for c in multipliers)
    assert all(type(c) is int for c in multipliers)


# the results on the three inputs above as an engine that divides by each
# lead coefficient prints them: scaling instead changes none of them
GOLDEN_RESULTS = {
    "fixed": {
        "groebner": [
            "(x2^2*x3 - 28/3*x2*x3^2 + 9*x3^3, 2*x3^3)",
            "(-3/2*x2*x3 + 27/2*x3^2, x1*x3 - 6*x3^2)",
            "(x1, 2*x3)",
            "(-3/2*x3, x2 - 1/3*x3)",
        ],
        "normal_form": [
            "(-7/2*x2*x3 + 63/2*x3^2, -20*x3^2)",
        ],
        "syzygies": [
            ("(x1^2*x2 + 3*x1*x2*x3 + x2*x3^2, 2*x1*x2 - 2/3*x1*x3 + 6*x3^2, "
             "2/9*x1^2*x2 + 2*x1*x2^2 - 2*x1*x2*x3 + 2/3*x2^2*x3)"),
        ],
        "lift": [
            "(1)",
            "(0, 1)",
            "(0, 0, 1)",
            "None",
            "(1/2*x2^2, -3*x1)",
        ],
        "kernel": [
            ("(x1^2*x2 + 3*x1*x2*x3 + x2*x3^2, 2*x1*x2 - 2/3*x1*x3 + 6*x3^2, "
             "2/9*x1^2*x2 + 2*x1*x2^2 - 2*x1*x2*x3 + 2/3*x2^2*x3)"),
        ],
    },
    "leads_2_3": {
        "groebner": [
            "(0, x1^3*x3 + 4/13*x1*x2*x3^2 + 5/91*x3^4)",
            "(x3^4, -273/5*x1^2*x3 - 14*x2*x3^2)",
            "(0, x1^2*x2 + 2/7*x2^2*x3 - 1/7*x1*x3^2)",
            "(0, x1*x2^2 + 13/2*x1^2*x3 + 5/2*x2*x3^2)",
            "(0, x2^3 - 9/4*x1*x2*x3 + 5/4*x3^3)",
            "(x1*x3^2, 14/5*x1*x2 + 3*x3^2)",
            "(x2*x3^2, 8/5*x2^2 - 39/5*x1*x3)",
            "(x1^2 + 1/2*x2*x3, -1/2*x1)",
            "(x1*x2 - 1/3*x3^2, 2/3*x2)",
            "(x2^2 + 3/2*x1*x3, 5/2*x3)",
        ],
        "normal_form": [
            "(0, 2/5*x1*x2 + 24/5*x2^2 - 117/5*x1*x3 - x3^2)",
        ],
        "syzygies": [
            ("(x2^3 - 9/4*x1*x2*x3 + 5/4*x3^3, 1/2*x1*x2^2 + 13/4*x1^2*x3 + "
             "5/4*x2*x3^2, -7/4*x1^2*x2 - 1/2*x2^2*x3 + 1/4*x1*x3^2)"),
            ("(8/91*x1*x2^3 - 18/91*x1^2*x2*x3 + 10/91*x1*x3^3, "
             "4/91*x1^2*x2^2 + 2/7*x1^3*x3 + 10/91*x1*x2*x3^2, -2/13*x1^3*x2 "
             "- 4/91*x1*x2^2*x3 + 2/91*x1^2*x3^2)"),
        ],
        "lift": [
            "(1)",
            "(0, 1)",
            "(0, 0, 1)",
            "None",
            "(1/2*x2, -3*x1)",
        ],
        "kernel": [
            ("(x2^3 - 9/4*x1*x2*x3 + 5/4*x3^3, 1/2*x1*x2^2 + 13/4*x1^2*x3 + "
             "5/4*x2*x3^2, -7/4*x1^2*x2 - 1/2*x2^2*x3 + 1/4*x1*x3^2)"),
            ("(8/91*x1*x2^3 - 18/91*x1^2*x2*x3 + 10/91*x1*x3^3, "
             "4/91*x1^2*x2^2 + 2/7*x1^3*x3 + 10/91*x1*x2*x3^2, -2/13*x1^3*x2 "
             "- 4/91*x1*x2^2*x3 + 2/91*x1^2*x3^2)"),
        ],
    },
    "lead_1_2": {
        "groebner": [
            ("(x2^3*x3^2 + 4/9*x2^2*x3^3 + 1/4*x1*x3^4 + 1/9*x2*x3^4, "
             "-2/3*x2*x3^4 - 1/6*x3^5)"),
            ("(-8/3*x2^2*x3^2 + 184/27*x2*x3^3, x1^2*x3^2 - 70/9*x1*x3^3 + "
             "4*x2*x3^3 - 92/9*x3^4)"),
            "(1/6*x1*x3^2 + 8/9*x2*x3^2, x2^2*x3 - x1*x3^2 - 4/3*x3^3)",
            "(x1^2, -2/3*x1*x3)",
            "(x1*x2 - 4/3*x2*x3, 2*x3^2)",
            "(1/2*x1*x3, x1*x2 + 3*x2^2)",
        ],
        "normal_form": [
            "(8/9*x2*x3^2, -x1*x3^2 + x2*x3^2 - 4/3*x3^3)",
        ],
        "syzygies": [
            ("(3/8*x1^3*x2 + 9/8*x1^2*x2^2 + 1/8*x1^2*x3^2, -3/8*x1^2*x2^2 - "
             "9/8*x1*x2^3 + 1/2*x1*x2^2*x3 + 3/2*x2^3*x3 + 3/8*x1*x3^3, "
             "-1/8*x1^2*x2*x3 - 3/8*x1^2*x3^2 + 1/6*x1*x2*x3^2)"),
        ],
        "lift": [
            "(1)",
            "(0, 1)",
            "(0, 0, 1)",
            "None",
            "(1/2*x2, -3*x1)",
        ],
        "kernel": [
            ("(3/8*x1^3*x2 + 9/8*x1^2*x2^2 + 1/8*x1^2*x3^2, -3/8*x1^2*x2^2 - "
             "9/8*x1*x2^3 + 1/2*x1*x2^2*x3 + 3/2*x2^3*x3 + 3/8*x1*x3^3, "
             "-1/8*x1^2*x2*x3 - 3/8*x1^2*x3^2 + 1/6*x1*x2*x3^2)"),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
def test_non_unit_leads_give_the_recorded_results(name):
    if name == "fixed":
        gens, probe = fixed_rank2_input(Fraction)
    else:
        gens, probe = rank2_input(*NON_UNIT_LEAD_INPUTS[name], Fraction)
    got = {op: [str(v) for v in vectors]
           for op, vectors in operation_results(gens, probe).items()}
    assert got == GOLDEN_RESULTS[name]


def test_submodule_gens_refuse_foreign_coefficients():
    F = PrimeField(32003)
    q_amb = GradedFreeModule(2, [0])
    p_amb = GradedFreeModule(2, [0], field=F)
    x1 = (0, (1, 0))
    # a vector over another field, or with values its field does not admit
    for amb, c, field in ((q_amb, F.one, F), (q_amb, 0.5, RATIONALS),
                          (q_amb, True, RATIONALS), (p_amb, 1, RATIONALS),
                          (p_amb, Fraction(1, 2), RATIONALS),
                          (p_amb, 1, PrimeField(7))):
        with pytest.raises(DimensionMismatch):
            gb.SubmoduleGens(amb, [Vec(2, {x1: c}, field)])
    assert len(gb.SubmoduleGens(q_amb, [Vec(2, {x1: Fraction(1, 2)})])) == 1
    assert len(gb.SubmoduleGens(p_amb, [Vec(2, {x1: F.one}, F)])) == 1


def test_engine_refuses_a_vector_over_another_field():
    # x1 - x2 over Q against <x1 - x2> over F_p: its -1 is no residue in
    # [0, p), so a reduction that took it as one would leave a term behind
    F = PrimeField(32003)
    x1, x2 = (0, (1, 0)), (0, (0, 1))
    gens = gb.SubmoduleGens(GradedFreeModule(2, [0], field=F),
                            [Vec(2, {x1: 1, x2: -1}, F)])
    basis = gb.groebner(gens)
    v = Vec(2, {x1: 1, x2: -1})
    for call in (lambda: gb.member(v, basis),
                 lambda: gb.normal_form(v, basis), lambda: gb.lift(v, gens)):
        with pytest.raises(DimensionMismatch):
            call()
    w = Vec(2, {x1: 1, x2: -1}, F)
    assert gb.member(w, basis) and gb.normal_form(w, basis).is_zero()
    assert gb.lift(w, gens).terms == {(0, (0, 0)): 1}
