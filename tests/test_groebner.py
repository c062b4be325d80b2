"""Gröbner engine: bases, normal forms, syzygies, kernels, set operations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bseq.rings import (DimensionMismatch, Polynomial, PrimeField, RATIONALS,
                        mono_divides, parse_polynomial)
from bseq.modules import GradedFreeModule, ModuleMap, Vec
from bseq import groebner as gb
from bseq import koszul


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
        s = vectors[i].mul_term(si, 1 / ci) - vectors[j].mul_term(sj, 1 / cj)
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


def reference_reduced_basis(gens):
    """Interreduction with one fresh engine per kept element."""
    eng = gb._engine_for(gens)
    key = eng.key
    kept = []
    for g in sorted(eng.basis, key=lambda g: key(g.pos, g.exp)):
        if not any(h.pos == g.pos and mono_divides(h.exp, g.exp)
                   for h in kept):
            kept.append(g)
    final = []
    for g in kept:
        sub = gb._Engine(eng.n, key)
        for h in kept:
            if h is not g:
                sub._append(h.vec, None)
        rem, _ = sub.reduce(g.vec)
        lead = max(rem.terms, key=lambda k: key(*k))
        final.append((rem.scale(1 / rem.terms[lead]), lead))
    final.sort(key=lambda t: key(*t[1]), reverse=True)
    return [v for v, _ in final], [lead for _, lead in final]


@st.composite
def homogeneous_submodules(draw):
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    n = draw(st.integers(2, 3))
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    amb = GradedFreeModule(n, twists)
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
        vecs.append(Vec(n, terms))
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

    def no_append(self, vec, cof):
        raise AssertionError("interreduction went through _append")

    monkeypatch.setattr(gb._Engine, "_append", no_append)
    pushed = []
    monkeypatch.setattr(gb.heapq, "heappush", lambda *a: pushed.append(a))
    vectors, leads = eng.reduced_basis()
    assert (vectors, leads) == (list(basis.vectors), list(basis.leads))
    assert gb._nf_engine(basis).pairs == []
    assert pushed == []


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_forms_share_the_cached_reducer():
    basis = gb.groebner(ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2"))
    v = vec_of(P("x1^3 + x1*x2*x3 + x3^3", 3))
    first = gb.normal_form(v, basis)
    reducer = basis._reducer
    assert reducer is not None
    assert gb.normal_form(v, basis) == first
    assert basis._reducer is reducer
    assert all(g.vec is v for g, v in zip(reducer.basis, basis.vectors))
    assert len(reducer.basis) == len(basis.vectors)


def test_contains_leaves_the_reducer_unchanged():
    a = ideal_gens(3, "x1^2 - x2*x3", "x1*x2 - x3^2")
    basis = gb.groebner(a)
    reducer = gb._nf_engine(basis)
    size = len(reducer.basis)
    b = ideal_gens(3, "x1^3 - x1*x2*x3", "x1^2*x2 - x1*x3^2", "x3^5")
    assert not gb.contains(a, b)
    assert gb.contains(a, ideal_gens(3, "x1^3 - x1*x2*x3"))
    assert basis._reducer is reducer
    assert len(reducer.basis) == size
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
        prod = gens_polys[i].mul_term(xv, Fraction(1))
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
    twists = list(amb.twists) + degs
    inner = ModuleOrder(twists).key
    rank_f = amb.rank

    def key(pos, exp):
        return (pos < rank_f, inner(pos, exp))

    eng = _Engine(n, key, track=False)
    for i, g in enumerate(gens.vectors):
        graph = Vec(n, dict(g.terms) | {(rank_f + i, (0,) * n): Fraction(1)})
        eng.add(graph)
    eng.process()
    out = []
    for elem in eng.basis:
        if all(pos >= rank_f for pos, _ in elem.vec.terms):
            out.append(Vec(n, {(pos - rank_f, e): c
                               for (pos, e), c in elem.vec.terms.items()}))
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
                acc = acc + gens.vectors[i].mul_term(exp, c)
            assert acc.is_zero()


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
    ident = ModuleMap.identity(tgt, Fraction(1))
    rels = gb.SubmoduleGens(tgt, [vec_of(P("x1", n))])
    ker = gb.kernel(ident, target_relations=rels)
    assert gb.equal(ker, gb.SubmoduleGens(src, [vec_of(P("x1", n))]))


# ---------------------------------------------------------------------------
# submodule operations
# ---------------------------------------------------------------------------

def test_intersection_of_coprime_principal_ideals():
    a = ideal_gens(2, "x1")
    b = ideal_gens(2, "x2")
    inter = gb.intersect(a, b)
    assert gb.equal(inter, ideal_gens(2, "x1*x2"))


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
                    acc = acc + A.vectors[i].mul_term(exp, c)
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


def test_submodule_ops_dispatcher():
    a = ideal_gens(2, "x1")
    b = ideal_gens(2, "x2")
    assert len(gb.submodule_ops(a, b, "sum").vectors) == 2
    assert gb.submodule_ops(a, a, "equal")
    assert gb.submodule_ops(a, b, "contains") is False
    with pytest.raises(ValueError):
        gb.submodule_ops(a, b, "xor")


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_recovers_membership_witness():
    amb = GradedFreeModule(2, [0])
    gens = gb.SubmoduleGens(amb, [vec_of(P("x1", 2)), vec_of(P("x2", 2))])
    coeffs = gb.lift(vec_of(P("x1*x2", 2)), gens)
    acc = Vec(2, {})
    for h, g in zip(coeffs, gens.vectors):
        acc = acc + g.mul_poly(h)
    assert acc == vec_of(P("x1*x2", 2))


def test_lift_of_generator_is_witnessed():
    gens = example1_ideal()
    coeffs = gb.lift(vec_of(P("x1*x4", 6)), gens)
    total = sum((g.mul_poly(h) for h, g in zip(coeffs, gens.vectors)),
                Vec(6, {}))
    assert total == vec_of(P("x1*x4", 6))


def test_lift_of_nonmember_is_none():
    gens = example1_ideal()
    assert gb.lift(vec_of(P("x1^2", 6)), gens) is None


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
        pole = n - hn.vanishing_order_at_one()
        assert gb.krull_dim(ideal) == pole


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


def test_submodule_rank_counts_lead_positions():
    n = 2
    amb = GradedFreeModule(n, [0, 0, 1])
    gens = gb.SubmoduleGens(amb, [
        Vec(n, {(0, (1, 0)): Fraction(1)}),
        Vec(n, {(2, (0, 0)): Fraction(1), (1, (0, 1)): Fraction(1)}),
    ])
    assert gb.submodule_rank(gens) == 2


# ---------------------------------------------------------------------------
# lead-term Hilbert functions
# ---------------------------------------------------------------------------

def test_hilbert_of_zero_ideal():
    amb = GradedFreeModule(2, [0])
    gens = gb.SubmoduleGens(amb, [])
    basis = gb.groebner(gens)
    assert gb.hilbert_function_quotient(basis, 4) == [1, 2, 3, 4, 5]


def test_hilbert_of_product_ideal_matches_closed_form():
    basis = gb.groebner(example1_ideal())
    hf = gb.hilbert_function_quotient(basis, 6)
    from math import comb
    assert hf == [2 * comb(d + 2, 2) - (1 if d == 0 else 0) for d in range(7)]


def test_hilbert_of_irrelevant_ideal():
    basis = gb.groebner(ideal_gens(3, "x1", "x2", "x3"))
    assert gb.hilbert_function_quotient(basis, 3) == [1, 0, 0, 0]


def test_hilbert_function_against_direct_enumeration():
    rng = random.Random(2)
    from bseq.rings import mono_divides
    for _ in range(5):
        n = 3
        gens = ideal_gens(n, *(rng.sample(
            ["x1^2", "x1*x2", "x2^2*x3", "x3^3", "x1*x3^2"], 3)))
        basis = gb.groebner(gens)
        hf = gb.hilbert_function_quotient(basis, 6)
        leads = [exp for _, exp in basis.leads]
        for d in range(7):
            count = 0
            for exp in itertools.product(range(d + 1), repeat=n):
                if sum(exp) != d:
                    continue
                if not any(mono_divides(l, exp) for l in leads):
                    count += 1
            assert hf[d] == count
