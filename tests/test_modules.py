"""Graded free modules, homogeneous maps and complexes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bseq.rings import (
    DimensionMismatch,
    Polynomial,
    PrimeField,
    RATIONALS,
    merge_terms,
    parse_polynomial,
    sub_multiple,
)
from bseq.modules import (
    ChainComplex,
    FPModule,
    GradedFreeModule,
    ModuleMap,
    Vec,
    compose,
    direct_sum,
    homogeneity_check,
    subquotient_presentation,
)
from bseq import groebner, koszul

from oracles import (dense_rows, dual_pair, fp_direct_sum,
                     hilbert_function, is_complex, polys)


def P(text, n):
    return parse_polynomial(text, n)


def unit(n, pos):
    return Vec(n, {(pos, (0,) * n): Fraction(1)})


def random_map(rng, n, src_twists, tgt_twists):
    """Homogeneous degree-0 map with random monomial entries."""
    rows = []
    for i, ti in enumerate(tgt_twists):
        row = []
        for j, tj in enumerate(src_twists):
            deg = tj - ti
            if deg < 0 or rng.random() < 0.4:
                row.append(Polynomial.zero(n))
                continue
            exp = [0] * n
            for _ in range(deg):
                exp[rng.randrange(n)] += 1
            row.append(Polynomial.monomial(n, tuple(exp),
                                           Fraction(rng.randint(1, 3))))
        rows.append(row)
    return ModuleMap(GradedFreeModule(n, src_twists),
                     GradedFreeModule(n, tgt_twists), rows)


# ---------------------------------------------------------------------------
# vector arithmetic against polynomial arithmetic, coordinate by coordinate
# ---------------------------------------------------------------------------

@st.composite
def vector_cases(draw, n=3):
    """Polynomial coordinates over Q or F_32003 for two vectors, a
    multiplier, a matrix and a source vector."""
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    coeff = st.integers(-20, 20).map(field.from_int)
    mono = st.tuples(*[st.integers(0, 2)] * n)

    def poly():
        return Polynomial(n, draw(st.dictionaries(mono, coeff, max_size=4)),
                          field)

    rank, src = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    u = [poly() for _ in range(rank)]
    v = [poly() for _ in range(rank)]
    rows = [[poly() for _ in range(src)] for _ in range(rank)]
    w = [poly() for _ in range(src)]
    return u, v, poly(), rows, w


@given(vector_cases())
def test_vector_arithmetic_matches_polynomial_arithmetic(case):
    u, v, p, rows, w = case
    n, rank, field = p.n, len(u), p.field
    a, b = Vec.from_polys(n, u, field), Vec.from_polys(n, v, field)
    assert polys(a + b, rank) == [x + y for x, y in zip(u, v)]
    assert polys(a - b, rank) == [x - y for x, y in zip(u, v)]
    assert polys(a.mul_poly(p), rank) == [x * p for x in u]
    f = ModuleMap(GradedFreeModule(n, [0] * len(w), field),
                  GradedFreeModule(n, [0] * rank, field), rows)
    image = []
    for row in rows:
        acc = Polynomial.zero(n, field)
        for entry, x in zip(row, w):
            acc = acc + entry * x
        image.append(acc)
    assert polys(f.apply(Vec.from_polys(n, w, field)), rank) == image


def reduced(terms, p):
    """Integer terms reduced mod p, the zeros dropped."""
    return {k: c % p for k, c in terms.items() if c % p}


@given(st.sampled_from([2, 3, 32003]), st.data())
def test_prime_field_arithmetic_is_integer_arithmetic_mod_p(p, data):
    """Every Polynomial, Vec and KoszulVector operation over F_p gives
    the exact integer result reduced mod p, and stores only ints in
    [0, p), over F_p."""
    F, n = PrimeField(p), 3
    ints = st.integers(-3 * p, 3 * p) if p < 10 else st.integers(-10**6, 10**6)
    mono = st.tuples(*[st.integers(0, 2)] * n)

    def draw_terms(key):
        return data.draw(st.dictionaries(key, ints, max_size=5))

    f_t, g_t = draw_terms(mono), draw_terms(mono)
    key = st.tuples(st.integers(0, 2), mono)
    u_t, v_t, w_t, x_t = (draw_terms(key) for _ in range(4))
    k = data.draw(ints)
    both = {field: (Polynomial(n, f_t, field), Polynomial(n, g_t, field),
                    *(Vec(n, t, field) for t in (u_t, v_t, w_t, x_t)))
            for field in (RATIONALS, F)}

    def results(field):
        f, g, u, v, w, x = both[field]
        amb = GradedFreeModule(n, [0, 0, 0], field)
        m = ModuleMap.from_columns(amb, amb, [u, v, w])
        out = [f + g, f - g, -f, f * g, f.scale(k), u + v, u - v, -u,
               u.scale(k), u.mul_poly(f), u.component(1), m.apply(x),
               *compose(m, m).cols, *m.dual().cols, *polys(u, 3)]
        # the Koszul vectors over e_1..e_3 and e_12, e_13, e_23 with
        # coordinates u, v and their duals, coordinates w
        primal = [koszul.Summand(1), koszul.Summand(2)]
        dual = [koszul.Summand(1, 0, True), koszul.Summand(2, 0, True)]
        a = koszul.KoszulVector.from_vec(n, primal, u + v.offset(3))
        b = koszul.KoszulVector.from_vec(n, primal, v + w.offset(3))
        c = koszul.KoszulVector.from_vec(n, dual, w + x.offset(3))
        for kv in (a + b, a - b, -a, a.mul_poly(g)):
            assert kv.field == field
            assert all(q.field == field and all(map(field.admits,
                                                    q.terms.values()))
                       for q in kv.coeffs.values())
            out.append(kv.to_vec())
        return out + [dual_pair(a, c)]

    for exact, mod_p in zip(results(RATIONALS), results(F)):
        assert mod_p.field == F
        assert all(type(c) is int and 0 <= c < p
                   for c in mod_p.terms.values())
        assert mod_p.terms == reduced(exact.terms, p)

    # the term kernel itself, which the constructors would mask
    fq, gq, uq, vq = (x.terms for x in both[RATIONALS][:4])
    fp, gp, up, vp = (x.terms for x in both[F][:4])
    c, shift, zero = k % p or 1, data.draw(mono), (0,) * n

    def sub(acc, terms, shift, modulus=0):
        acc = dict(acc)
        sub_multiple(acc, terms, shift, c, None, modulus)
        return acc

    for exact, mod_p in (
            (merge_terms(dict(fq), gq), merge_terms(dict(fp), gp, False, p)),
            (merge_terms(dict(fq), gq, True),
             merge_terms(dict(fp), gp, True, p)),
            (sub(uq, vq, shift), sub(up, vp, shift, p)),
            (sub(uq, uq, zero), sub(up, up, zero, p))):
        assert all(type(v) is int and 0 <= v < p for v in mod_p.values())
        assert mod_p == reduced(exact, p)


# ---------------------------------------------------------------------------
# composition and direct sums
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    rng = random.Random(7)
    f = random_map(rng, 3, [2, 3], [1, 1])
    ident = ModuleMap.identity(f.source)
    assert dense_rows(compose(f, ident)) == dense_rows(f)


def test_koszul_differentials_compose_to_zero():
    d1 = koszul.koszul_differential(3, 1)
    d2 = koszul.koszul_differential(3, 2)
    assert compose(d1, d2).is_zero()


def test_compose_shape_mismatch():
    f = ModuleMap.zero(GradedFreeModule(2, [1]), GradedFreeModule(2, [0]))
    g = ModuleMap.zero(GradedFreeModule(2, [1, 1]), GradedFreeModule(2, [2]))
    with pytest.raises(DimensionMismatch):
        compose(f, g)


def test_direct_sum_of_zero_maps():
    a = ModuleMap.zero(GradedFreeModule(2, [1]), GradedFreeModule(2, [0]))
    b = ModuleMap.zero(GradedFreeModule(2, [2, 2]), GradedFreeModule(2, [0]))
    s = direct_sum(a, b)
    assert s.is_zero()
    assert s.source.twists == (1, 2, 2)
    assert s.target.twists == (0, 0)


def test_direct_sum_twist_concatenation_for_koszul_blocks():
    # K_2 ⊕ K_5(1) over n=6: twists [2]*15 then [4]*6
    k2 = koszul.koszul_module(6, 2)
    k5s = koszul.koszul_module(6, 5, 1)
    total = k2.direct_sum(k5s)
    assert total.twists == (2,) * 15 + (4,) * 6
    assert total.rank == 21


def test_block_composition_identity():
    # (a ⊕ b) ∘ (c ⊕ d) = (a ∘ c) ⊕ (b ∘ d) on random small maps
    rng = random.Random(11)
    for _ in range(6):
        a = random_map(rng, 2, [2], [1])
        b = random_map(rng, 2, [3], [1])
        c = random_map(rng, 2, [3], [2])
        d = random_map(rng, 2, [4], [3])
        lhs = compose(direct_sum(a, b), direct_sum(c, d))
        rhs = direct_sum(compose(a, c), compose(b, d))
        assert dense_rows(lhs) == dense_rows(rhs)


# ---------------------------------------------------------------------------
# the coefficient field
# ---------------------------------------------------------------------------

GF = PrimeField(32003)


def test_free_module_operations_keep_the_field():
    m = GradedFreeModule(3, [0, 1], field=GF)
    assert GradedFreeModule(3, [0]).field == RATIONALS
    for derived in (m.shifted(2), m.dual(), m.direct_sum(m)):
        assert derived.field == GF
    assert koszul.koszul_module(3, 2, field=GF).field == GF
    ident = ModuleMap.identity(m)
    assert dense_rows(ident)[0][0] == Polynomial.constant(3, GF.one, GF)


def test_elements_over_different_fields_are_different():
    x1 = {(0, (1, 0)): 1}
    assert Vec(2, x1) != Vec(2, x1, PrimeField(7))
    assert Vec(2, x1) == Vec(2, x1, RATIONALS)
    assert len({Vec(2, x1), Vec(2, x1, PrimeField(7)),
                Vec(2, x1, PrimeField(5))}) == 3
    assert Vec.zero(2) != Vec.zero(2, GF)
    p = Polynomial.variable(2, 1)
    assert p != Polynomial.variable(2, 1, GF)
    assert len({p, Polynomial.variable(2, 1, GF)}) == 2
    assert Polynomial.zero(2) != Polynomial.zero(2, GF)
    summand = koszul.Summand(1, 0, True)
    kq = koszul.KoszulVector(2, [summand], {})
    assert kq != koszul.KoszulVector(2, [summand], {}, GF)


def test_modules_over_different_fields_are_different_ambients():
    q, p = GradedFreeModule(2, [0]), GradedFreeModule(2, [0], field=GF)
    assert q != p
    with pytest.raises(DimensionMismatch):
        q.direct_sum(p)
    with pytest.raises(DimensionMismatch):
        ModuleMap.zero(q, p)
    x1 = Polynomial.variable(2, 1)
    f = ModuleMap(q.shifted(-1), q, [[x1]])
    g = ModuleMap(p.shifted(-1), p, [[Polynomial.variable(2, 1, GF)]])
    with pytest.raises(DimensionMismatch):
        compose(f, g.twisted(-1))
    unit_q = groebner.SubmoduleGens(q, [Vec(2, {(0, (0, 0)): Fraction(1)})])
    unit_p = groebner.SubmoduleGens(p, [Vec(2, {(0, (0, 0)): GF.one}, GF)])
    with pytest.raises(DimensionMismatch):
        groebner.contains(unit_q, unit_p)
    with pytest.raises(DimensionMismatch):
        ChainComplex([q, p], [ModuleMap.zero(p, p)])


def test_mixed_field_operands_map_only_integers_into_f_p():
    # an operand over Q with int coefficients maps into F_p, as the
    # integers do; one with a Fraction, or one over another prime, is
    # refused, and every result over F_p stores residues in [0, p)
    x1, x2 = (1, 0), (0, 1)
    ints = Polynomial(2, {x1: -1})
    half = Polynomial(2, {x1: Fraction(1, 2)})
    y = Polynomial.variable(2, 2, GF)
    y7 = Polynomial.variable(2, 2, PrimeField(7))
    for r in (ints + y, y - ints, ints * y):
        assert r.field == GF
        assert all(type(c) is int and 0 <= c < GF.p for c in r.terms.values())
    assert (ints + y).terms == {x1: GF.p - 1, x2: 1}
    for a, b in ((half, y), (y, half), (y, y7)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(DimensionMismatch):
                op()
    vy = Vec.from_polys(2, [y], GF)
    assert (Vec.from_polys(2, [ints]) + vy).terms == {
        (0, x1): GF.p - 1, (0, x2): 1}
    assert vy.mul_poly(ints).terms == {(0, (1, 1)): GF.p - 1}
    for op in (lambda: Vec.from_polys(2, [half]) + vy,
               lambda: vy.mul_poly(half), lambda: vy.mul_poly(y7)):
        with pytest.raises(DimensionMismatch):
            op()
    # a KoszulVector takes each coefficient into its field
    dual = [(1, 0, True)]
    kv = koszul.KoszulVector(2, dual, {(0, (1,)): ints}, GF)
    assert kv.coeffs[(0, (1,))] == Polynomial(2, {x1: GF.p - 1}, GF)
    assert kv.coeffs[(0, (1,))].field == GF
    assert kv.to_functional(GF).source.field == GF
    for coeff, field in ((half, GF), (y, RATIONALS), (y7, GF)):
        with pytest.raises(DimensionMismatch):
            koszul.KoszulVector(2, dual, {(0, (1,)): coeff}, field)
    with pytest.raises(DimensionMismatch):
        kv.mul_poly(half)
    assert (kv + koszul.KoszulVector(2, dual, {(0, (2,)): ints})).field == GF


def test_f_p_constructors_map_a_fraction_to_its_residue():
    # 1/2 is 4 in F_7; a denominator that 7 divides has no value there
    f7 = PrimeField(7)
    half = Vec(1, {(0, (1,)): Fraction(1, 2)}, f7)
    assert half.terms == {(0, (1,)): 4}
    assert (half + half).terms == {(0, (1,)): 1}
    assert Polynomial(1, {(1,): Fraction(3, 2)}, f7).terms == {(1,): 5}
    assert Vec(1, {(0, (1,)): Fraction(14, 2)}, f7).is_zero()
    for make in (lambda c: Vec(1, {(0, (1,)): c}, f7),
                 lambda c: Polynomial(1, {(1,): c}, f7)):
        with pytest.raises(DimensionMismatch, match="denominator"):
            make(Fraction(1, 7))


def test_a_map_refuses_a_column_over_another_field():
    f7 = PrimeField(7)
    p7, q = GradedFreeModule(1, [0], field=f7), GradedFreeModule(1, [0])
    for module, column in ((p7, Vec(1, {(0, (0,)): -1})),
                           (q, Vec(1, {(0, (0,)): 1}, f7))):
        with pytest.raises(DimensionMismatch, match="column"):
            ModuleMap.from_columns(module, module, [column])
    f = ModuleMap.from_columns(p7, p7, [Vec(1, {(0, (0,)): -1}, f7)])
    assert f.cols[0].terms == {(0, (0,)): 6}


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_koszul_differential_is_homogeneous_linear():
    d2 = koszul.koszul_differential(6, 2)
    ok, violations = homogeneity_check(d2)
    assert ok and not violations
    assert d2.source.twists == (2,) * 15
    assert d2.target.twists == (1,) * 6


def test_published_third_example_map_shapes_are_homogeneous(example3):
    ok, violations = homogeneity_check(example3.f)
    assert ok, violations
    assert example3.F.twists == (10, 7, 7)
    assert example3.G.twists == (5, 6, 6, 6, 6, 8, 4, 4)


def test_homogeneity_violation_reported_with_location():
    src = GradedFreeModule(2, [1])
    tgt = GradedFreeModule(2, [0])
    bad = ModuleMap(src, tgt, [[P("x1^2", 2)]])  # quadratic where linear needed
    ok, violations = homogeneity_check(bad)
    assert not ok
    assert violations == [(0, 0, 2, 1)]


def test_vector_homogeneity_and_degree():
    mod = GradedFreeModule(2, [1, 3])
    v = Vec(2, {(0, (2, 0)): Fraction(1), (1, (0, 0)): Fraction(-2)})
    assert v.homogeneous_degree(mod) == 3
    w = v + unit(2, 0)
    assert not w.is_homogeneous(mod)


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

def test_koszul_chain_complex_squares_to_zero():
    n = 4
    mods = [koszul.koszul_module(n, s) for s in range(n + 1)]
    maps = [koszul.koszul_differential(n, s) for s in range(1, n + 1)]
    cc = ChainComplex(mods, maps)
    assert is_complex(cc)
    assert cc.length == n


def test_chain_complex_shape_validation():
    mods = [koszul.koszul_module(3, 0), koszul.koszul_module(3, 2)]
    bad = koszul.koszul_differential(3, 1)
    with pytest.raises(DimensionMismatch):
        ChainComplex(mods, [bad])


def test_twisted_complex_keeps_homogeneity():
    n = 3
    cc = ChainComplex(
        [koszul.koszul_module(n, s) for s in range(3)],
        [koszul.koszul_differential(n, s) for s in (1, 2)])
    tw = cc.twisted(-2)
    assert tw.modules[0].twists == (2,)
    for m in tw.maps:
        assert homogeneity_check(m)[0]


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------

def test_residue_field_subquotient_hilbert_function():
    n = 3
    amb = GradedFreeModule(n, [0])
    ker = groebner.SubmoduleGens(amb, [unit(n, 0)])
    xs = [Vec(n, {(0, tuple(1 if j == i else 0 for j in range(n))): Fraction(1)})
          for i in range(n)]
    im = groebner.SubmoduleGens(amb, xs)
    fp = subquotient_presentation(ker, im)
    gb = groebner.groebner(groebner.SubmoduleGens(
        fp.presentation, fp.relations, check=False))
    hf = hilbert_function(gb, 4)
    assert hf == [1, 0, 0, 0, 0]


def test_subquotient_of_equal_modules_is_zero():
    n = 2
    amb = GradedFreeModule(n, [0])
    xs = [Vec(n, {(0, (1, 0)): Fraction(1)}), Vec(n, {(0, (0, 1)): Fraction(1)})]
    gens = groebner.SubmoduleGens(amb, xs)
    fp = subquotient_presentation(gens, gens)
    gb = groebner.groebner(groebner.SubmoduleGens(
        fp.presentation, fp.relations, check=False))
    hf = hilbert_function(gb, 5)
    assert hf == [0] * 6


def test_subquotient_requires_containment():
    n = 2
    amb = GradedFreeModule(n, [0])
    a = groebner.SubmoduleGens(amb, [Vec(n, {(0, (1, 0)): Fraction(1)})])
    b = groebner.SubmoduleGens(amb, [Vec(n, {(0, (0, 1)): Fraction(1)})])
    with pytest.raises(ValueError):
        subquotient_presentation(a, b)


def test_subquotient_by_zero_matches_submodule_hilbert_function():
    n = 2
    amb = GradedFreeModule(n, [0, 1])
    gens = groebner.SubmoduleGens(
        amb, [Vec(n, {(0, (1, 1)): Fraction(1), (1, (1, 0)): Fraction(2)})])
    empty = groebner.SubmoduleGens(amb, [])
    fp = subquotient_presentation(gens, empty)
    gbq = groebner.groebner(groebner.SubmoduleGens(
        fp.presentation, fp.relations, check=False))
    lhs = hilbert_function(gbq, 8)
    rhs = hilbert_function(gens, 8, submodule=True)
    assert lhs == rhs


def test_subquotient_of_generators_with_a_zero_presents_the_same_module():
    # a zero generator of ker is presented with twist 0 and killed by its
    # unit syzygy
    n = 2
    amb = GradedFreeModule(n, [0, 1])
    v = Vec(n, {(0, (1, 1)): Fraction(1), (1, (1, 0)): Fraction(2)})
    im = groebner.SubmoduleGens(amb, [Vec(n, {(0, (2, 1)): Fraction(1),
                                              (1, (2, 0)): Fraction(2)})])
    hfs = []
    for vectors in ([v], [Vec.zero(n), v]):
        fp = subquotient_presentation(groebner.SubmoduleGens(amb, vectors),
                                      im)
        hfs.append(hilbert_function(groebner.groebner(
            groebner.SubmoduleGens(fp.presentation, fp.relations,
                                   check=False)), 6))
    # <v>/<x1·v> is S(-2)/(x1)
    assert hfs[0] == hfs[1] == [0, 0, 1, 1, 1, 1, 1]


def test_subquotient_runs_buchberger_on_ker_once(monkeypatch):
    n = 4
    ker = groebner.kernel(koszul.koszul_differential(n, 2))
    d3 = koszul.koszul_differential(n, 3)
    im = groebner.SubmoduleGens(d3.target, d3.columns()[:2], check=False)
    runs = []
    process = groebner._Engine.process

    def counted(self):
        runs.append(self)
        return process(self)

    monkeypatch.setattr(groebner._Engine, "process", counted)
    fp = subquotient_presentation(ker, im)
    assert runs == [ker._tracked]
    assert len(fp.relations) > len(im.vectors)


def test_fp_direct_sum_blocks_relations():
    a = koszul.E(3, 1).fp
    b = koszul.E(3, 2).fp
    s = fp_direct_sum(a, b)
    assert s.presentation.rank == a.presentation.rank + b.presentation.rank
    assert len(s.relations) == len(a.relations) + len(b.relations)
