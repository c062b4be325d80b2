"""Koszul bases, signs, syzygy modules, dual families and their identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bseq.rings import (RATIONALS, Polynomial, PrimeField, binomial,
                        parse_polynomial)
from bseq.modules import GradedFreeModule, Vec, compose, homogeneity_check
from bseq import groebner as gb
from bseq import koszul as kz

from oracles import (dense_rows, dual_pair, hilbert_function,
                     selfduality_check)


# ---------------------------------------------------------------------------
# subsets and signs
# ---------------------------------------------------------------------------

def test_subsets_are_colexicographic():
    assert kz.subsets(4, 2) == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))


def test_sign_without_inversions():
    assert kz.sigma((1, 2), (3, 4)) == 1


def test_sign_counts_single_inversion():
    # direct count: pairs (j, k) with j > k
    assert kz.sigma((2,), (1,)) == -1
    assert kz.sigma((2, 5), (1, 3)) == (-1) ** 3


def test_sign_anticommutativity():
    rng = random.Random(0)
    for _ in range(200):
        pool = list(range(1, 9))
        rng.shuffle(pool)
        ja = rng.randint(1, 3)
        ka = rng.randint(1, 3)
        J = tuple(sorted(pool[:ja]))
        K = tuple(sorted(pool[ja:ja + ka]))
        assert kz.sigma(J, K) * kz.sigma(K, J) == (-1) ** (len(J) * len(K))


def test_sign_multiplicativity_over_disjoint_unions():
    rng = random.Random(1)
    for _ in range(100):
        pool = list(range(1, 10))
        rng.shuffle(pool)
        J = tuple(sorted(pool[:2]))
        K = tuple(sorted(pool[2:4]))
        L = tuple(sorted(pool[4:6]))
        KL = tuple(sorted(K + L))
        assert kz.sigma(J, KL) == kz.sigma(J, K) * kz.sigma(J, L)


def test_sign_rejects_overlap():
    with pytest.raises(ValueError):
        kz.sigma((1, 2), (2, 3))


def test_wedge_product_sign_identity():
    # x_J ∧ x_K = σ(J,K) x_{J∪K}: verified via composition through a
    # common reordering count
    rng = random.Random(2)
    for _ in range(50):
        pool = list(range(1, 8))
        rng.shuffle(pool)
        J = pool[:2]
        K = pool[2:4]
        seq = J + K
        inv = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
        invJ = 1 if sum(1 for a, b in itertools.combinations(J, 2) if a > b) % 2 else 0
        invK = 1 if sum(1 for a, b in itertools.combinations(K, 2) if a > b) % 2 else 0
        sign_sort = (-1) ** inv * (-1) ** invJ * (-1) ** invK
        assert kz.sigma(tuple(sorted(J)), tuple(sorted(K))) == sign_sort


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def test_first_differential_sends_basis_to_variables():
    d1 = kz.koszul_differential(3, 1)
    for j in range(3):
        col = d1.cols[j]
        assert col == Vec(3, {(0, tuple(1 if i == j else 0 for i in range(3))):
                              Fraction(1)})


def test_second_differential_sign_rule():
    d2 = kz.koszul_differential(3, 2)
    col = d2.cols[0]  # e_{12}
    assert col == Vec(3, {(1, (1, 0, 0)): Fraction(1),
                          (0, (0, 1, 0)): Fraction(-1)})


def test_differential_squares_to_zero_up_to_six_variables():
    for n in range(2, 7):
        for s in range(2, n + 1):
            ds = kz.koszul_differential(n, s)
            prev = kz.koszul_differential(n, s - 1)
            assert compose(prev, ds).is_zero()


def test_koszul_twists():
    assert kz.koszul_module(6, 2).twists == (2,) * 15
    assert kz.koszul_module(6, 5, 1).twists == (4,) * 6


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)],
                         ids=["Q", "F32003"])
@pytest.mark.parametrize("n", range(1, 8))
def test_codifferential_is_the_transposed_differential(n, field):
    # ModuleMap.dual is the oracle: same columns, modules and shift, for
    # every s up to ∂_{n+1}, the zero map from the empty K_{n+1}
    for s in range(1, n + 2):
        for shift in (0, 1):
            assert kz.koszul_codifferential(n, s, shift, field) == (
                kz.koszul_differential(n, s, shift, field).dual())


def test_codifferential_refuses_what_the_differential_refuses():
    for s in (0, 5):  # ∂_s exists for 1 <= s <= n + 1
        for build in (kz.koszul_differential, kz.koszul_codifferential):
            with pytest.raises(ValueError, match="out of range"):
                build(3, s)


def test_koszul_exactness_at_small_sizes():
    # kernel(∂_s) = image(∂_{s+1}) for n <= 5
    for n in range(2, 6):
        for s in range(1, n):
            ker = gb.kernel(kz.koszul_differential(n, s))
            im = kz.E(n, s + 1).gens
            assert gb.equal(ker, im)


# ---------------------------------------------------------------------------
# syzygy modules E_s
# ---------------------------------------------------------------------------

def test_first_syzygy_module_is_the_irrelevant_ideal():
    e1 = kz.E(4, 1)
    amb = GradedFreeModule(4, [0])
    xs = gb.SubmoduleGens(
        amb, [Vec(4, {(0, tuple(1 if j == i else 0 for j in range(4))):
                      Fraction(1)}) for i in range(4)])
    assert gb.equal(e1.gens, xs)


def test_syzygy_module_ranks_follow_binomials():
    for n in range(2, 7):
        for s in range(1, n + 1):
            assert kz.E(n, s).rank == binomial(n - 1, s - 1)
    assert kz.E(6, 2).rank == 5


def test_syzygy_module_shift_moves_twists():
    e = kz.E(6, 5, 1)
    assert e.ambient.twists == (3,) * 15
    assert e.fp.presentation.twists == (4,) * 6


def test_presentation_relations_are_next_differential():
    e = kz.E(4, 2)
    assert len(e.fp.relations) == binomial(4, 3)
    e_top = kz.E(4, 4)
    assert e_top.fp.relations == []


# ---------------------------------------------------------------------------
# the generator families
# ---------------------------------------------------------------------------

def test_degree_one_family_matches_published_lines():
    fam = kz.generate_A(6, 1)
    assert len(fam) == 6
    assert kz.format_koszul_vector(fam[5]) == (
        "x2*e*[1,2] + x3*e*[1,3] + x4*e*[1,4] + x5*e*[1,5] + x6*e*[1,6]")
    assert kz.format_koszul_vector(fam[0]) == (
        "x1*e*[1,6] + x2*e*[2,6] + x3*e*[3,6] + x4*e*[4,6] + x5*e*[5,6]")


def test_depth_zero_family_is_a_single_euler_form():
    fam = kz.generate_A(6, 0)
    assert len(fam) == 1
    euler = kz.KoszulVector(
        6, [kz.Summand(1, 0, True)],
        {(0, (i,)): Polynomial.variable(6, i) for i in range(1, 7)})
    assert fam[0] == euler or fam[0] == -euler


def test_family_annihilates_next_syzygy_module():
    for n, t in ((4, 0), (4, 1), (5, 1), (6, 1), (6, 0)):
        d_next = kz.koszul_differential(n, t + 2)
        for a in kz.generate_A(n, t):
            assert compose(a.to_functional(), d_next).is_zero()


def test_top_family_size_and_annihilation():
    for n in (4, 5, 6):
        fam = kz.generate_B(n)
        assert len(fam) == binomial(n, 2)
        d_top = kz.koszul_differential(n, n)
        for bvec in fam:
            assert compose(bvec.to_functional(), d_top).is_zero()


def test_scaled_family_member_expands_as_published():
    # -x1^2*x2*x4 * B_{14} has exactly the two stated dual terms
    fam = kz.generate_B(6)
    idx = kz.b_index(6).index((1, 4))
    coeff = parse_polynomial("-x1^2*x2*x4", 6)
    b = fam[idx].mul_poly(coeff)
    expected = kz.parse_koszul_vector(
        "x1^2*x2*x4^2*e*[2,3,4,5,6] + x1^3*x2*x4*e*[1,2,3,5,6]",
        6, [kz.Summand(5, 0, True)])
    assert b == expected


def test_kernel_of_euler_form_is_second_syzygy_module():
    for n in (3, 4, 5, 6):
        fam = kz.generate_A(n, 0)
        ker = gb.kernel(fam[0].to_functional())
        assert gb.equal(ker, kz.E(n, 2).gens)


# ---------------------------------------------------------------------------
# dual pairing
# ---------------------------------------------------------------------------

def test_dual_basis_pairing():
    prim = kz.KoszulVector(4, [kz.Summand(2, 0, False)],
                           {(0, (1, 2)): Polynomial.constant(4, Fraction(1))})
    dual_same = kz.KoszulVector(4, [kz.Summand(2, 0, True)],
                                {(0, (1, 2)): Polynomial.constant(4, Fraction(1))})
    dual_other = kz.KoszulVector(4, [kz.Summand(2, 0, True)],
                                 {(0, (1, 3)): Polynomial.constant(4, Fraction(1))})
    one = Polynomial.constant(4, Fraction(1))
    assert dual_pair(prim, dual_same) == one
    assert dual_pair(prim, dual_other).is_zero()


def test_pairing_of_first_beta_with_functional_vanishes(example1):
    # beta_1 = e_{12} pairs to zero with the 9-quadric functional
    beta1 = kz.KoszulVector(6, [kz.Summand(2, 0, False)],
                            {(0, (1, 2)): Polynomial.constant(6, Fraction(1))})
    phi = kz.parse_koszul_vector(
        example1.provenance["phi_vector"], 6, [kz.Summand(2, 0, True)])
    assert dual_pair(beta1, phi).is_zero()


def test_pairing_is_bilinear():
    rng = random.Random(5)
    summand_p = [kz.Summand(2, 0, False)]
    summand_d = [kz.Summand(2, 0, True)]

    def rand_vec(summands):
        coeffs = {}
        for I in kz.subsets(4, 2):
            if rng.random() < 0.5:
                coeffs[(0, I)] = Polynomial.constant(4, Fraction(rng.randint(-3, 3)))
        return kz.KoszulVector(4, summands, coeffs)

    for _ in range(20):
        u, v = rand_vec(summand_p), rand_vec(summand_p)
        w = rand_vec(summand_d)
        lhs = dual_pair(u + v, w)
        rhs = dual_pair(u, w) + dual_pair(v, w)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# self-duality
# ---------------------------------------------------------------------------

def span_dimension(ambient, vectors, degree):
    """dim of the degree-d part of the span, by exact Gaussian elimination."""
    n = ambient.n
    cols = []
    for v in vectors:
        vdeg = v.homogeneous_degree(ambient)
        shift = degree - vdeg
        if shift < 0:
            continue
        for exp in itertools.product(range(shift + 1), repeat=n):
            if sum(exp) != shift:
                continue
            cols.append(v.mul_poly(Polynomial.monomial(v.n, exp, Fraction(1))))
    basis_index = {}
    rows = []
    for v in cols:
        dense = {}
        for key, c in v.terms.items():
            idx = basis_index.setdefault(key, len(basis_index))
            dense[idx] = c
        rows.append(dense)
    # sparse row reduction
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead in pivots:
                piv = pivots[lead]
                fac = row[lead] / piv[lead]
                for k, c in piv.items():
                    s = row.get(k, Fraction(0)) - fac * c
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def test_selfduality_small_case_against_span_oracle():
    n = 3
    for i in (1, 2, 3):
        assert selfduality_check(n, i)
    # oracle comparison for i = 1: both sides counted by brute spans
    e1 = kz.E(n, 1)
    dual_d = kz.koszul_differential(n, n).dual()
    dual_gens = gb.SubmoduleGens(dual_d.target, dual_d.columns(), check=False)
    for d in range(0, 5):
        lhs = span_dimension(e1.ambient, list(e1.gens.vectors), d)
        rhs = span_dimension(dual_d.target, list(dual_gens.vectors), d)
        assert lhs == rhs
        engine = hilbert_function(e1.gens, d, submodule=True)[d]
        assert lhs == engine


def test_selfduality_for_the_worked_setting():
    assert selfduality_check(6, 2)


def test_selfduality_rank_symmetry():
    for n in range(2, 7):
        for i in range(1, n + 1):
            assert binomial(n - 1, i - 1) == binomial(n - 1, n - i)


def test_selfduality_all_positions_medium_sizes():
    for n in (4, 5):
        for i in range(1, n + 1):
            assert selfduality_check(n, i)


# ---------------------------------------------------------------------------
# text round trip
# ---------------------------------------------------------------------------

def test_koszul_vector_parse_format_round_trip():
    summands = [kz.Summand(1, 0, False), kz.Summand(5, 1, False)]
    text = "x6^5*e[3] - x1^2*e[1,3,4,5,6]"
    v = kz.parse_koszul_vector(text, 6, summands)
    assert kz.format_koszul_vector(v) == text
    again = kz.parse_koszul_vector(kz.format_koszul_vector(v), 6, summands)
    assert again == v


def test_koszul_vector_round_trip_randomized():
    rng = random.Random(8)
    summands = [kz.Summand(2, 0, False), kz.Summand(3, 1, False)]
    for _ in range(25):
        coeffs = {}
        for si, s in ((0, 2), (1, 3)):
            for I in kz.subsets(5, s):
                if rng.random() < 0.3:
                    exp = [0] * 5
                    for _ in range(rng.randint(0, 2)):
                        exp[rng.randrange(5)] += 1
                    coeffs[(si, I)] = Polynomial.monomial(
                        5, tuple(exp), Fraction(rng.choice((-2, -1, 1, 2))))
        v = kz.KoszulVector(5, summands, coeffs)
        again = kz.parse_koszul_vector(
            kz.format_koszul_vector(v), 5, summands)
        assert again == v


def test_parse_rejects_ambiguous_sizes():
    with pytest.raises(ValueError):
        kz.parse_koszul_vector(
            "e[1]", 4, [kz.Summand(1, 0, False), kz.Summand(1, 1, False)])


def test_vector_conversion_positions_follow_colex():
    summands = [kz.Summand(2, 0, False)]
    v = kz.parse_koszul_vector("e[1,3]", 4, summands)
    vec = v.to_vec()
    assert list(vec.terms) == [(1, (0, 0, 0, 0))]  # colex rank of {1,3} is 1


# ---------------------------------------------------------------------------
# Vec coordinates and functionals
# ---------------------------------------------------------------------------

def summand_lists(n, dual):
    """1-3 summands of any size, with shifts, all dual, all primal, or mixed
    (``dual`` None)."""
    duality = st.booleans() if dual is None else st.just(dual)
    return st.lists(st.builds(kz.Summand, st.integers(0, n),
                              st.integers(-2, 2), duality),
                    min_size=1, max_size=3)


@st.composite
def koszul_vectors(draw):
    """A Koszul vector over Q or F_32003 on random summands."""
    n = draw(st.integers(1, 4))
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    summands = draw(summand_lists(n, None))
    coeff = st.integers(-5, 5).map(field.from_int)
    mono = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = {(si, I): Polynomial(n, draw(st.dictionaries(mono, coeff,
                                                          max_size=2)), field)
              for si, sm in enumerate(summands) for I in kz.subsets(n, sm.s)}
    return kz.KoszulVector(n, summands, coeffs, field)


@given(koszul_vectors())
@settings(max_examples=80, deadline=None)
def test_from_vec_inverts_to_vec(v):
    vec = v.to_vec()
    assert max(vec.positions(), default=-1) < v.free_module().rank
    again = kz.KoszulVector.from_vec(v.n, v.summands, vec)
    assert again == v
    assert again.to_vec() == vec


def homogeneous_poly(draw, n, d, coeff, field):
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        exp = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), min_size=d,
                               max_size=d)):
            exp[i] += 1
        terms[tuple(exp)] = draw(coeff)
    return Polynomial(n, terms, field)


@st.composite
def functional_cases(draw):
    """A dual Koszul vector whose entries have the degrees of one shift c,
    except at most one entry, which is of the next degree or inhomogeneous."""
    n = draw(st.integers(1, 4))
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    summands = draw(summand_lists(n, True))
    coeff = st.integers(1, 5).map(field.from_int)
    c = draw(st.integers(0, n + 2))
    keys = [(si, I) for si, sm in enumerate(summands)
            for I in kz.subsets(n, sm.s)]
    fault = draw(st.sampled_from([None, "next degree", "inhomogeneous"]))
    at = draw(st.integers(0, len(keys) - 1))
    coeffs = {}
    for j, (si, I) in enumerate(keys):
        sm = summands[si]
        d = c + sm.s - sm.shift - n  # degree of phi's entry at e*_I
        if d < 0 or not draw(st.booleans()) and j != at:
            continue
        if j == at and fault == "next degree":
            d += 1
        p = homogeneous_poly(draw, n, d, coeff, field)
        if j == at and fault == "inhomogeneous":
            p = p + homogeneous_poly(draw, n, d + 1, coeff, field)
        coeffs[(si, I)] = p
    return kz.KoszulVector(n, summands, coeffs, field), field


def dense_functional(v, field):
    """Reference for ``to_functional``: the dense row of phi's entries and
    its shift, or the message of the first entry that is refused."""
    primal = [kz.Summand(sm.s, sm.shift, False) for sm in v.summands]
    twists = kz.KoszulVector(v.n, primal, {}, field).free_module().twists
    row = [v.coeffs.get((si, I), Polynomial.zero(v.n, field))
           for si, sm in enumerate(v.summands) for I in kz.subsets(v.n, sm.s)]
    shift = None
    for p, twist in zip(row, twists):
        if p.is_zero():
            continue
        deg = p.homogeneous_degree()
        if deg is None:
            return row, None, "inhomogeneous functional entry"
        if shift is not None and shift != deg - twist + v.n:
            return row, None, "functional entries disagree on degree shift"
        shift = deg - twist + v.n
    return row, 0 if shift is None else shift, None


@given(functional_cases())
@settings(max_examples=120, deadline=None)
def test_to_functional_matches_dense_row_reference(case):
    v, field = case
    row, shift, error = dense_functional(v, field)
    if error is not None:
        with pytest.raises(ValueError, match=error):
            v.to_functional(field)
        return
    phi = v.to_functional(field)
    assert phi.target == GradedFreeModule(v.n, [v.n], field=field)
    assert phi.source.rank == len(row)
    assert [col.component(0) for col in phi.cols] == row
    assert all(col.positions() <= {0} for col in phi.cols)
    assert phi.shift == shift


def test_to_functional_keeps_rational_coefficients_canonical():
    """Over Q an integral coefficient comes back as an ``int`` whether it
    went in as ``2`` or ``Fraction(2)``; a non-integral one stays a
    ``Fraction``, and the printed map does not change."""
    n, t = 4, 1
    base = kz.generate_A(n, t)[0]

    def scaled(factors):
        return kz.KoszulVector(n, base.summands, {
            k: p.scale(factors[i % len(factors)])
            for i, (k, p) in enumerate(base.coeffs.items())})

    phi = scaled([Fraction(2), Fraction(1, 2)]).to_functional()
    ref = scaled([2, Fraction(1, 2)]).to_functional()
    values = [c for col in phi.cols for c in col.terms.values()]
    assert {type(c) for c in values} == {int, Fraction}
    assert all(type(c) is int for c in values if c.denominator == 1)
    assert phi == ref
    assert ([str(p) for p in dense_rows(phi)[0]]
            == [str(p) for p in dense_rows(ref)[0]])
    # over F_p the coefficients are kept as they are
    F = PrimeField(32003)
    v = kz.generate_A(n, t, F)[0]
    kept = [c for col in v.to_functional(F).cols for c in col.terms.values()]
    assert all(map(F.admits, kept))
    assert sorted(kept) == sorted(v.to_vec().terms.values())
