"""Scalars, monomial orders, polynomial arithmetic and the text grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bseq.rings import (
    DimensionMismatch,
    ParseError,
    Polynomial,
    PrimeField,
    RATIONALS,
    binomial,
    format_polynomial,
    grevlex_key,
    join_signed,
    mono_mul,
    monomial_factors,
    parse_polynomial,
    signed_term,
)


# ---------------------------------------------------------------------------
# binomial: oracle is Pascal's triangle built from scratch
# ---------------------------------------------------------------------------

def pascal_oracle(rows):
    tri = [[1]]
    for r in range(1, rows):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, r)] + [1])
    return tri


def test_binomial_against_pascal_triangle():
    tri = pascal_oracle(12)
    for n in range(12):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


def test_binomial_known_values():
    assert binomial(5, 1) == 5
    assert binomial(6, 2) == 15  # rank of the second exterior power for n=6
    assert binomial(4, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(0, 0) == 1


def test_binomial_negative_upper_follows_series_convention():
    # (1+x)^(-2) = 1 - 2x + 3x^2 - ...
    assert [binomial(-2, k) for k in range(4)] == [1, -2, 3, -4]


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if b != 0:
        assert (a / b) * b == a


@given(st.integers(), st.integers(), st.integers())
def test_prime_field_axioms(x, y, z):
    # the scalars are ints in [0, p), combined mod p
    F = PrimeField(101)
    a, b, c = F.from_int(x), F.from_int(y), F.from_int(z)
    assert all(map(F.admits, (a, b, c)))
    assert F.from_int(x + y) == F.from_int(a + b)
    assert F.from_int(x * y) == F.from_int(a * b)
    assert F.from_int(F.from_int(a * b) * c) == F.from_int(a * F.from_int(b * c))
    assert F.from_int(a * (b + c)) == F.from_int(a * b + a * c)
    assert F.from_int(a - a) == F.zero
    if b:
        assert F.admits(F.inv(b)) and F.from_int(F.inv(b) * b) == F.one
        assert F.from_int(F.fraction(a, b) * b) == a


def test_prime_field_rejects_composites_and_large_primes():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_prime_field_fraction_coefficients():
    F = PrimeField(7)
    assert F.fraction(5, 2) == F.from_int(6)  # 5 * 2^{-1} = 5 * 4 = 20 = 6


def test_rationals_keep_integral_values_as_int():
    for value in (RATIONALS.one, RATIONALS.zero, RATIONALS.from_int(-4),
                  RATIONALS.fraction(6, 3), RATIONALS.fraction(-6, 3),
                  RATIONALS.fraction(6, -3)):
        assert type(value) is int
    assert RATIONALS.fraction(6, -3) == -2
    assert RATIONALS.fraction(2, 4) == Fraction(1, 2)
    assert type(RATIONALS.fraction(2, 4)) is Fraction
    assert type(P("4/2*x1 + 1/2*x2", 2).terms[(1, 0)]) is int


@given(rationals.filter(bool))
def test_rational_inverse_is_exact_and_int_when_integral(a):
    inv = RATIONALS.inv(a)
    assert inv * a == 1
    assert type(inv) is (int if (1 / a).denominator == 1 else Fraction)
    assert RATIONALS.inv(RATIONALS.inv(a)) == a


def test_field_inverses():
    assert RATIONALS.inv(Fraction(1, 3)) == 3
    assert type(RATIONALS.inv(Fraction(-1, 3))) is int
    assert RATIONALS.inv(-1) == -1 and type(RATIONALS.inv(-1)) is int
    assert RATIONALS.inv(2) == Fraction(1, 2)
    assert RATIONALS.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    F = PrimeField(7)
    assert F.inv(F.from_int(3)) == F.from_int(5)  # 3 * 5 = 15 = 1
    for field, zero in ((RATIONALS, 0), (RATIONALS, Fraction(0)), (F, F.zero)):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


def test_field_admission():
    F = PrimeField(32003)
    assert RATIONALS.admits(3) and RATIONALS.admits(Fraction(1, 2))
    for foreign in (True, 0.5, 1.0, "1"):
        assert not RATIONALS.admits(foreign)
    # over F_p a scalar is an int (not a bool) in [0, p)
    assert F.admits(F.one) and F.admits(F.from_int(-3)) and F.admits(1)
    assert F.admits(F.p - 1) and F.from_int(-3) == F.p - 3
    for foreign in (F.p, -1, True, Fraction(1), 1.0):
        assert not F.admits(foreign)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def monomials(n, max_exp=4):
    return st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)


@given(monomials(4), monomials(4), monomials(4))
def test_grevlex_is_total_and_multiplicative(u, v, w):
    ku, kv = grevlex_key(u), grevlex_key(v)
    assert (ku < kv) or (kv < ku) or u == v
    if ku < kv:
        assert grevlex_key(mono_mul(u, w)) < grevlex_key(mono_mul(v, w))


def test_grevlex_textbook_comparisons():
    # degree first; ties broken against the last variable
    x1x3 = (1, 0, 1)
    x2sq = (0, 2, 0)
    assert grevlex_key(x2sq) > grevlex_key(x1x3)
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 0, 1))


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def P(text, n, field=RATIONALS):
    return parse_polynomial(text, n, field)


def test_difference_of_squares():
    assert P("x1 + x2", 2) * P("x1 - x2", 2) == P("x1^2 - x2^2", 2)


def test_additive_identity():
    p = P("x1^3 - 2*x2", 3)
    assert p + Polynomial.zero(3) == p


def test_monomial_product_matches_exponent_addition():
    # (x1*x4)*(x2*x5) over n=6: exponent vectors add componentwise
    a, b = P("x1*x4", 6), P("x2*x5", 6)
    (ea,), (eb,) = a.terms.keys(), b.terms.keys()
    expected = tuple(x + y for x, y in zip(ea, eb))
    prod = a * b
    assert list(prod.terms.keys()) == [expected]
    assert prod == P("x1*x2*x4*x5", 6)
    assert prod.homogeneous_degree() == 4


def test_product_degree_adds_for_homogeneous_inputs():
    a = P("x1^2 + x2*x3", 3)
    b = P("x3^3 - x1*x2^2", 3)
    assert (a * b).homogeneous_degree() == 5


def test_mismatched_variable_count_raises():
    with pytest.raises(DimensionMismatch):
        P("x1", 2) + P("x1", 3)


def test_homogeneity_cache_tracks_support():
    assert P("x1^2 + x2", 2).homogeneous_degree() is None
    assert P("x1^2 + x2^2", 2).homogeneous_degree() == 2


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_scale_distributes(a, b):
    p = P("x1^2 - 3*x2 + 1/2", 2)
    fa, fb = Fraction(a), Fraction(b)
    assert p.scale(fa) + p.scale(fb) == p.scale(fa + fb)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_two_term_polynomial():
    p = P("x1^2*x2 - 3*x3", 3)
    assert len(p.terms) == 2
    assert p.terms[(2, 1, 0)] == 1
    assert p.terms[(0, 0, 1)] == -3


def test_parse_quadric_pair():
    p = P("x1*x4 + x2*x5", 6)
    assert p.homogeneous_degree() == 2
    assert len(p.terms) == 2


def test_parse_zero():
    p = P("0", 4)
    assert p.is_zero()
    assert format_polynomial(p) == "0"


@pytest.mark.parametrize("text, field", [
    ("1/0*x1", RATIONALS), ("1/0*x1", PrimeField(7)), ("3/14*x2", PrimeField(7))])
def test_parse_refuses_a_denominator_that_vanishes_in_the_field(text, field):
    with pytest.raises(ParseError, match="zero denominator"):
        P(text, 2, field)


def test_parse_rational_coefficients():
    p = P("2/3*x1 - 5*x2^2", 2)
    assert p.terms[(1, 0)] == Fraction(2, 3)
    assert p.terms[(0, 2)] == -5


def test_parse_reports_position_for_unknown_variable():
    with pytest.raises(ParseError) as info:
        P("x1 + x9", 3)
    assert "x9" in str(info.value)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        P("x1 + ", 3)
    with pytest.raises(ParseError):
        P("x1 x2", 3)


@pytest.mark.parametrize("c, factors, expected", [
    (1, [], (False, "1")),
    (-1, [], (True, "1")),
    (1, ["x1"], (False, "x1")),
    (-1, ["x1", "x2^2"], (True, "x1*x2^2")),
    (Fraction(-3, 2), ["x1"], (True, "3/2*x1")),
    (32002, ["x3"], (False, "32002*x3")),  # an F_p residue is printed as is
    (-5, ["t^-2"], (True, "5*t^-2")),
])
def test_signed_term(c, factors, expected):
    assert signed_term(c, factors) == expected


def test_join_signed_and_monomial_factors():
    assert join_signed([]) == "0"
    assert join_signed(iter([(True, "a"), (False, "b"), (True, "c")])) == (
        "-a + b - c")
    assert join_signed([(False, "a"), (True, "b")]) == "a - b"
    assert monomial_factors((2, 0, 1)) == ["x1^2", "x3"]
    assert monomial_factors((0, 0)) == []
    assert format_polynomial(P("-x1^2*x3 + 1/2*x2 - 3", 3)) == (
        "-x1^2*x3 + 1/2*x2 - 3")


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=100)


@st.composite
def random_polynomials(draw, n=4, max_terms=6, field=RATIONALS):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = draw(monomials(n, 3))
        q = draw(coeffs)
        c = field.fraction(q.numerator, q.denominator)
        if c:
            terms[exp] = c
    return Polynomial(n, terms)


@st.composite
def polynomial_triples(draw):
    field = draw(st.sampled_from([RATIONALS, PrimeField(32003)]))
    return [draw(random_polynomials(field=field)) for _ in range(3)]


@given(random_polynomials())
@settings(max_examples=200)
def test_print_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p), 4) == p


@given(polynomial_triples())
def test_ring_axioms_on_polynomials(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a - b + b == a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
