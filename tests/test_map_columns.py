"""ModuleMap stores sparse columns: its operations against dense formulas.

The reference functions below work on the dense target-rank x source-rank
matrix of ``Polynomial`` entries, entry by entry; the library works on the
stored ``Vec`` columns.  Both must give the same maps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bseq.rings import (DimensionMismatch, Polynomial, PrimeField, RATIONALS,
                        format_polynomial)
from bseq.modules import (
    ChainComplex,
    GradedFreeModule,
    ModuleMap,
    Vec,
    compose,
    direct_sum,
    homogeneity_check,
)
from bseq import bourbaki, resolution
from oracles import dense_rows, is_complex, polys


# ---------------------------------------------------------------------------
# dense reference formulas
# ---------------------------------------------------------------------------

def dense(m):
    return [list(row) for row in dense_rows(m)]


def zeros(n, r, c, field):
    return [[Polynomial.zero(n, field)] * c for _ in range(r)]


def ref_compose(f, g, c, n, field):
    """Matrix product of dense f (r x k) and g (k x c) over ``field``."""
    k = len(g)
    out = zeros(n, len(f), c, field)
    for i in range(len(f)):
        for j in range(c):
            for t in range(k):
                out[i][j] = out[i][j] + f[i][t] * g[t][j]
    return out


def ref_dual(rows, source_rank):
    return [[rows[i][j] for i in range(len(rows))] for j in range(source_rank)]


def ref_direct_sum(a, a_cols, b, b_cols, n, field):
    z = Polynomial.zero(n, field)
    return ([list(r) + [z] * b_cols for r in a]
            + [[z] * a_cols + list(r) for r in b])


def ref_apply(rows, w, n, field):
    out = []
    for row in rows:
        acc = Polynomial.zero(n, field)
        for entry, x in zip(row, w):
            acc = acc + entry * x
        out.append(acc)
    return out


def ref_homogeneity(rows, source, target, shift):
    out = []
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            expected = source.twists[j] - target.twists[i] + shift
            found = p.homogeneous_degree()
            if found != expected:
                out.append((i, j, found, expected))
    return out


def ref_cone(A, B, alpha_rows, n, field):
    """Dense cone differentials: d(a, b) = (-d_A a, alpha(a) + d_B b)."""
    length = max(A.length + 1, B.length)

    def a_rank(i):
        return A.modules[i].rank if 0 <= i <= A.length else 0

    def b_rank(i):
        return B.modules[i].rank if 0 <= i <= B.length else 0

    out = []
    for i in range(1, length + 1):
        ar_t, br_t = a_rank(i - 2), b_rank(i - 1)
        ar_s, br_s = a_rank(i - 1), b_rank(i)
        rows = zeros(n, ar_t + br_t, ar_s + br_s, field)
        if ar_t and ar_s:
            dA = dense(A.differential(i - 1))
            for r in range(ar_t):
                for c in range(ar_s):
                    rows[r][c] = -dA[r][c]
        if ar_s:
            al = alpha_rows[i - 1]
            for r in range(br_t):
                for c in range(ar_s):
                    rows[ar_t + r][c] = al[r][c]
        if br_s and br_t:
            dB = dense(B.differential(i))
            for r in range(br_t):
                for c in range(br_s):
                    rows[ar_t + r][ar_s + c] = dB[r][c]
        out.append(rows)
    return out


# ---------------------------------------------------------------------------
# random maps
# ---------------------------------------------------------------------------

FIELDS = [RATIONALS, PrimeField(32003)]


def coefficients(field, fractions=False):
    """Small integers, or with ``fractions`` small fractions too, taken
    into ``field``."""
    ints = st.integers(-9, 9).map(field.from_int)
    if not fractions:
        return ints
    return ints | st.builds(field.fraction, st.integers(-9, 9),
                            st.integers(1, 5))


@st.composite
def homogeneous_poly(draw, n, field, degree, fractions=False):
    if degree < 0:
        return Polynomial.zero(n, field)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exp = [0] * n
        for v in draw(st.lists(st.integers(0, n - 1), min_size=degree,
                               max_size=degree)):
            exp[v] += 1
        terms[tuple(exp)] = draw(coefficients(field, fractions))
    return Polynomial(n, terms, field)


@st.composite
def any_poly(draw, n, field, fractions=False):
    mono = st.tuples(*[st.integers(0, 2)] * n)
    coeff = coefficients(field, fractions)
    return Polynomial(n, draw(st.dictionaries(mono, coeff, max_size=3)), field)


@st.composite
def maps(draw, n, field, source=None, target=None, shift=None,
         homogeneous=True, fractions=False):
    """A map of rank <= 3 between modules with twists in 0..3; with
    ``fractions``, its coefficients include fractions."""
    twists = st.lists(st.integers(0, 3), min_size=0, max_size=3)
    if source is None:
        source = GradedFreeModule(n, draw(twists), field=field)
    if target is None:
        target = GradedFreeModule(n, draw(twists), field=field)
    if shift is None:
        shift = draw(st.integers(-1, 1))
    rows = []
    for ti in target.twists:
        row = []
        for tj in source.twists:
            if homogeneous:
                row.append(draw(homogeneous_poly(n, field, tj - ti + shift,
                                                 fractions)))
            else:
                row.append(draw(any_poly(n, field, fractions)))
        rows.append(row)
    return ModuleMap(source, target, rows, shift), rows


@st.composite
def fields_and_n(draw):
    return draw(st.sampled_from(FIELDS)), draw(st.integers(1, 3))


# ---------------------------------------------------------------------------
# the differential tests
# ---------------------------------------------------------------------------

@given(st.data(), fields_and_n())
@settings(max_examples=80, deadline=None)
def test_rows_round_trip(data, fn):
    field, n = fn
    m, rows = data.draw(maps(n, field, homogeneous=data.draw(st.booleans())))
    assert dense(m) == rows
    assert ModuleMap(m.source, m.target, dense_rows(m), m.shift) == m
    assert ModuleMap.from_columns(m.source, m.target, m.columns(),
                                  m.shift) == m
    assert m.is_zero() == all(p.is_zero() for row in rows for p in row)


@given(st.data(), fields_and_n())
@settings(max_examples=80, deadline=None)
def test_compose_matches_matrix_product(data, fn):
    field, n = fn
    g, g_rows = data.draw(maps(n, field))
    f, f_rows = data.draw(maps(n, field, source=g.target))
    fg = compose(f, g)
    assert dense(fg) == ref_compose(f_rows, g_rows, g.source.rank, n,
                                     field)
    assert (fg.source, fg.target, fg.shift) == (g.source, f.target,
                                                f.shift + g.shift)


@given(st.data(), fields_and_n())
@settings(max_examples=80, deadline=None)
def test_dual_is_the_transpose(data, fn):
    field, n = fn
    m, rows = data.draw(maps(n, field))
    d = m.dual()
    assert dense(d) == ref_dual(rows, m.source.rank)
    assert d.source == m.target.dual() and d.target == m.source.dual()
    assert d.shift == m.shift
    assert d.dual() == m


@given(st.data(), fields_and_n())
@settings(max_examples=80, deadline=None)
def test_direct_sum_is_block_diagonal(data, fn):
    field, n = fn
    a, a_rows = data.draw(maps(n, field))
    b, b_rows = data.draw(maps(n, field, shift=a.shift))
    s = direct_sum(a, b)
    assert dense(s) == ref_direct_sum(a_rows, a.source.rank, b_rows,
                                      b.source.rank, n, field)
    assert s.source == a.source.direct_sum(b.source)
    assert s.target == a.target.direct_sum(b.target)


@given(st.data(), fields_and_n())
@settings(max_examples=80, deadline=None)
def test_apply_matches_dense_product(data, fn):
    field, n = fn
    m, rows = data.draw(maps(n, field, homogeneous=data.draw(st.booleans())))
    w = [data.draw(any_poly(n, field)) for _ in range(m.source.rank)]
    v = Vec(n, {(j, e): c for j, p in enumerate(w) for e, c in p.terms.items()},
            field)
    assert (polys(m.apply(v), m.target.rank)
            == ref_apply(rows, w, n, field))


@given(st.data(), fields_and_n(), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_twisted_keeps_the_matrix(data, fn, t):
    field, n = fn
    m, rows = data.draw(maps(n, field))
    tw = m.twisted(t)
    assert dense(tw) == rows
    assert tw.source == m.source.shifted(t)
    assert tw.target == m.target.shifted(t)
    assert homogeneity_check(tw) == homogeneity_check(m)


@given(st.data(), fields_and_n())
@settings(max_examples=100, deadline=None)
def test_homogeneity_violations_match_row_major_scan(data, fn):
    field, n = fn
    m, rows = data.draw(maps(n, field, homogeneous=False))
    ok, violations = homogeneity_check(m)
    assert violations == ref_homogeneity(rows, m.source, m.target, m.shift)
    assert ok == (not violations)


@given(st.data(), fields_and_n())
@settings(max_examples=100, deadline=None)
def test_homogeneity_violations_match_a_component_scan(data, fn):
    field, n = fn
    m, _ = data.draw(maps(n, field, homogeneous=False))
    expected = []
    for i in range(m.target.rank):
        for j, col in enumerate(m.cols):
            entry = col.component(i)
            degree = m.source.twists[j] - m.target.twists[i] + m.shift
            if entry and entry.homogeneous_degree() != degree:
                expected.append((i, j, entry.homogeneous_degree(), degree))
    assert homogeneity_check(m) == (not expected, expected)


@given(st.data(), fields_and_n())
@settings(max_examples=100, deadline=None)
def test_map_files_print_the_dense_entries_and_read_back(data, fn):
    field, n = fn
    m, _ = data.draw(maps(n, field, homogeneous=data.draw(st.booleans()),
                          fractions=True))
    if data.draw(st.booleans()):
        m = ModuleMap.zero(m.source, m.target, m.shift)
    out = bourbaki.map_to_json(m)
    assert out["entries"] == [format_polynomial(e) for row in dense_rows(m)
                              for e in row]
    assert bourbaki.load_map_json(out, field) == m


@given(st.data(), fields_and_n(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_mapping_cone_of_identity_matches_dense_cone(data, fn, longer):
    field, n = fn
    f, _ = data.draw(maps(n, field, shift=0))
    modules, differentials = [f.target, f.source], [f]
    if longer:
        top = GradedFreeModule(n, data.draw(
            st.lists(st.integers(0, 3), max_size=3)), field=field)
        modules.append(top)
        differentials.append(ModuleMap.zero(top, f.source))
    A = ChainComplex(modules, differentials)
    alphas = [ModuleMap.identity(m) for m in A.modules]
    cone = resolution.mapping_cone(resolution.ChainMap(A, A, alphas))
    expected = ref_cone(A, A, [dense(a) for a in alphas], n, field)
    assert [dense(d) for d in cone.maps] == expected
    assert is_complex(cone)


# ---------------------------------------------------------------------------
# from_columns checks its shape
# ---------------------------------------------------------------------------

def _shape_case():
    n = 2
    source = GradedFreeModule(n, [1, 1])
    target = GradedFreeModule(n, [0])
    x1 = Vec(n, {(0, (1, 0)): RATIONALS.one})
    return source, target, x1


def test_from_columns_refuses_too_few_columns():
    source, target, x1 = _shape_case()
    with pytest.raises(DimensionMismatch):
        ModuleMap.from_columns(source, target, [x1])


def test_from_columns_refuses_too_many_columns():
    source, target, x1 = _shape_case()
    with pytest.raises(DimensionMismatch):
        ModuleMap.from_columns(source, target, [x1, x1, x1])


def test_from_columns_refuses_a_position_beyond_the_target():
    source, target, x1 = _shape_case()
    with pytest.raises(DimensionMismatch):
        ModuleMap.from_columns(source, target, [x1, x1.offset(1)])
