"""Minimal free resolutions, mapping cones, Betti tables, Hilbert data.

Includes the numerator Q(λ) of a Hilbert series, the one reader of a
numerator: its series coefficients, exact derivatives at λ = 1, and its
power of (1 - λ), whence the dimension.  Also the closed-form
codimension-3 conditions on twist data, and Ext patterns against S(-n)
computed from the dual maps of any free resolution: the transposes of a
minimal one's differentials, or a Koszul tail's codifferentials, which
are built as such.  An image whose generators' own leads meet its
Hilbert floor builds no Buchberger run.
"""

from .rings import (DimensionMismatch, binomial, join_signed, merge_terms,
                    signed_term)
from .modules import (
    ChainComplex,
    GradedFreeModule,
    ModuleMap,
    Vec,
    compose,
)
from . import groebner

__all__ = [
    "BettiTable",
    "HilbertNumerator",
    "NumericalReport",
    "ChainMap",
    "minimal_resolution",
    "mapping_cone",
    "hilbert_numerator",
    "q_vanishing",
    "numerical_conditions",
    "cohomology_pattern",
    "ext_pattern",
    "exactness_audit",
    "fp_dimension",
    "fp_hilbert_function",
]


class BettiTable:
    """Map (homological index i, internal degree j) -> multiplicity."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def from_complex(cls, cc):
        entries = {}
        for i, mod in enumerate(cc.modules):
            for tw in mod.twists:
                entries[(i, tw)] = entries.get((i, tw), 0) + 1
        return cls(entries)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        rows = sorted(self.entries.items())
        return "BettiTable(" + ", ".join(
            f"b[{i},{j}]={v}" for (i, j), v in rows) + ")"


class HilbertNumerator:
    """Integer Laurent polynomial Q(λ) with Hilb = Q/(1-λ)^n."""

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs, n):
        self.coeffs = {j: c for j, c in coeffs.items() if c}
        self.n = n

    def derivative_at_one(self, k):
        """Q^(k)(1) exactly: Σ_j c_j · j(j-1)...(j-k+1)."""
        total = 0
        for j, c in self.coeffs.items():
            f = 1
            for a in range(k):
                f *= j - a
            total += c * f
        return total

    def series_coefficient(self, d):
        """Coefficient of λ^d in Q/(1-λ)^n."""
        n = self.n
        return sum(c * binomial(d - j + n - 1, n - 1)
                   for j, c in self.coeffs.items() if j <= d)

    def series(self, window):
        return [self.series_coefficient(d) for d in range(window + 1)]

    def shifted(self, c):
        """Twisting the whole resolution by (-c) multiplies Q by λ^c."""
        return HilbertNumerator({j + c: v for j, v in self.coeffs.items()},
                                self.n)

    def split_at_one(self):
        """(k, g) with Q = (1-λ)^k · g and g(1) != 0, for Q != 0: k is the
        vanishing order of Q at 1, so Q/(1-λ)^n has pole order n - k, and
        at k = n the series is the Laurent polynomial g.  Each division by
        (1-λ) runs only while g(1) = 0, so it is exact."""
        g, k = self.coeffs, 0
        while sum(g.values()) == 0:
            run, quotient = 0, {}
            for j in range(min(g), max(g)):
                run += g.get(j, 0)
                if run:
                    quotient[j] = run
            g, k = quotient, k + 1
        return k, g

    def __eq__(self, other):
        return (isinstance(other, HilbertNumerator)
                and self.coeffs == other.coeffs and self.n == other.n)

    def __str__(self):
        return join_signed(
            signed_term(self.coeffs[j],
                        [] if j == 0 else ["t" if j == 1 else f"t^{j}"])
            for j in sorted(self.coeffs))

    def __repr__(self):
        return f"HilbertNumerator({self}, n={self.n})"


def hilbert_numerator(cc):
    """Q(λ) = Σ_{i,j} (-1)^i β_{ij} λ^j of a finite free complex."""
    coeffs = {}
    for (i, j), v in BettiTable.from_complex(cc).entries.items():
        coeffs[j] = coeffs.get(j, 0) + (-1) ** i * v
    return HilbertNumerator(coeffs, cc.modules[0].n)


def q_vanishing(q, order):
    """[Q(1)=0, Q'(1)=0, ...] up to the requested number of derivatives."""
    return [q.derivative_at_one(k) == 0 for k in range(order)]


# ---------------------------------------------------------------------------
# minimal resolutions
# ---------------------------------------------------------------------------

def _prune_presentation(pres, relations):
    """Cancel unit entries: relations with a constant coordinate eliminate
    the corresponding generator.  Returns (module, relations) minimal at
    homological step zero."""
    n = pres.n
    twists = list(pres.twists)
    rels = [v for v in relations if not v.is_zero()]
    zero_exp = (0,) * n
    while True:
        hit = None
        for ri, r in enumerate(rels):
            for (pos, exp), c in r.terms.items():
                if exp == zero_exp:
                    hit = (ri, pos, c)
                    break
            if hit:
                break
        if hit is None:
            break
        ri, pos, c = hit
        r = rels[ri]
        others = rels[:ri] + rels[ri + 1:]
        new_rels = []
        for v in others:
            comp = v.component(pos)
            if comp:
                v = v - r.mul_poly(comp.scale(pres.field.inv(c)))
            new_rels.append(v)
        # drop the generator `pos`
        def drop(v):
            return Vec(n, {(p if p < pos else p - 1, e): cc
                           for (p, e), cc in v.terms.items() if p != pos},
                       pres.field)
        rels = [w for w in (drop(v) for v in new_rels) if not w.is_zero()]
        del twists[pos]
    return GradedFreeModule(n, twists, field=pres.field), rels


def minimal_resolution(m):
    """Minimal graded free resolution of a finitely presented module.

    Built by iterated syzygies, taking a minimal generating set at every
    step (so no differential entry has a constant term).  Each step is
    one ``groebner.minimal_syzygies`` call: where the tracked syzygy run
    shows the set minimal already (no syzygy row has a constant entry),
    no run is spent on minimizing it.  Returns the complex
    F_len -> ... -> F_0 and its Betti table.
    """
    n = m.n
    f0, rels = _prune_presentation(m.presentation, m.relations)
    modules = [f0]
    maps = []
    current = groebner.SubmoduleGens(f0, rels, check=False)
    while len(maps) <= n:
        mg, syz = groebner.minimal_syzygies(current)
        if not mg.vectors:
            break
        nxt = GradedFreeModule(n, mg.degrees(), field=f0.field)
        maps.append(ModuleMap.from_columns(nxt, modules[-1], mg.vectors))
        modules.append(nxt)
        current = syz
    else:
        raise AssertionError("resolution exceeded the Hilbert bound")
    cc = ChainComplex(modules, maps)
    return cc, BettiTable.from_complex(cc)


# ---------------------------------------------------------------------------
# mapping cones
# ---------------------------------------------------------------------------

class ChainMap:
    """A chain map alpha_i : A_i -> B_i, verified to commute."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = list(maps)
        if len(self.maps) != len(source.modules):
            raise DimensionMismatch("need one component per source module")
        for i in range(1, len(self.maps)):
            right = compose(self.maps[i - 1], source.differential(i))
            if i > target.length:
                # the target has ended: the square commutes iff alpha
                # kills the source differential
                if not right.is_zero():
                    raise ValueError(
                        f"chain map does not commute at square {i}")
                continue
            left = compose(target.differential(i), self.maps[i])
            if left.cols != right.cols:
                raise ValueError(f"chain map does not commute at square {i}")


def mapping_cone(alpha):
    """Cone C_i = A_{i-1} ⊕ B_i with d(a, b) = (-d_A a, alpha(a) + d_B b)."""
    A, B = alpha.source, alpha.target
    n = B.modules[0].n
    length = max(A.length + 1, B.length)
    empty = GradedFreeModule(n, [], field=B.modules[0].field)

    def a_mod(i):
        return A.modules[i] if 0 <= i <= A.length else empty

    def b_mod(i):
        return B.modules[i] if 0 <= i <= B.length else empty

    modules = [a_mod(i - 1).direct_sum(b_mod(i)) for i in range(length + 1)]
    maps = []
    for i in range(1, length + 1):
        ar_t, br_t = a_mod(i - 2).rank, b_mod(i - 1).rank
        ar_s, br_s = a_mod(i - 1).rank, b_mod(i).rank
        cols = []
        for j in range(ar_s):                  # a -> (-d_A a, alpha_{i-1} a)
            col = Vec.zero(n, empty.field)
            if ar_t:
                col = col - A.differential(i - 1).cols[j]
            if br_t:
                col = col + alpha.maps[i - 1].cols[j].offset(ar_t)
            cols.append(col)
        if br_s:                               # b -> (0, d_B b)
            cols += [v.offset(ar_t) for v in B.differential(i).cols]
        maps.append(ModuleMap.from_columns(modules[i], modules[i - 1], cols))
    return ChainComplex(modules, maps)


def exactness_audit(cc):
    """Verify kernel(d_i) = image(d_{i+1}) at every interior position
    0 < i < length, and that the top differential is injective.

    Image ⊆ kernel is d_i∘d_{i+1} = 0; kernel ⊆ image reduces the kernel's
    generators against a basis of the image, so no basis of the kernel is
    built.  Position 0 is not checked: a resolution's cokernel there is
    what it resolves.  Returns (ok, list of failing positions).  The
    Bourbaki sequence's free part G <- F needs no audit: it has no
    interior position, and condition (b) has shown f injective.
    """
    failures = []
    top = cc.length
    for i in range(1, top):
        d, e = cc.differential(i), cc.differential(i + 1)
        im = groebner.SubmoduleGens(cc.modules[i], e.columns(), check=False)
        # Im d_{i+1} ⊆ Ker d_i iff d_i∘d_{i+1} = 0
        if not (compose(d, e).is_zero()
                and groebner.contains(im, groebner.kernel(d))):
            failures.append(i)
    if top >= 1 and not groebner.injective(cc.differential(top)):
        failures.append(top)
    return (not failures), failures


# ---------------------------------------------------------------------------
# codimension-3 numerical conditions on twist data
# ---------------------------------------------------------------------------

class NumericalReport:
    """Evaluation of the three closed-form conditions on (n,t,c,d,a,b)."""

    __slots__ = ("n", "t", "c", "d", "a", "b", "inferred_c",
                 "cond1", "cond2", "cond3")

    def __init__(self, n, t, c, d, a, b, inferred_c, cond1, cond2, cond3):
        self.n, self.t, self.c, self.d = n, t, c, d
        self.a, self.b = list(a), list(b)
        self.inferred_c = inferred_c
        self.cond1, self.cond2, self.cond3 = cond1, cond2, cond3

    def all_hold(self):
        return self.cond1[0] and self.cond2[0] and self.cond3[0]

    def to_dict(self):
        return {
            "n": self.n, "t": self.t, "c": self.c, "d": self.d,
            "a": self.a, "b": self.b, "inferred_c": self.inferred_c,
            "condition1": {"holds": self.cond1[0], "left": self.cond1[1],
                           "right": self.cond1[2]},
            "condition2": {"holds": self.cond2[0], "left": self.cond2[1],
                           "right": self.cond2[2]},
            "condition3": {"holds": self.cond3[0], "left": self.cond3[1],
                           "right": self.cond3[2]},
        }

    def __repr__(self):
        return (f"NumericalReport(c={self.c}, 1:{self.cond1[0]} "
                f"2:{self.cond2[0]} 3:{self.cond3[0]})")


def _rhs2(n, t, c, d):
    return (n * n - (2 + d) * n + c + d + binomial(n - 2, t - 1)
            + binomial(n - 1, t) * t)


def _rhs3(n, t, c, d):
    return (n ** 3 - (3 + 2 * d) * n ** 2 + (d * d + 4 * d + 1) * n
            - c * c - d * d + binomial(n - 1, t) * (t + 1) ** 2
            - binomial(n - 2, t) * (2 * t + 1)
            - 2 * binomial(n - 3, t - 1))


def numerical_conditions(n, t, c, d, a, b, solve_c=False):
    """Closed-form rank and twist conditions for codimension at least 3.

    With ``solve_c`` the shift c is inferred from the second condition and
    the third is then evaluated at the inferred value.
    """
    a, b = list(a), list(b)
    p, q = len(a), len(b)
    left1, right1 = q, p + binomial(n - 1, t) + n - 2
    sum_diff = sum(b) - sum(a)
    inferred_c = None
    if solve_c:
        inferred_c = sum_diff - _rhs2(n, t, 0, d)
        c = inferred_c
    left2, right2 = sum_diff, _rhs2(n, t, c, d)
    sq_diff = sum(x * x for x in b) - sum(x * x for x in a)
    left3, right3 = sq_diff, _rhs3(n, t, c, d)
    return NumericalReport(
        n, t, c, d, a, b, inferred_c,
        (left1 == right1, left1, right1),
        (left2 == right2, left2, right2),
        (left3 == right3, left3, right3),
    )


# ---------------------------------------------------------------------------
# Ext patterns against S(-n)
# ---------------------------------------------------------------------------

def _relations(fp):
    return groebner.SubmoduleGens(fp.presentation, fp.relations, check=False)


def fp_dimension(fp):
    """Krull dimension of a presented module from lead terms; -1 if zero."""
    return groebner._lead_dimension(_relations(fp))


def fp_hilbert_function(fp, lo, hi):
    """Graded dimensions of a presented module on degrees lo..hi."""
    hn = HilbertNumerator(groebner.quotient_numerator(_relations(fp)), fp.n)
    return {d: hn.series_coefficient(d) for d in range(lo, hi + 1)}


class ExtEntry:
    __slots__ = ("dims", "finite_length", "dimension")

    def __init__(self, dims, finite_length, dimension):
        self.dims = dims
        self.finite_length = finite_length
        self.dimension = dimension

    def __repr__(self):
        return (f"ExtEntry(dims={self.dims}, finite={self.finite_length})")


def cohomology_pattern(m):
    """``ext_pattern`` of the minimal resolution of the presented m,
    dualized: the transposes of its differentials."""
    cc = minimal_resolution(m)[0]
    return ext_pattern([cc.differential(j).dual()
                        for j in range(1, cc.length + 1)])


def ext_pattern(duals):
    """Graded dimensions of Ext^j(M, S(-n)) for j >= 1, by local duality
    the pattern of the local cohomologies of M (at i = n - j).  ``duals``
    are the dual maps φ_j^* : F*_{j-1} -> F*_j, j = 1..L, of a free
    resolution F_L -> ... -> F_0 of M with degree-0 maps: the transposes
    of a minimal resolution's differentials (``cohomology_pattern``), or a
    Koszul tail's codifferentials (``koszul.dual_tail``).

    Only Hilbert data is reported, read off the leads of the image B_j of
    each φ_j^*.  As F*_j / Ker φ_{j+1}^* ≅ B_{j+1}, HS(Ext^j) =
    HS(F*_j/B_j) - HS(F*_{j+1}) + HS(F*_{j+1}/B_{j+1}) (the first term
    alone at j = L), and dim Ext^j is its pole order at λ = 1 (-1 if
    zero).  A finite-length Ext lists its whole Hilbert function, any other
    degrees min(tw)..max(tw) + 3n, tw the degrees of the generators
    ``groebner.kernel`` gives Ker φ_{j+1}^* (the twists of F*_L at j = L).

    The quotients are taken for j = 1..L in turn, each with the floor
    N(F*_j) - N(F*_{j-1}/B_{j-1}) (N(F*_0/B_0) = N(F*_0)): B_j ≅
    F*_{j-1}/Ker φ_j^* and B_{j-1} ⊆ Ker φ_j^*, so HS(B_j) ≤
    HS(F*_{j-1}/B_{j-1}), with equality iff Ext^{j-1} = 0 (iff
    Hom(M, S) = 0 at j = 1).  An image whose generators, the columns of
    φ_j^*, have leads that meet its floor builds no Buchberger run; one
    whose run's leads meet it after intake stops there; any other image
    (one past a nonzero Ext^{j-1} among them) finishes its run (see
    ``groebner.quotient_numerator``).  The floors need only
    φ_{j+1}^*∘φ_j^* = 0, which is not checked here:
    ``minimal_resolution``'s syzygy certificates prove it, and a Koszul
    tail is a complex, and exact, because the Koszul complex on x1..xn is.
    """
    if not duals:  # M is free
        return {}
    n = duals[0].source.n
    L = len(duals)
    phi = [None, *duals]  # phi[j] = φ_j^*
    quotients = [_free_numerator(duals[0].source)]
    for d in duals:
        floor = merge_terms(_free_numerator(d.target), quotients[-1],
                            subtract=True)
        quotients.append(groebner.quotient_numerator(
            groebner.SubmoduleGens(d.target, d.columns(), check=False),
            floor))
    out = {}
    for j in range(1, L + 1):
        num = dict(quotients[j])
        if j < L:
            merge_terms(num, _free_numerator(phi[j + 1].target),
                        subtract=True)
            merge_terms(num, quotients[j + 1])
        hn = HilbertNumerator(num, n)
        if not hn.coeffs:
            dim, dims = -1, {}
        else:
            k, dims = hn.split_at_one()
            if k > n:  # a nonzero module's series has a pole at 1
                raise AssertionError(
                    f"Ext^{j} numerator vanishes to order {k} > {n} at 1")
            dim = n - k
        if dim > 0:
            tw = (groebner.kernel(phi[j + 1]).degrees() if j < L
                  else phi[j].target.twists)
            lo, hi = min(tw), max(tw) + 3 * n
            dims = {d: v for d in range(lo, hi + 1)
                    if (v := hn.series_coefficient(d))}
        out[j] = ExtEntry(dims, dim <= 0, dim)
    return out


def _free_numerator(module):
    """N(F) = Σ λ^twist, the numerator of HS(F)."""
    num = {}
    for tw in module.twists:
        merge_terms(num, {tw: 1})
    return num
