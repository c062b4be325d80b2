"""Koszul complex of x1..xn: bases e_I, signs, syzygy modules E_s and the
Koszul tails that resolve them, duals.

Basis elements of K_s are indexed by size-s subsets of [n] = {1..n} in a
fixed colexicographic order (deterministic output everywhere).  K_s has
twists s; shifting by (t) subtracts t.  Duals are taken against S(-n), so
K_s* has twists n-s and e*_I pairs with e_I.  The dual of a Koszul
complex is a Koszul complex (Bruns–Herzog, §1.6), so the transpose of
∂_s is built directly, as the codifferential ∂_s* : K_{s-1}* -> K_s*
(``koszul_codifferential``), and a Koszul tail's dual maps as its
codifferentials (``dual_tail``), with no primal map built to transpose.
"""

from functools import lru_cache, partial, reduce
from typing import NamedTuple

from .rings import (
    RATIONALS,
    DimensionMismatch,
    ParseError,
    Polynomial,
    binomial,
    grevlex_key,
    join_signed,
    maps_into,
    merge_terms,
    monomial_factors,
    parse_polynomial,
    signed_term,
)
from .modules import (ChainComplex, FPModule, GradedFreeModule, ModuleMap,
                      Vec, direct_sum)
from . import groebner

__all__ = [
    "subsets",
    "subset_position",
    "sigma",
    "koszul_module",
    "koszul_differential",
    "koszul_codifferential",
    "tail_differential",
    "koszul_tail",
    "dual_tail",
    "tail_numerator",
    "SyzygyModule",
    "E",
    "Summand",
    "KoszulVector",
    "generate_A",
    "generate_B",
    "parse_koszul_vector",
    "format_koszul_vector",
]


@lru_cache(maxsize=None)
def subsets(n, s):
    """Size-s subsets of {1..n} as sorted tuples, in colex order."""
    import itertools
    subs = list(itertools.combinations(range(1, n + 1), s))
    subs.sort(key=lambda I: tuple(reversed(I)))
    return tuple(subs)


@lru_cache(maxsize=None)
def subset_position(n, s):
    return {I: i for i, I in enumerate(subsets(n, s))}


def sigma(J, K):
    """Wedge-reordering sign: (-1)^#{(j,k) in J x K : j > k}."""
    J, K = tuple(J), tuple(K)
    if set(J) & set(K):
        raise ValueError(f"overlapping subsets {J} and {K}")
    inv = sum(1 for j in J for k in K if j > k)
    return -1 if inv % 2 else 1


def koszul_module(n, s, shift=0, field=RATIONALS):
    """K_s(shift) = S(-s+shift)^C(n,s), one generator per s-subset."""
    return GradedFreeModule(n, [s - shift] * len(subsets(n, s)), field=field)


def koszul_differential(n, s, shift=0, field=RATIONALS):
    """∂_s : K_s -> K_{s-1}, e_I -> Σ_k (-1)^{k+1} x_{i_k} e_{I∖i_k}."""
    if not 1 <= s <= n + 1:
        raise ValueError(f"koszul differential out of range: s={s}, n={n}")
    src = koszul_module(n, s, shift, field)
    tgt = koszul_module(n, s - 1, shift, field)
    pos = subset_position(n, s - 1)
    var = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    cols = [Vec(n, {(pos[I[:k] + I[k + 1:]], var[ik - 1]):
                    1 if k % 2 == 0 else -1
                    for k, ik in enumerate(I)}, field)
            for I in subsets(n, s)]
    return ModuleMap.from_columns(src, tgt, cols)


def koszul_codifferential(n, s, shift=0, field=RATIONALS):
    """∂_s* : K_{s-1}* -> K_s*, e*_J -> Σ_{i ∉ J} (-1)^k x_i e*_{J∪i}, k the
    number of entries of J below i: the transpose of
    ``koszul_differential(n, s, shift, field)``, with the same columns,
    modules and shift, built without it."""
    if not 1 <= s <= n + 1:
        raise ValueError(f"koszul differential out of range: s={s}, n={n}")
    src = koszul_module(n, s - 1, shift, field).dual()
    tgt = koszul_module(n, s, shift, field).dual()
    pos = subset_position(n, s)
    var = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    cols = []
    for J in subsets(n, s - 1):
        terms, k = {}, 0
        for i in range(1, n + 1):
            if k < len(J) and J[k] == i:
                k += 1
            else:
                terms[(pos[J[:k] + (i,) + J[k:]], var[i - 1])] = (
                    -1 if k % 2 else 1)
        cols.append(Vec(n, terms, field))
    return ModuleMap.from_columns(src, tgt, cols)


def tail_differential(n, summands, i, field=RATIONALS, dual=False):
    """d_i of the Koszul tail over ``summands``, or with ``dual`` its
    transpose d_i*: the sum of their ∂_{s+i}(shift) (``koszul_differential``
    or ``koszul_codifferential``).  A summand whose source has run out,
    s + i = n + 1, gives ∂_{n+1}, the zero map from the empty K_{n+1} into
    its K_n (from K_n* into the empty module); one past that gives
    nothing."""
    d = koszul_codifferential if dual else koszul_differential
    return reduce(direct_sum, [d(n, s + i, shift, field)
                               for s, shift, _ in summands if s + i <= n + 1])


def _tail_length(n, summands):
    """L, the length of the Koszul tail over ``summands``: its last module
    B_L is the K_n of the summands with the least s."""
    return max(n - sm.s for sm in summands)


def koszul_tail(n, summands, field=RATIONALS, differential=None):
    """B_0 = ⊕ K_s(shift) <- B_1 <- ..., the minimal free resolution of
    ⊕ E_s(shift) over the primal ``summands`` by truncated Koszul complexes,
    exact as the Koszul complex on x1..xn is (Bruns–Herzog, §1.6).
    ``differential(i)``, if given, supplies d_i from a caller's cache.  B_i
    is the target of d_{i+1}: past the top, d is a zero map."""
    d = differential or partial(tail_differential, n, summands, field=field)
    maps = [d(i) for i in range(1, _tail_length(n, summands) + 2)]
    return ChainComplex([m.target for m in maps], maps[:-1])


def dual_tail(n, summands, field=RATIONALS):
    """[d_1*, ..., d_L*], the transposes of the differentials of
    ``koszul_tail(n, summands, field)``, built as codifferentials: the
    dual of a Koszul complex is a Koszul complex (Bruns–Herzog, §1.6), so
    no primal map is built and transposed."""
    return [tail_differential(n, summands, i, field, dual=True)
            for i in range(1, _tail_length(n, summands) + 1)]


def tail_numerator(n, summands):
    """N(⊕ E_s(shift)) = Σ_i (-1)^i N(B_i), the numerator of the Hilbert
    series over (1 - λ)^n of the module that ``koszul_tail(n, summands)``
    resolves, read off the tail's ranks and twists with no map built:
    B_i holds K_{s+i}(shift), C(n, s+i) generators of twist s + i - shift,
    for each primal summand with s + i <= n."""
    num = {}
    for s, shift, _ in summands:
        for i in range(n - s + 1):
            merge_terms(num, {s + i - shift: (-1) ** i * binomial(n, s + i)})
    return num


class SyzygyModule(NamedTuple):
    """E_s = Im ∂_s realized inside K_{s-1}, with its Koszul presentation."""

    n: int
    s: int
    shift: int
    fp: FPModule                    # coker(∂_{s+1}: K_{s+1} -> K_s)
    ambient: GradedFreeModule       # K_{s-1}(shift)
    gens: groebner.SubmoduleGens    # columns of ∂_s, i.e. Im ∂_s
    diff: ModuleMap                 # ∂_s (shifted)

    @property
    def rank(self):
        return binomial(self.n - 1, self.s - 1)


def E(n, s, shift=0, field=RATIONALS):
    """The s-th syzygy module of the residue field, rank C(n-1, s-1)."""
    if not 1 <= s <= n:
        raise ValueError(f"E out of range: s={s}, n={n}")
    d_s = koszul_differential(n, s, shift, field)
    rels = tail_differential(n, [Summand(s, shift)], 1, field).columns()
    fp = FPModule(d_s.source, rels, label=f"E({n},{s},{shift})")
    gens = groebner.SubmoduleGens(d_s.target, d_s.columns(), check=False)
    return SyzygyModule(n, s, shift, fp, d_s.target, gens, d_s)


# ---------------------------------------------------------------------------
# Koszul vectors: elements of direct sums of (shifted, possibly dual) K_s
# ---------------------------------------------------------------------------

class Summand(NamedTuple):
    s: int
    shift: int = 0
    dual: bool = False


def _basis_keys(n, summands):
    """(summand index, subset) of each generator of ⊕ summands, in
    position order: summand by summand, subsets in colex order."""
    return tuple((si, I) for si, sm in enumerate(summands)
                 for I in subsets(n, sm.s))


class KoszulVector:
    """Finite map (summand, subset) -> coefficient polynomial, over
    ``field`` (default Q), which the constructor takes each coefficient
    into; one that does not map into it (``rings.maps_into``) raises
    ``DimensionMismatch``."""

    __slots__ = ("n", "summands", "coeffs", "field")

    def __init__(self, n, summands, coeffs, field=RATIONALS):
        self.n = n
        self.field = field
        self.summands = tuple(Summand(*s) for s in summands)
        cleaned = {}
        for (si, I), p in coeffs.items():
            I = tuple(I)
            if len(I) != self.summands[si].s:
                raise ValueError(
                    f"subset {I} has wrong size for summand {self.summands[si]}")
            if p.field != field:
                if not maps_into(p, field):
                    raise DimensionMismatch(
                        f"coefficient over {p.field!r}, vector over {field!r}")
                p = Polynomial(n, p.terms, field)
            if p:
                cleaned[(si, I)] = p
        self.coeffs = cleaned

    # -- ambient ------------------------------------------------------
    def free_module(self):
        twists = []
        for sm in self.summands:
            t = self.n - sm.s + sm.shift if sm.dual else sm.s - sm.shift
            twists += [t] * len(subsets(self.n, sm.s))
        return GradedFreeModule(self.n, twists, field=self.field)

    def to_vec(self):
        keys = _basis_keys(self.n, self.summands)
        pos = {k: i for i, k in enumerate(keys)}
        return Vec(self.n, {(pos[k], exp): c for k, p in self.coeffs.items()
                            for exp, c in p.terms.items()}, self.field)

    @classmethod
    def from_vec(cls, n, summands, v):
        """The inverse of ``to_vec``: the vector over ``summands`` whose
        coordinates are those of the ``Vec`` v, over its field."""
        summands = tuple(Summand(*s) for s in summands)
        keys = _basis_keys(n, summands)
        coeffs = {}
        for (pos, exp), c in v.terms.items():
            coeffs.setdefault(keys[pos], {})[exp] = c
        return cls(n, summands,
                   {k: Polynomial(n, t, v.field) for k, t in coeffs.items()},
                   v.field)

    def to_functional(self, field=RATIONALS):
        """A 1-row map (primal ambient) -> S(-n) over ``field``.

        All summands must be dual, and the vector must be over ``field``.
        """
        if not all(sm.dual for sm in self.summands):
            raise ValueError("functional requires dual summands")
        if self.field != field or not all(
                map(field.admits, (c for p in self.coeffs.values()
                                   for c in p.terms.values()))):
            raise DimensionMismatch(
                f"functional coefficients are not in {field!r}")
        primal = KoszulVector(
            self.n, [Summand(sm.s, sm.shift, False) for sm in self.summands],
            {}, field)
        source = primal.free_module()
        target = GradedFreeModule(self.n, [self.n], field=field)
        cols = [{} for _ in range(source.rank)]
        terms, d = field.integral(self.to_vec().terms)
        for (pos, exp), c in terms.items():
            cols[pos][(0, exp)] = c if d == 1 else field.fraction(c, d)
        cols = [Vec(self.n, t, field) for t in cols]
        shift = None
        for j, col in enumerate(cols):
            if col.is_zero():
                continue
            deg = col.homogeneous_degree(target)
            if deg is None:
                raise ValueError("inhomogeneous functional entry")
            if shift not in (None, deg - source.twists[j]):
                raise ValueError("functional entries disagree on degree shift")
            shift = deg - source.twists[j]
        return ModuleMap.from_columns(source, target, cols,
                                      shift if shift is not None else 0)

    # -- algebra --------------------------------------------------------
    def _field(self, other):
        """The field of a result with ``other`` (a ``KoszulVector`` or a
        ``Polynomial``): the one that is not Q.  The constructor and the
        polynomial arithmetic check that each coefficient maps into it."""
        return other.field if self.field == RATIONALS else self.field

    def _same_ambient(self, other):
        """The result's field; ``ValueError`` unless n and summands agree."""
        if self.n != other.n or self.summands != other.summands:
            raise ValueError("Koszul ambients differ")
        return self._field(other)

    def __add__(self, other):
        field = self._same_ambient(other)
        coeffs = dict(self.coeffs)
        for k, p in other.coeffs.items():
            coeffs[k] = coeffs[k] + p if k in coeffs else p
        return KoszulVector(self.n, self.summands, coeffs, field)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return KoszulVector(self.n, self.summands,
                            {k: -p for k, p in self.coeffs.items()},
                            self.field)

    def mul_poly(self, p):
        return KoszulVector(self.n, self.summands,
                            {k: q * p for k, q in self.coeffs.items()},
                            self._field(p))

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, KoszulVector) and self.n == other.n
                and self.summands == other.summands
                and self.coeffs == other.coeffs and self.field == other.field)

    def __str__(self):
        return format_koszul_vector(self)

    def __repr__(self):
        return f"KoszulVector({format_koszul_vector(self)!r})"


# ---------------------------------------------------------------------------
# the generator families of functionals
# ---------------------------------------------------------------------------

def generate_A(n, t, field=RATIONALS):
    """Generators of the degree-lifting functionals on K_{t+1} killing E_{t+2}:
    one ``A_member`` per size-(n-t) subset L, in colex order of L."""
    if not 0 <= t <= n - 1:
        raise ValueError(f"t out of range: {t}")
    return [A_member(n, t, L, field) for L in subsets(n, n - t)]


def A_member(n, t, L, field=RATIONALS):
    """The A-family member of the size-(n-t) subset L = (i_1 < ... < i_{n-t}):
    Σ_j (-1)^{j+1} σ(L∖{i_j}, ([n]∖L)∪{i_j}) x_{i_j} e*_{([n]∖L)∪{i_j}}."""
    comp = tuple(sorted(set(range(1, n + 1)) - set(L)))
    coeffs = {}
    for j, ij in enumerate(L):
        I = tuple(sorted(comp + (ij,)))
        sign = sigma(L[:j] + L[j + 1:], I) * (-1) ** j
        coeffs[(0, I)] = Polynomial.variable(n, ij, field).scale(sign)
    return KoszulVector(n, [Summand(t + 1, 0, True)], coeffs, field)


def generate_B(n, field=RATIONALS):
    """The ``B_member`` of each label of ``b_index(n)``, in that order; they
    kill E_n."""
    return [B_member(n, i, j, field) for i, j in b_index(n)]


def B_member(n, i, j, field=RATIONALS):
    """B_ij = (-1)^i x_j e*_{[n]∖i} - (-1)^j x_i e*_{[n]∖j}, i < j."""
    Ii, Ij = (tuple(x for x in range(1, n + 1) if x != k) for k in (i, j))
    return KoszulVector(n, [Summand(n - 1, 0, True)], {
        (0, Ii): Polynomial.variable(n, j, field).scale((-1) ** i),
        (0, Ij): Polynomial.variable(n, i, field).scale(-(-1) ** j)}, field)


def b_index(n):
    """The (i, j) labels of the B-family, i < j, in ``generate_B`` order."""
    if n < 2:
        raise ValueError("generate_B needs n >= 2")
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# ---------------------------------------------------------------------------
# text form: "x6^5*e[3] - x1^2*e*[1,3,4,5,6]"
# ---------------------------------------------------------------------------

def format_koszul_vector(v):
    terms = []
    for si, sm in enumerate(v.summands):
        star = "*" if sm.dual else ""
        for I in subsets(v.n, sm.s):
            p = v.coeffs.get((si, I))
            if p is None:
                continue
            tag = f"*e{star}[" + ",".join(map(str, I)) + "]"
            for exp in sorted(p.terms, key=grevlex_key, reverse=True):
                neg, body = signed_term(p.terms[exp], monomial_factors(exp))
                terms.append((neg, body + tag))
    return join_signed(terms)


def parse_koszul_vector(text, n, summands, field=RATIONALS):
    """Parse the Koszul term grammar; summands are matched by subset size."""
    summands = [Summand(*s) for s in summands]
    by_size = {}
    for idx, sm in enumerate(summands):
        key = (sm.s, sm.dual)
        if key in by_size:
            raise ValueError("ambiguous summands: equal size and duality")
        by_size[key] = idx
    coeffs = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return KoszulVector(n, summands, {}, field)
    first = True
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        sign = 1
        if text[pos] == "+":
            pos += 1
        elif text[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise ParseError("expected '+' or '-'", text, pos)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        e_at = _find_basis_tag(text, pos)
        if e_at is None:
            raise ParseError("expected a basis element e[...]", text, pos)
        coeff_src = text[pos:e_at].rstrip()
        if coeff_src.endswith("*"):
            coeff_src = coeff_src[:-1]
        coeff = (parse_polynomial(coeff_src, n, field) if coeff_src
                 else Polynomial.constant(n, field.one, field))
        pos = e_at + 1
        dual = False
        if pos < len(text) and text[pos] == "*":
            dual = True
            pos += 1
        if pos >= len(text) or text[pos] != "[":
            raise ParseError("expected '[' after basis tag", text, pos)
        close = text.find("]", pos)
        if close < 0:
            raise ParseError("unterminated subset", text, pos)
        try:
            I = tuple(int(x) for x in text[pos + 1:close].split(","))
        except ValueError:
            raise ParseError("bad subset", text, pos) from None
        if list(I) != sorted(set(I)) or not all(1 <= x <= n for x in I):
            raise ParseError("subset must be strictly increasing within 1..n",
                             text, pos)
        pos = close + 1
        key = (len(I), dual)
        if key not in by_size:
            raise ParseError(
                f"no summand holds a size-{len(I)} {'dual ' if dual else ''}element",
                text, pos)
        si = by_size[key]
        if sign < 0:
            coeff = -coeff
        k = (si, I)
        coeffs[k] = coeffs[k] + coeff if k in coeffs else coeff
        first = False
    return KoszulVector(n, summands, coeffs, field)


def _find_basis_tag(text, start):
    """Index of the 'e' beginning the basis tag of the current term."""
    i = start
    while i < len(text):
        if text[i] == "e" and i + 1 < len(text) and text[i + 1] in "[*":
            if text[i + 1] == "*" and (i + 2 >= len(text) or text[i + 2] != "["):
                i += 1
                continue
            return i
        if text[i] in "+-":
            return None
        i += 1
    return None
