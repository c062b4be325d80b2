"""Graded free modules, homogeneous maps, presented modules, chain complexes.

Twist convention, used everywhere: ``GradedFreeModule`` stores d_i for the
summand S(-d_i), so the i-th generator sits in internal degree d_i.  A shift
"by (t)" subtracts t from every twist.  A map with declared ``shift`` c is
homogeneous when entry (i, j) is zero or of degree
``source.twists[j] - target.twists[i] + c``.

A ``ModuleMap`` is stored by its columns: column j is the sparse ``Vec``
image of the j-th source generator, the form kernels, lifts, images and
compositions consume.  The dense matrix of ``Polynomial`` entries is only
the constructor's boundary; map files are read and printed by their
nonzero entries (``bourbaki.load_map_json`` and ``map_to_json``).
"""

from .rings import (RATIONALS, DimensionMismatch, Polynomial, common_field,
                    format_terms, merge_terms, sub_multiple)

__all__ = [
    "GradedFreeModule",
    "Vec",
    "ModuleMap",
    "FPModule",
    "ChainComplex",
    "compose",
    "direct_sum",
    "homogeneity_check",
    "subquotient_presentation",
    "NotContained",
]


class NotContained(ValueError):
    """A subquotient's im is not contained in its ker."""


class GradedFreeModule:
    """A free module ⊕_i S(-d_i) over S = K[x1..xn], K = ``field``.

    Modules over different fields are different ambients."""

    __slots__ = ("n", "twists", "field")

    def __init__(self, n, twists, field=RATIONALS):
        self.n = n
        self.twists = tuple(twists)
        self.field = field

    @property
    def rank(self):
        return len(self.twists)

    def shifted(self, t):
        """M(t): subtracts t from every twist."""
        return GradedFreeModule(self.n, [d - t for d in self.twists],
                                self.field)

    def direct_sum(self, other):
        if other.n != self.n or other.field != self.field:
            raise DimensionMismatch("ambient rings differ")
        return GradedFreeModule(self.n, self.twists + other.twists,
                                self.field)

    def dual(self):
        """Hom(-, S(-n)) keeps the generator order, twist d -> n - d."""
        return GradedFreeModule(self.n, [self.n - d for d in self.twists],
                                self.field)

    def __eq__(self, other):
        return (isinstance(other, GradedFreeModule) and self.n == other.n
                and self.twists == other.twists and self.field == other.field)

    def __hash__(self):
        return hash((self.n, self.twists, self.field))

    def __repr__(self):
        return f"GradedFreeModule(n={self.n}, twists={list(self.twists)})"


class Vec:
    """Sparse element of a free module over ``field`` (default Q):
    {(position, exponent tuple): coeff}, the coefficients taken into the
    field by the constructor (over F_p, an int is reduced into [0, p) and
    a Fraction mapped by ``PrimeField.rational``).

    Treated as immutable; all operations return new vectors, over the
    operands' ``rings.common_field``.  ``_keyed`` holds the vector's terms
    as the Gröbner engine packs them, for the last term order and field it
    was keyed with (see ``groebner._packed``), or None: derived
    data, which equality, hashing and printing ignore.
    """

    __slots__ = ("n", "terms", "field", "_keyed")

    def __init__(self, n, terms, field=RATIONALS):
        self.n = n
        p = field.characteristic
        if p:
            rational = field.rational
            self.terms = {k: r for k, c in terms.items() if (
                r := c % p if c.__class__ is int else rational(c))}
        else:
            self.terms = {k: c for k, c in terms.items() if c}
        self.field = field
        self._keyed = None

    @classmethod
    def zero(cls, n, field=RATIONALS):
        return cls(n, {}, field)

    @classmethod
    def unit(cls, n, pos, field=RATIONALS):
        return cls(n, {(pos, (0,) * n): field.one}, field)

    @classmethod
    def from_polys(cls, n, polys, field=RATIONALS):
        """The vector over ``field`` whose coordinate i is the
        ``Polynomial`` polys[i]."""
        return cls(n, {(pos, exp): c for pos, p in enumerate(polys)
                       for exp, c in p.terms.items()}, field)

    def by_position(self):
        """{position: {exponent: coefficient}} of the nonzero coordinates."""
        out = {}
        for (pos, exp), c in self.terms.items():
            out.setdefault(pos, {})[exp] = c
        return out

    def component(self, pos):
        terms = {exp: c for (p, exp), c in self.terms.items() if p == pos}
        return Polynomial(self.n, terms, self.field)

    def offset(self, off):
        """The same vector with every position raised by ``off``: the
        embedding into a direct sum after ``off`` earlier generators."""
        return Vec(self.n, {(pos + off, e): c
                            for (pos, e), c in self.terms.items()},
                   self.field)

    def positions(self):
        return {pos for pos, _ in self.terms}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other, subtract=False):
        field = common_field(self, other)
        return Vec(self.n, merge_terms(dict(self.terms), other.terms,
                                       subtract, field.characteristic), field)

    def __sub__(self, other):
        return self.__add__(other, subtract=True)

    def __neg__(self):
        return Vec(self.n, {k: -c for k, c in self.terms.items()},
                   self.field)

    def scale(self, c):
        return Vec(self.n, {k: v * c for k, v in self.terms.items()},
                   self.field)

    def mul_poly(self, p):
        field = common_field(self, p)
        acc = {}
        for exp, c in p.terms.items():
            sub_multiple(acc, self.terms, exp, -c, p=field.characteristic)
        return Vec(self.n, acc, field)

    def homogeneous_degree(self, module):
        """Common internal degree of all terms w.r.t. module twists, or None."""
        degs = {sum(exp) + module.twists[pos] for (pos, exp) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            return None
        return degs.pop()

    def is_homogeneous(self, module):
        return self.is_zero() or self.homogeneous_degree(module) is not None

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.terms == other.terms
                and self.field == other.field)

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __str__(self):
        comps = self.by_position()
        return "(" + ", ".join(format_terms(comps.get(i, {})) for i in range(
            max(comps, default=0) + 1)) + ")"

    def __repr__(self):
        return f"Vec({self.n}, {str(self)})"


class ModuleMap:
    """Homogeneous map between graded free modules, stored by columns.

    ``cols[j]`` is the ``Vec`` image of the j-th source generator;
    ``shift`` is the declared degree shift c.
    """

    __slots__ = ("source", "target", "cols", "shift")

    def __init__(self, source, target, rows, shift=0):
        """The dense boundary: ``rows`` lists target-rank rows of entries."""
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise DimensionMismatch(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not "
                f"match map {target.rank}x{source.rank}")
        cols = [Vec.from_polys(source.n, [row[j] for row in rows],
                               source.field)
                for j in range(source.rank)]
        self._store(source, target, cols, shift)

    def _store(self, source, target, cols, shift):
        field = target.field
        if source.n != target.n or source.field != field:
            raise DimensionMismatch("source/target rings differ")
        for v in cols:
            if v.field is not field and v.field != field:
                raise DimensionMismatch(
                    f"column over {v.field!r}, map over {field!r}")
        self.source = source
        self.target = target
        self.cols = cols
        self.shift = shift

    @classmethod
    def from_columns(cls, source, target, columns, shift=0):
        """The map sending source generator j to ``columns[j]``, stored as is."""
        cols = list(columns)
        if len(cols) != source.rank or any(
                pos >= target.rank for v in cols for pos, _ in v.terms):
            raise DimensionMismatch(f"{len(cols)} columns do not fit a map "
                                    f"{target.rank}x{source.rank}")
        m = cls.__new__(cls)
        m._store(source, target, cols, shift)
        return m

    @classmethod
    def zero(cls, source, target, shift=0):
        return cls.from_columns(source, target,
                                [Vec.zero(source.n, source.field)]
                                * source.rank, shift)

    @classmethod
    def identity(cls, module):
        return cls.from_columns(module, module, [
            Vec.unit(module.n, j, module.field)
            for j in range(module.rank)])

    def columns(self):
        return list(self.cols)

    def apply(self, v):
        """Image of a source vector."""
        field = self.target.field
        p = field.characteristic
        acc = {}
        for (pos, exp), c in v.terms.items():
            sub_multiple(acc, self.cols[pos].terms, exp, -c, None, p)
        return Vec(self.source.n, acc, field)

    def is_zero(self):
        return not any(self.cols)

    def twisted(self, t):
        """Same columns between shifted modules; homogeneity is preserved."""
        return ModuleMap.from_columns(self.source.shifted(t),
                                      self.target.shifted(t), self.cols,
                                      self.shift)

    def dual(self):
        """Hom(-, S(-n)): the transpose between dual modules, same shift."""
        cols = [{} for _ in range(self.target.rank)]
        for j, col in enumerate(self.cols):
            for (i, exp), c in col.terms.items():
                cols[i][(j, exp)] = c
        return ModuleMap.from_columns(
            self.target.dual(), self.source.dual(),
            [Vec(self.source.n, t, self.source.field) for t in cols],
            self.shift)

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.source == other.source
                and self.target == other.target and self.cols == other.cols
                and self.shift == other.shift)

    def __repr__(self):
        return (f"ModuleMap({self.target.rank}x{self.source.rank}, "
                f"shift={self.shift})")


def compose(f, g):
    """f ∘ g, column by column; degree shifts add."""
    if g.target != f.source:
        raise DimensionMismatch(
            f"compose: inner shapes differ ({g.target.twists} vs {f.source.twists})")
    return ModuleMap.from_columns(g.source, f.target,
                                  [f.apply(c) for c in g.cols],
                                  f.shift + g.shift)


def direct_sum(a, b):
    """Block-diagonal map; twists concatenate in order."""
    if a.shift != b.shift:
        raise DimensionMismatch("summands must share the degree shift")
    source = a.source.direct_sum(b.source)
    target = a.target.direct_sum(b.target)
    off = a.target.rank
    cols = a.cols + [v.offset(off) for v in b.cols]
    return ModuleMap.from_columns(source, target, cols, a.shift)


def homogeneity_check(f):
    """True plus empty list, or False plus (i, j, found, expected) violations.

    ``found`` is the degree of the nonzero entry (i, j), or None when it is
    inhomogeneous; violations are listed in row-major order.  Entries are
    read off each column's terms in one pass.
    """
    violations = []
    for j, col in enumerate(f.cols):
        for i, terms in col.by_position().items():
            expected = f.source.twists[j] - f.target.twists[i] + f.shift
            degs = set(map(sum, terms))
            found = degs.pop() if len(degs) == 1 else None
            if found != expected:
                violations.append((i, j, found, expected))
    violations.sort(key=lambda v: v[:2])
    return (not violations), violations


class FPModule:
    """Finitely presented graded module coker(relations -> presentation)."""

    __slots__ = ("presentation", "relations", "label")

    def __init__(self, presentation, relations, label=None):
        self.presentation = presentation
        self.relations = list(relations)
        self.label = label
        for r in self.relations:
            if not r.is_homogeneous(presentation):
                raise ValueError("inhomogeneous relation in presentation")

    @property
    def n(self):
        return self.presentation.n

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return (f"FPModule{tag}(rank {self.presentation.rank}, "
                f"{len(self.relations)} relations)")


class ChainComplex:
    """Finite complex ... -> C_1 -> C_0 given by modules and differentials.

    ``maps[i]`` is d_{i+1}: modules[i+1] -> modules[i].
    """

    __slots__ = ("modules", "maps")

    def __init__(self, modules, maps):
        if len(maps) != len(modules) - 1:
            raise DimensionMismatch("need one differential per adjacent pair")
        for i, d in enumerate(maps):
            if d.source != modules[i + 1] or d.target != modules[i]:
                raise DimensionMismatch(f"differential {i + 1} does not fit")
        self.modules = list(modules)
        self.maps = list(maps)

    @property
    def length(self):
        return len(self.modules) - 1

    def differential(self, i):
        """d_i : C_i -> C_{i-1} (zero map outside range)."""
        if 1 <= i <= self.length:
            return self.maps[i - 1]
        raise IndexError(f"no differential at {i}")

    def twisted(self, t):
        return ChainComplex([m.shifted(t) for m in self.modules],
                            [d.twisted(t) for d in self.maps])

    def __repr__(self):
        ranks = " <- ".join(str(m.rank) for m in self.modules)
        return f"ChainComplex({ranks})"


def subquotient_presentation(ker, im, label=None):
    """Present ker/im for submodules im ⊆ ker of a common free ambient.

    Generators are the ker generators, on the free module of their
    syzygies (twist 0 for a zero one, which its unit syzygy kills);
    relations are those syzygies plus a lift expression for every im
    generator.  The syzygies come first: they build ker's tracked engine,
    and the lifts reduce against it.  Each lift is certified by
    substitution, so together they prove im ⊆ ker; an im generator that
    does not lift refutes it.
    """
    from . import groebner

    if ker.ambient != im.ambient:
        raise DimensionMismatch("subquotient: ambients differ")
    syz = groebner.syzygies(ker)
    relations = list(syz.vectors)
    for g in im.vectors:
        h = groebner.lift(g, ker)
        if h is None:
            raise NotContained("subquotient: im is not contained in ker")
        relations.append(h)
    relations = [r for r in relations if r]
    return FPModule(syz.ambient, relations, label=label)
