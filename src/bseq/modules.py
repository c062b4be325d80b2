"""Graded free modules, homogeneous maps, presented modules, chain complexes.

Twist convention, used everywhere: ``GradedFreeModule`` stores d_i for the
summand S(-d_i), so the i-th generator sits in internal degree d_i.  A shift
"by (t)" subtracts t from every twist.  A map with declared ``shift`` c is
homogeneous when entry (i, j) is zero or of degree
``source.twists[j] - target.twists[i] + c``.
"""

from .rings import (RATIONALS, DimensionMismatch, Polynomial, merge_terms,
                    sub_multiple)

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
]


class GradedFreeModule:
    """A free module ⊕_i S(-d_i) over S = K[x1..xn], K = ``field``.

    Modules over different fields are different ambients."""

    __slots__ = ("n", "twists", "labels", "field")

    def __init__(self, n, twists, labels=None, field=RATIONALS):
        self.n = n
        self.twists = tuple(twists)
        self.labels = tuple(labels) if labels is not None else None
        self.field = field
        if self.labels is not None and len(self.labels) != len(self.twists):
            raise ValueError("labels must match rank")

    @property
    def rank(self):
        return len(self.twists)

    def shifted(self, t):
        """M(t): subtracts t from every twist."""
        return GradedFreeModule(self.n, [d - t for d in self.twists],
                                self.labels, self.field)

    def direct_sum(self, other):
        if other.n != self.n or other.field != self.field:
            raise DimensionMismatch("ambient rings differ")
        labels = None
        if self.labels is not None and other.labels is not None:
            labels = self.labels + other.labels
        return GradedFreeModule(self.n, self.twists + other.twists, labels,
                                self.field)

    def dual(self):
        """Hom(-, S(-n)) keeps the generator order, twist d -> n - d."""
        return GradedFreeModule(self.n, [self.n - d for d in self.twists],
                                self.labels, self.field)

    def __eq__(self, other):
        return (isinstance(other, GradedFreeModule) and self.n == other.n
                and self.twists == other.twists and self.field == other.field)

    def __hash__(self):
        return hash((self.n, self.twists, self.field))

    def __repr__(self):
        return f"GradedFreeModule(n={self.n}, twists={list(self.twists)})"


class Vec:
    """Sparse element of a free module: {(position, exponent tuple): coeff}.

    Treated as immutable; all operations return new vectors.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def unit(cls, n, pos, field_one):
        return cls(n, {(pos, (0,) * n): field_one})

    @classmethod
    def from_polys(cls, polys):
        """Build from a dense list of Polynomial coordinates."""
        n = polys[0].n
        terms = {}
        for pos, p in enumerate(polys):
            for exp, c in p.terms.items():
                terms[(pos, exp)] = c
        return cls(n, terms)

    def to_polys(self, rank):
        out = [dict() for _ in range(rank)]
        for (pos, exp), c in self.terms.items():
            out[pos][exp] = c
        zero = Polynomial.zero(self.n)  # immutable, so shared
        return [Polynomial(self.n, d) if d else zero for d in out]

    def component(self, pos):
        terms = {exp: c for (p, exp), c in self.terms.items() if p == pos}
        return Polynomial(self.n, terms)

    def positions(self):
        return {pos for pos, _ in self.terms}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return Vec(self.n, merge_terms(dict(self.terms), other.terms))

    def __sub__(self, other):
        return Vec(self.n,
                   merge_terms(dict(self.terms), other.terms, subtract=True))

    def __neg__(self):
        return Vec(self.n, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return Vec.zero(self.n)
        return Vec(self.n, {k: v * c for k, v in self.terms.items()})

    def mul_term(self, exp, c):
        """Multiply by the scalar term c * x^exp."""
        if not c:
            return Vec.zero(self.n)
        return Vec(self.n, {
            (pos, tuple(a + b for a, b in zip(e, exp))): v * c
            for (pos, e), v in self.terms.items()
        })

    def mul_poly(self, p):
        acc = {}
        for exp, c in p.terms.items():
            sub_multiple(acc, self.terms, exp, -c)
        return Vec(self.n, acc)

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
        return isinstance(other, Vec) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "(0)"
        rank = max(pos for pos, _ in self.terms) + 1
        return "(" + ", ".join(str(p) for p in self.to_polys(rank)) + ")"

    def __repr__(self):
        return f"Vec({self.n}, {str(self)})"


class ModuleMap:
    """Homogeneous map between graded free modules.

    The matrix is dense, target-rank x source-rank; column j is the image of
    the j-th source generator.  ``shift`` is the declared degree shift c.
    """

    __slots__ = ("source", "target", "rows", "shift")

    def __init__(self, source, target, rows, shift=0):
        if source.n != target.n or source.field != target.field:
            raise DimensionMismatch("source/target rings differ")
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise DimensionMismatch(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not "
                f"match map {target.rank}x{source.rank}")
        self.source = source
        self.target = target
        self.rows = rows
        self.shift = shift

    @classmethod
    def zero(cls, source, target, shift=0):
        z = Polynomial.zero(source.n)
        return cls(source, target,
                   [[z] * source.rank for _ in range(target.rank)], shift)

    @classmethod
    def identity(cls, module):
        n = module.n
        z = Polynomial.zero(n)
        one = Polynomial.constant(n, module.field.one)
        rows = [[one if i == j else z for j in range(module.rank)]
                for i in range(module.rank)]
        return cls(module, module, rows)

    @classmethod
    def from_columns(cls, source, target, columns, shift=0):
        z = Polynomial.zero(source.n)
        rank_t, rank_s = target.rank, source.rank
        rows = [[z] * rank_s for _ in range(rank_t)]
        for j, col in enumerate(columns):
            polys = col.to_polys(rank_t) if isinstance(col, Vec) else col
            for i, p in enumerate(polys):
                rows[i][j] = p
        return cls(source, target, rows, shift)

    def entry(self, i, j):
        return self.rows[i][j]

    def column(self, j):
        terms = {}
        for i, row in enumerate(self.rows):
            for exp, c in row[j].terms.items():
                terms[(i, exp)] = c
        return Vec(self.source.n, terms)

    def columns(self):
        return [self.column(j) for j in range(self.source.rank)]

    def apply(self, v):
        """Image of a source vector."""
        acc = {}
        for (pos, exp), c in v.terms.items():
            sub_multiple(acc, self.column(pos).terms, exp, -c)
        return Vec(self.source.n, acc)

    def is_zero(self):
        return all(p.is_zero() for row in self.rows for p in row)

    def twisted(self, t):
        """Same matrix between shifted modules; homogeneity is preserved."""
        return ModuleMap(self.source.shifted(t), self.target.shifted(t),
                         self.rows, self.shift)

    def dual(self):
        """Hom(-, S(-n)): the transpose between dual modules, degree 0."""
        rows = [[self.rows[j][i] for j in range(self.target.rank)]
                for i in range(self.source.rank)]
        return ModuleMap(self.target.dual(), self.source.dual(), rows, self.shift)

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.source == other.source
                and self.target == other.target and self.rows == other.rows
                and self.shift == other.shift)

    def __repr__(self):
        return (f"ModuleMap({self.target.rank}x{self.source.rank}, "
                f"shift={self.shift})")


def compose(f, g):
    """f ∘ g with exact matrix product; degree shifts add."""
    if g.target != f.source:
        raise DimensionMismatch(
            f"compose: inner shapes differ ({g.target.twists} vs {f.source.twists})")
    n = f.source.n
    z = Polynomial.zero(n)
    rows = []
    for i in range(f.target.rank):
        row = []
        for j in range(g.source.rank):
            acc = z
            for k in range(f.source.rank):
                a = f.rows[i][k]
                b = g.rows[k][j]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        rows.append(row)
    return ModuleMap(g.source, f.target, rows, f.shift + g.shift)


def direct_sum(a, b):
    """Block-diagonal map; twists concatenate in order."""
    if a.shift != b.shift:
        raise DimensionMismatch("summands must share the degree shift")
    source = a.source.direct_sum(b.source)
    target = a.target.direct_sum(b.target)
    n = source.n
    z = Polynomial.zero(n)
    rows = []
    for i in range(a.target.rank):
        rows.append(list(a.rows[i]) + [z] * b.source.rank)
    for i in range(b.target.rank):
        rows.append([z] * a.source.rank + list(b.rows[i]))
    return ModuleMap(source, target, rows, a.shift)


def homogeneity_check(f):
    """True plus empty list, or False plus (i, j, found, expected) violations."""
    violations = []
    for i in range(f.target.rank):
        for j in range(f.source.rank):
            p = f.rows[i][j]
            if p.is_zero():
                continue
            expected = f.source.twists[j] - f.target.twists[i] + f.shift
            found = p.homogeneous_degree()
            if found != expected:
                violations.append((i, j, found, expected))
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


def fp_direct_sum(a, b, label=None):
    """Direct sum of presented modules: presentations and relations block in."""
    pres = a.presentation.direct_sum(b.presentation)
    off = a.presentation.rank
    rels = [Vec(a.n, dict(v.terms)) for v in a.relations]
    for v in b.relations:
        rels.append(Vec(b.n, {(pos + off, e): c
                              for (pos, e), c in v.terms.items()}))
    return FPModule(pres, rels, label=label)


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

    def is_complex(self):
        """d ∘ d = 0 at every composable pair."""
        for i in range(len(self.maps) - 1):
            if not compose(self.maps[i], self.maps[i + 1]).is_zero():
                return False
        return True

    def twisted(self, t):
        return ChainComplex([m.shifted(t) for m in self.modules],
                            [d.twisted(t) for d in self.maps])

    def __repr__(self):
        ranks = " <- ".join(str(m.rank) for m in self.modules)
        return f"ChainComplex({ranks})"


def subquotient_presentation(ker, im, label=None):
    """Present ker/im for submodules im ⊆ ker of a common free ambient.

    Generators are the ker generators; relations are their syzygies plus a
    lift expression for every im generator.  The syzygies come first: they
    build ker's tracked engine, and the lifts reduce against it.  Each lift
    is certified by substitution, so together they prove im ⊆ ker; an im
    generator that does not lift refutes it.
    """
    from . import groebner

    if ker.ambient != im.ambient:
        raise DimensionMismatch("subquotient: ambients differ")
    relations = list(groebner.syzygies(ker).vectors)
    for g in im.vectors:
        h = groebner._lift_vec(g, ker)
        if h is None:
            raise ValueError("subquotient: im is not contained in ker")
        relations.append(h)
    degs = [v.homogeneous_degree(ker.ambient) for v in ker.vectors]
    pres = GradedFreeModule(ker.ambient.n, degs, field=ker.ambient.field)
    relations = [r for r in relations if r]
    return FPModule(pres, relations, label=label)
