"""Gröbner bases for submodules of graded free modules.

Buchberger's algorithm over a term-over-position order (grevlex on monomials,
twist-adjusted degrees, lower generator index first on ties).  The same engine
drives normal forms, syzygies via cofactor tracking, kernels, intersections,
membership witnesses, Krull dimension and lead-term Hilbert functions.

A reduced basis is made from a finished run by one interreduction engine:
the minimal elements are loaded as they are (already monic, leads known, no
S-pairs), then each element's tail is reduced against all of them and its
lead put back.  No kept lead divides another and every term met while
reducing a tail lies below that element's lead, so an element never acts on
its own tail; the remainder modulo a Gröbner basis is unique, so the order
in which tails are reduced does not matter.  A finished ``GroebnerBasis``
owns a reducer built the same way, shared by every normal form and
membership test against it.

The coprime-lead-term criterion is applied only in rank-1 untracked runs: it
is valid for ideals but fails for modules (tails in other positions defeat
the classical product argument).  The chain criterion is valid throughout.
"""

import heapq
import itertools

from .rings import (
    DimensionMismatch,
    binomial,
    grevlex_key,
    lex_key,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .modules import GradedFreeModule, Vec

__all__ = [
    "ModuleOrder",
    "SubmoduleGens",
    "GroebnerBasis",
    "groebner",
    "normal_form",
    "syzygies",
    "kernel",
    "submodule_sum",
    "intersect",
    "equal",
    "contains",
    "submodule_ops",
    "lift",
    "krull_dim",
    "minimal_generators",
    "submodule_rank",
    "hilbert_function_quotient",
    "hilbert_function_submodule",
    "monomial_quotient_numerator",
]


class ModuleOrder:
    """Term order on (position, monomial) pairs of a graded free module."""

    def __init__(self, twists, mono="grevlex", eliminate_last=False):
        self.twists = tuple(twists)
        self.mono = mono
        self.eliminate_last = eliminate_last
        mk = grevlex_key if mono == "grevlex" else lex_key
        tw = self.twists
        if eliminate_last:
            def key(pos, exp):
                return (exp[-1], sum(exp) + tw[pos], mk(exp), -pos)
        else:
            def key(pos, exp):
                return (sum(exp) + tw[pos], mk(exp), -pos)
        self.key = key


class SubmoduleGens:
    """Finite homogeneous generating set of a submodule of a free module."""

    __slots__ = ("ambient", "vectors", "_gb", "_tracked")

    def __init__(self, ambient, vectors, check=True):
        self.ambient = ambient
        vecs = []
        for v in vectors:
            if isinstance(v, (list, tuple)):
                v = Vec.from_polys(list(v))
            if v.is_zero():
                continue
            if check and not v.is_homogeneous(ambient):
                raise ValueError(f"inhomogeneous generator {v}")
            if check and v.positions() and max(v.positions()) >= ambient.rank:
                raise DimensionMismatch("generator exceeds ambient rank")
            vecs.append(v)
        self.vectors = tuple(vecs)
        self._gb = None
        self._tracked = None

    def degrees(self):
        return [v.homogeneous_degree(self.ambient) for v in self.vectors]

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return (f"SubmoduleGens({len(self.vectors)} gens in rank "
                f"{self.ambient.rank})")


class GroebnerBasis:
    """Reduced Gröbner basis, monic, sorted by descending lead term.

    The basis owns its reducer: an engine over ``vectors`` with ``leads``
    as given, built on first use and kept.  It shares the basis vectors,
    holds no S-pairs, and is only used to reduce, which leaves it as it is.
    """

    __slots__ = ("ambient", "order", "vectors", "leads", "_reducer")

    def __init__(self, ambient, order, vectors, leads):
        self.ambient = ambient
        self.order = order
        self.vectors = tuple(vectors)
        self.leads = tuple(leads)  # (pos, exp) aligned with vectors
        self._reducer = None

    def __len__(self):
        return len(self.vectors)

    def gens(self):
        return SubmoduleGens(self.ambient, self.vectors, check=False)

    def __repr__(self):
        return f"GroebnerBasis({len(self.vectors)} elements)"


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class _Elem:
    __slots__ = ("vec", "pos", "exp", "cof")

    def __init__(self, vec, pos, exp, cof):
        self.vec = vec
        self.pos = pos
        self.exp = exp
        self.cof = cof


def _lead(vec, key):
    return max(vec.terms, key=lambda k: key(*k))


class _Engine:
    """Incremental Buchberger with optional cofactor tracking."""

    def __init__(self, n, key, track=False, ambient_rank=None):
        self.n = n
        self.key = key
        self.track = track
        self.use_product_criterion = (not track) and ambient_rank == 1
        self.basis = []
        self.buckets = {}  # lead position -> element indices
        self.pairs = []
        self.done = set()
        self.syzygies = []  # cofactor vectors of zero reductions
        self._tick = itertools.count()

    @classmethod
    def reducer(cls, n, key, vectors, leads):
        """Engine over monic vectors with known leads; queues no S-pairs."""
        eng = cls(n, key)
        for vec, (pos, exp) in zip(vectors, leads):
            eng.buckets.setdefault(pos, []).append(len(eng.basis))
            eng.basis.append(_Elem(vec, pos, exp, None))
        return eng

    # -- reduction ----------------------------------------------------
    def reduce(self, vec, cof=None):
        """Full normal form; mirrors every operation on the cofactor."""
        key = self.key
        work = dict(vec.terms)
        wcof = dict(cof.terms) if cof is not None else None
        result = {}
        buckets = self.buckets
        basis = self.basis
        while work:
            term = max(work, key=lambda k: key(*k))
            c = work[term]
            pos, exp = term
            red = None
            for idx in buckets.get(pos, ()):
                g = basis[idx]
                if mono_divides(g.exp, exp):
                    red = g
                    break
            if red is None:
                result[term] = c
                del work[term]
                continue
            shift = tuple(a - b for a, b in zip(exp, red.exp))
            for (p2, e2), c2 in red.vec.terms.items():
                k2 = (p2, mono_mul(e2, shift))
                s = work.get(k2)
                d = c * c2
                if s is None:
                    work[k2] = -d
                else:
                    s = s - d
                    if s:
                        work[k2] = s
                    else:
                        del work[k2]
            if wcof is not None and red.cof is not None:
                for (p2, e2), c2 in red.cof.terms.items():
                    k2 = (p2, mono_mul(e2, shift))
                    s = wcof.get(k2)
                    d = c * c2
                    if s is None:
                        wcof[k2] = -d
                    else:
                        s = s - d
                        if s:
                            wcof[k2] = s
                        else:
                            del wcof[k2]
        rem = Vec(vec.n, result)
        rcof = Vec(cof.n, wcof) if wcof is not None else None
        return rem, rcof

    # -- basis growth -------------------------------------------------
    def _append(self, vec, cof):
        pos, exp = _lead(vec, self.key)
        c = vec.terms[(pos, exp)]
        vec = vec.scale(1 / c)
        if cof is not None:
            cof = cof.scale(1 / c)
        idx = len(self.basis)
        self.basis.append(_Elem(vec, pos, exp, cof))
        for other in self.buckets.get(pos, ()):
            g = self.basis[other]
            lcm = mono_lcm(g.exp, exp)
            heapq.heappush(
                self.pairs,
                (self.key(pos, lcm), next(self._tick), other, idx))
        self.buckets.setdefault(pos, []).append(idx)
        return idx

    def add(self, vec, cof=None):
        """Reduce then adjoin; zero reductions are recorded as syzygies."""
        rem, rcof = self.reduce(vec, cof)
        if rem.is_zero():
            if self.track and rcof is not None and not rcof.is_zero():
                self.syzygies.append(rcof)
            return None
        return self._append(rem, rcof)

    def _spair(self, i, j):
        gi, gj = self.basis[i], self.basis[j]
        lcm = mono_lcm(gi.exp, gj.exp)
        si = tuple(a - b for a, b in zip(lcm, gi.exp))
        sj = tuple(a - b for a, b in zip(lcm, gj.exp))
        one = gi.vec.terms[(gi.pos, gi.exp)]  # monic: the field one
        s = gi.vec.mul_term(si, one) - gj.vec.mul_term(sj, one)
        cof = None
        if self.track:
            ci = gi.cof.mul_term(si, one) if gi.cof is not None else Vec.zero(self.n)
            cj = gj.cof.mul_term(sj, one) if gj.cof is not None else Vec.zero(self.n)
            cof = ci - cj
        return s, cof

    def _chain_skip(self, i, j, lcm):
        done = self.done
        for k in self.buckets.get(self.basis[i].pos, ()):
            if k == i or k == j:
                continue
            if mono_divides(self.basis[k].exp, lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a in done and b in done:
                    return True
        return False

    def process(self):
        while self.pairs:
            _, _, i, j = heapq.heappop(self.pairs)
            pair = (i, j) if i < j else (j, i)
            if pair in self.done:
                continue
            gi, gj = self.basis[i], self.basis[j]
            lcm = mono_lcm(gi.exp, gj.exp)
            if self.use_product_criterion and lcm == mono_mul(gi.exp, gj.exp):
                self.done.add(pair)
                continue
            if self._chain_skip(i, j, lcm):
                self.done.add(pair)
                continue
            self.done.add(pair)
            s, cof = self._spair(i, j)
            rem, rcof = self.reduce(s, cof)
            if rem.is_zero():
                if self.track and rcof is not None and not rcof.is_zero():
                    self.syzygies.append(rcof)
            else:
                self._append(rem, rcof)

    def member(self, vec):
        rem, _ = self.reduce(vec)
        return rem.is_zero()

    # -- reduced basis extraction --------------------------------------
    def reduced_basis(self):
        """Minimal, fully interreduced, monic; sorted by descending lead."""
        key = self.key
        order = sorted(range(len(self.basis)),
                       key=lambda i: key(self.basis[i].pos, self.basis[i].exp))
        kept = []
        for i in order:
            g = self.basis[i]
            if any(h.pos == g.pos and mono_divides(h.exp, g.exp) for h in kept):
                continue
            kept.append(g)
        # one engine holds them all; each tail is reduced in place
        red = _Engine.reducer(self.n, key, [g.vec for g in kept],
                              [(g.pos, g.exp) for g in kept])
        for g in red.basis:
            lead = (g.pos, g.exp)
            tail = dict(g.vec.terms)
            one = tail.pop(lead)
            rem, _ = red.reduce(Vec(self.n, tail))
            g.vec = Vec(self.n, {lead: one, **rem.terms})
        final = red.basis[::-1]
        return [g.vec for g in final], [(g.pos, g.exp) for g in final]


def _engine_for(gens, track=False):
    order = ModuleOrder(gens.ambient.twists)
    eng = _Engine(gens.ambient.n, order.key, track=track,
                  ambient_rank=gens.ambient.rank)
    if track:
        k = len(gens.vectors)
        units = [Vec(gens.ambient.n, {(i, (0,) * gens.ambient.n):
                                      _one_like(gens)}) for i in range(k)]
        for v, u in zip(gens.vectors, units):
            eng.add(v, u)
    else:
        for v in gens.vectors:
            eng.add(v)
    eng.process()
    return eng


def _one_like(gens):
    for v in gens.vectors:
        for c in v.terms.values():
            return c / c
    from fractions import Fraction
    return Fraction(1)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def groebner(gens):
    """Reduced Gröbner basis of the submodule generated by ``gens``."""
    if gens._gb is not None:
        return gens._gb
    eng = _engine_for(gens)
    vectors, leads = eng.reduced_basis()
    gb = GroebnerBasis(gens.ambient, ModuleOrder(gens.ambient.twists),
                       vectors, leads)
    gens._gb = gb
    return gb


def _nf_engine(gb):
    if gb._reducer is None:
        gb._reducer = _Engine.reducer(gb.ambient.n, gb.order.key,
                                      gb.vectors, gb.leads)
    return gb._reducer


def normal_form(v, gb):
    """Canonical remainder of v against a reduced basis; zero iff member."""
    if isinstance(v, (list, tuple)):
        v = Vec.from_polys(list(v))
    if v.positions() and max(v.positions()) >= gb.ambient.rank:
        raise DimensionMismatch("vector exceeds ambient rank")
    rem, _ = _nf_engine(gb).reduce(v)
    return rem


def _tracked(gens):
    if gens._tracked is None:
        gens._tracked = _engine_for(gens, track=True)
    return gens._tracked


def _syzygies_of_vectors(ambient, vectors):
    """Generators of {h : Σ h_i v_i = 0}; the v_i may include zeros."""
    n = ambient.n
    k = len(vectors)
    degs = []
    for v in vectors:
        d = v.homogeneous_degree(ambient)
        degs.append(d if d is not None else 0)
    book = GradedFreeModule(n, degs)
    order = ModuleOrder(ambient.twists)
    eng = _Engine(n, order.key, track=True, ambient_rank=ambient.rank)
    one = None
    for v in vectors:
        for c in v.terms.values():
            one = c / c
            break
        if one is not None:
            break
    if one is None:
        from fractions import Fraction
        one = Fraction(1)
    units = [Vec(n, {(i, (0,) * n): one}) for i in range(k)]
    for v, u in zip(vectors, units):
        eng.add(v, u)
    eng.process()
    rows = list(eng.syzygies)
    # rows of I - B·A: inputs re-divided by the completed basis
    for v, u in zip(vectors, units):
        rem, rcof = eng.reduce(v, u)
        if not rem.is_zero():
            raise AssertionError("input does not reduce to zero over its own GB")
        if rcof is not None and not rcof.is_zero():
            rows.append(rcof)
    # certify every row by substitution
    out = []
    seen = set()
    for s in rows:
        acc = Vec.zero(n)
        for (i, exp), c in s.terms.items():
            acc = acc + vectors[i].mul_term(exp, c)
        if not acc.is_zero():
            raise AssertionError("engine produced a non-syzygy")
        fs = frozenset(s.terms.items())
        if fs not in seen:
            seen.add(fs)
            out.append(s)
    return SubmoduleGens(book, out, check=False)


def syzygies(gens):
    """First syzygy module of the given generators."""
    return _syzygies_of_vectors(gens.ambient, list(gens.vectors))


def kernel(f, target_relations=None):
    """Generators of the kernel of f, optionally into coker(target_relations).

    Computed as syzygies of the image columns augmented with the target
    relations; kernel vectors are the first-block coordinates.
    """
    cols = f.columns()
    vectors = list(cols)
    if target_relations is not None:
        if target_relations.ambient != f.target:
            raise DimensionMismatch("target relations live in a different module")
        vectors += list(target_relations.vectors)
    syz = _syzygies_of_vectors(f.target, vectors)
    s_rank = f.source.rank
    out = []
    seen = set()
    for s in syz.vectors:
        proj = Vec(f.source.n,
                   {k: c for k, c in s.terms.items() if k[0] < s_rank})
        if proj.is_zero():
            continue
        fs = frozenset(proj.terms.items())
        if fs not in seen:
            seen.add(fs)
            out.append(proj)
    return SubmoduleGens(f.source, out, check=False)


def submodule_sum(a, b):
    if a.ambient != b.ambient:
        raise DimensionMismatch("sum: ambients differ")
    return SubmoduleGens(a.ambient, list(a.vectors) + list(b.vectors),
                         check=False)


def contains(a, b):
    """Whether ⟨a⟩ ⊇ ⟨b⟩."""
    if a.ambient != b.ambient:
        raise DimensionMismatch("contains: ambients differ")
    gb = groebner(a)
    eng = _nf_engine(gb)
    return all(eng.member(v) for v in b.vectors)


def equal(a, b):
    return contains(a, b) and contains(b, a)


def intersect(a, b):
    """⟨a⟩ ∩ ⟨b⟩ via the (1-u)·A + u·B trick with one auxiliary variable."""
    if a.ambient != b.ambient:
        raise DimensionMismatch("intersect: ambients differ")
    n = a.ambient.n
    ne = n + 1

    def extend(v, bump):
        return Vec(ne, {(pos, exp + (bump,)): c
                        for (pos, exp), c in v.terms.items()})

    gens = []
    for v in a.vectors:
        gens.append(extend(v, 1))                      # u * a_i
    for v in b.vectors:
        gens.append(extend(v, 0) - extend(v, 1))       # (1-u) * b_j
    order = ModuleOrder(a.ambient.twists, eliminate_last=True)
    eng = _Engine(ne, order.key, track=False)
    for g in gens:
        eng.add(g)
    eng.process()
    out = []
    for elem in eng.basis:
        if all(exp[-1] == 0 for (_, exp) in elem.vec.terms):
            proj = Vec(n, {(pos, exp[:-1]): c
                           for (pos, exp), c in elem.vec.terms.items()})
            out.append(proj)
    result = SubmoduleGens(a.ambient, out, check=False)
    # certify: every generator lies in both submodules
    gba, gbb = groebner(a), groebner(b)
    for v in result.vectors:
        if not normal_form(v, gba).is_zero() or not normal_form(v, gbb).is_zero():
            raise AssertionError("intersection certificate failed")
    return result


def submodule_ops(a, b, op):
    """Dispatcher: sum, intersect, equal or contains."""
    if op == "sum":
        return submodule_sum(a, b)
    if op == "intersect":
        return intersect(a, b)
    if op == "equal":
        return equal(a, b)
    if op == "contains":
        return contains(a, b)
    raise ValueError(f"unknown submodule op {op!r}")


def lift(v, gens):
    """Coefficients h with Σ h_i g_i = v, or None; verified by substitution."""
    if isinstance(v, (list, tuple)):
        v = Vec.from_polys(list(v))
    eng = _tracked(gens)
    zero_cof = Vec.zero(gens.ambient.n)
    rem, rcof = eng.reduce(v, zero_cof)
    if not rem.is_zero():
        return None
    coeffs = (-rcof).to_polys(len(gens.vectors))
    acc = Vec.zero(gens.ambient.n)
    for h, g in zip(coeffs, gens.vectors):
        acc = acc + g.mul_poly(h)
    if acc != v:
        raise AssertionError("lift certificate failed")
    return coeffs


def krull_dim(ideal):
    """dim S/I from the lead-term ideal; -1 for the unit ideal.

    The dimension is the largest size of a variable subset T such that no
    lead-term support is contained in T.
    """
    if ideal.ambient.rank != 1:
        raise DimensionMismatch("krull_dim expects an ideal in a rank-1 module")
    n = ideal.ambient.n
    gb = groebner(ideal)
    supports = []
    for pos, exp in gb.leads:
        sup = frozenset(i for i, e in enumerate(exp) if e)
        if not sup:
            return -1  # unit ideal
        supports.append(sup)
    supports = set(supports)
    if not supports:
        return n
    for size in range(n, -1, -1):
        for T in itertools.combinations(range(n), size):
            Tset = set(T)
            if all(not sup <= Tset for sup in supports):
                return size
    return 0


def minimal_generators(gens):
    """Minimal generating subset, greedily by increasing degree.

    Valid for graded modules by Nakayama: a homogeneous generator is
    redundant iff it lies in the span of the others, and processing by
    ascending degree makes the one-sided test sufficient.
    """
    order = ModuleOrder(gens.ambient.twists)
    idx = sorted(range(len(gens.vectors)),
                 key=lambda i: (gens.vectors[i].homogeneous_degree(gens.ambient),
                                sorted(order.key(*k) for k in
                                       gens.vectors[i].terms.keys())))
    eng = _Engine(gens.ambient.n, order.key, track=False,
                  ambient_rank=gens.ambient.rank)
    kept = []
    for i in idx:
        v = gens.vectors[i]
        rem, _ = eng.reduce(v)
        if rem.is_zero():
            continue
        kept.append(v)
        eng._append(rem, None)
        eng.process()
    return SubmoduleGens(gens.ambient, kept, check=False)


def submodule_rank(gens):
    """Generic rank, read off the lead-term module positions."""
    gb = groebner(gens)
    occupied = {pos for pos, _ in gb.leads}
    return len(occupied)


# ---------------------------------------------------------------------------
# lead-term Hilbert functions
# ---------------------------------------------------------------------------

def _minimalize_monos(gens):
    out = []
    for g in sorted(gens, key=sum):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


def _poly_mul(a, b):
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return {k: v for k, v in out.items() if v}


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def monomial_quotient_numerator(gens, n):
    """Numerator N(λ) with Hilb(S/I, λ) = N/(1-λ)^n for a monomial ideal."""
    gens = _minimalize_monos([tuple(g) for g in gens])
    if any(sum(g) == 0 for g in gens):
        return {}
    if not gens:
        return {0: 1}
    simple = [g for g in gens if sum(1 for e in g if e) <= 1]
    hard = [g for g in gens if sum(1 for e in g if e) > 1]
    if not hard:
        num = {0: 1}
        for g in simple:
            num = _poly_mul(num, {0: 1, sum(g): -1})
        return num
    if len(hard) == 1:
        m = hard[0]
        base = monomial_quotient_numerator(simple, n)
        colon = [tuple(max(e - f, 0) for e, f in zip(g, m)) for g in simple]
        rest = monomial_quotient_numerator(colon, n)
        return _poly_add(base, _poly_mul({sum(m): -1}, rest))
    counts = [0] * n
    for g in hard:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    piv = max(range(n), key=lambda i: counts[i])
    p = tuple(1 if i == piv else 0 for i in range(n))
    plus = monomial_quotient_numerator(gens + [p], n)
    colon = [tuple(max(e - f, 0) for e, f in zip(g, p)) for g in gens]
    quot = monomial_quotient_numerator(colon, n)
    return _poly_add(plus, _poly_mul({1: 1}, quot))


def _series_coeff(numerator, n, d):
    # coefficient of λ^d in numerator/(1-λ)^n
    return sum(c * binomial(d - j + n - 1, n - 1)
               for j, c in numerator.items() if j <= d)


def quotient_numerator(gb):
    """Σ_p λ^{twist_p} · N_p(λ) over positions of the ambient module."""
    n = gb.ambient.n
    per_pos = {p: [] for p in range(gb.ambient.rank)}
    for pos, exp in gb.leads:
        per_pos[pos].append(exp)
    total = {}
    for pos in range(gb.ambient.rank):
        num = monomial_quotient_numerator(per_pos[pos], n)
        tw = gb.ambient.twists[pos]
        total = _poly_add(total, {j + tw: c for j, c in num.items()})
    return total


def hilbert_function_quotient(gb, window):
    """Hilbert function of F/W on degrees 0..window (list of ints)."""
    num = quotient_numerator(gb)
    n = gb.ambient.n
    return [_series_coeff(num, n, d) for d in range(window + 1)]


def hilbert_function_submodule(gens, window):
    """Hilbert function of the submodule itself on degrees 0..window."""
    gb = gens if isinstance(gens, GroebnerBasis) else groebner(gens)
    n = gb.ambient.n
    free = [sum(binomial(d - tw + n - 1, n - 1) for tw in gb.ambient.twists)
            for d in range(window + 1)]
    quot = hilbert_function_quotient(gb, window)
    return [f - q for f, q in zip(free, quot)]
