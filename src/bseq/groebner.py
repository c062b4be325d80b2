"""Gröbner bases for submodules of graded free modules.

Buchberger's algorithm over a term-over-position order (grevlex on monomials,
twist-adjusted degrees, lower generator index first on ties).  The same engine
drives normal forms, syzygies via cofactor tracking, kernels, intersections
(as images of kernels), membership witnesses, Krull dimension and lead-term
Hilbert numerators, which ``resolution.HilbertNumerator`` reads.

The order is packed into additive integer keys (``ModuleOrder``, after
Bachmann–Schönemann, "Monomial representations for Gröbner bases
computations", ISSAC 1998), and the engine works on those keys from input
to output.  A basis element's tail is keyed once, a shifted tail term
costs one integer add, and the leading term is popped from a heap instead
of searched for.  Whether a lead divides a popped term is read off the
packed words with guard bits (Monagan–Pearce, CASC 2007), and tracked
cofactors are keyed with the same exponent weights, so one integer shift
moves a tail and its cofactor alike.  A remainder stays keyed, and those
keys become its tail's when it joins the basis.  (position, exponent)
tuples are made only at the ``Vec`` boundary: a new element's lead,
normal forms (``_Engine.reduce``), lift cofactors, syzygy rows, and
``GroebnerBasis.vectors``, which is unpacked on first use; the
certificates (``_combination``) work on those ``Vec``s, independent of
the packing, cleared of denominators.

Over Q the engine keeps each element as a primitive integer vector with
a positive lead coefficient, and reduces by scaling instead of dividing;
Fractions are made only at the ``Vec`` boundary (see ``_Engine``).  Over
F_p it keeps monic elements with values in [0, p), combined modulo p; the
integer Laurent numerators of the Hilbert data stay exact over any field.

S-pairs are queued by the key of their lcm, whose top digit is the pair's
degree, so ``process(upto=d)`` runs the truncated homogeneous Buchberger
(Kreuzer–Robbiano, *Computational Commutative Algebra*; La Scala–Stillman,
"Strategies for computing minimal free resolutions", JSC 1998): it reduces
the pairs of degree at most d and leaves the rest queued.  For homogeneous
input the basis is then a Gröbner basis through degree d, which decides
membership in every degree up to d.

A ``SubmoduleGens`` keeps its generators as given, zero vectors included,
so generator i is a map's i-th column, and keeps at most one run of each
kind.  Its untracked run skips zero vectors at intake and adjoins the
others by ascending degree, each after ``process(upto=its degree)``; the
ones it keeps are minimal generators, and ``groebner`` finishes the run.
Its tracked run takes them all in list order (a zero one gives the unit
syzygy e_i) and serves ``syzygies``, ``kernel`` and ``lift``;
``groebner`` interreduces it instead when it exists: the reduced basis
is unique.  A set made with ``track_only`` (one that is lifted over)
builds its tracked run for its basis and leads too, so it has no
untracked run unless ``minimal_generators`` asks.  Its generators'
degrees are taken once (``degrees``), and a set that reorders or
selects them is handed theirs.

Each result is built only when read.  The reduced basis is made for the
callers that reduce against it or print it (``groebner``, ``normal_form``,
``member``, ``contains``).  Whatever needs only leads (``submodule_rank``,
``injective``, ``krull_dim``, the Hilbert data) reads
``SubmoduleGens.leads``: the reduced basis's if it is built, else the
leads of the finished run, which span the same lead module.  ``member``
tests a remainder for zero while it is still keyed.  ``injective``
compares ranks instead of building a kernel.  A syzygy module is the
zero reductions that its tracked run recorded, each distinct row
certified once, and a kernel is the syzygies of its image's generators
projected onto the source.  ``kernel`` and ``injective`` take the
caller's ``SubmoduleGens`` of the image (``image=``) and read its runs,
so a submodule that is tested several ways, as a b-sequence problem's
images are, is run once.

A run also stops where the mathematics decides.  ``minimal_syzygies``
builds the tracked run of a generating set in intake order, and when no
syzygy row has a constant entry the set is minimal (graded Nakayama), so
no untracked run is built to show it.  ``quotient_numerator`` given a
lower bound on HS(F/W) reads leads that lie in in(W) and stops where
their numerator meets that bound (Traverso): before any run, when the
generators' own leads meet it, and otherwise after the untracked run's
intake, when the leads it has meet it.

Each input is keyed once per term order, in one pass:
``ModuleOrder.pack`` builds every key of a vector in one comprehension
and tests the range once, on the largest.  ``_packed`` keeps a
vector's packed terms on the ``Vec`` itself (its ``_keyed`` slot), with
the ``ModuleOrder`` and field they were packed for; orders are memoized
per (n, twists), so every engine over one ambient hits them.
``_Engine._keyed`` hands out a copy, because ``_reduce`` consumes the
dict it is given.  A generator keyed by a run, or for its lead by
``quotient_numerator``, is not keyed again by ``member``, ``lift`` or
another run.

A reduced basis is made from a finished run by one interreduction engine,
which the ``GroebnerBasis`` keeps as its reducer.  The minimal elements are
loaded with the keys the run gave them (no S-pairs), then each element's
tail is reduced in place against all of them and the element made
primitive again.  No kept lead divides another and every term met while
reducing a tail lies below that element's lead, so an element never acts
on its own tail; the remainder modulo a Gröbner basis is unique, so the
order in which tails are reduced does not matter.  Every normal form and
membership test against the basis reduces with that engine, so a basis
term is keyed once, in the run that made it.

The coprime-lead-term criterion is applied only in rank-1 untracked runs: it
is valid for ideals but fails for modules (tails in other positions defeat
the classical product argument).  The chain criterion is valid throughout.
"""

import heapq
import itertools
import math
from functools import lru_cache, reduce
from math import gcd
from heapq import heapify, heappop, heappush
from operator import mul

from .rings import (
    DimensionMismatch,
    merge_terms,
    mono_divides,
    mono_lcm,
    mono_mul,
    sub_multiple,
)
from .modules import GradedFreeModule, ModuleMap, Vec

__all__ = [
    "ModuleOrder",
    "SubmoduleGens",
    "GroebnerBasis",
    "groebner",
    "normal_form",
    "member",
    "syzygies",
    "kernel",
    "submodule_sum",
    "intersect",
    "equal",
    "contains",
    "lift",
    "injective",
    "krull_dim",
    "minimal_generators",
    "minimal_syzygies",
    "submodule_rank",
    "monomial_quotient_numerator",
]


class ModuleOrder:
    """Term order on (position, monomial) pairs of a graded free module.

    Terms compare by the tuple (deg + twist, deg, -e_n, ..., -e_1, -pos).
    ``key(pos, exp)`` packs that tuple into one int, in mixed radix with the
    leading entry as the top digit, so a larger key is a larger term.  The
    packing is additive: key(pos, exp) = base[pos] + Σ w_i·e_i, so
    multiplying a term by x^s adds Σ w_i·s_i to its key, whatever the term.
    ``term`` unpacks a key.

    Layout, least significant first: the position digit last - pos
    (``last`` the largest position, so pos = last - (key & pos_mask)), then
    one 16-bit digit 2^16 - 1 - e_i per variable, each under a guard bit
    that is zero in every key, then deg and deg + twist - (least twist).
    The position and exponent digits form a key's low word.  ``low(key)``
    is that word with the guard bits set, and ``divides(low, key)`` tests
    with one subtract and mask (Monagan–Pearce, "Polynomial division using
    dynamic arrays, heaps, and packed exponent vectors", CASC 2007) whether
    the monomial of ``low`` divides that of ``key``, at the same position:
    a digit of the subtraction borrows its guard bit exactly where the
    divisor's exponent is the larger.

    Every digit below the top one must lie in [0, 2^BITS), or keys would
    mis-order.  ``key`` refuses a term whose deg + twist - (least twist)
    reaches 2^BITS; that bounds its degree and so every exponent.  It reads
    this off the key: the top digit is that sum when the term is in range,
    and reaches 2^BITS when it is not (a digit below it that overflows
    makes it larger still).  So ``pack``, which keys a whole vector in one
    pass, tests the range once per vector, on the top digit of its largest
    key.  Terms that reduction makes by shifting keyed tails need no check
    of their own.  A reduction step replaces a multiple of a basis
    element's lead by the same multiple of its tail, and no tail term has
    a higher deg + twist, the top digit, than its lead, so reduction never
    climbs above the deg + twist of a term ``key`` has checked.

    A cofactor term x^e·e_i over a tracked run's generators is keyed with
    the same weights, ``cofactor_key(i, e)`` = i·U + Σ w_j·e_j plus a
    constant that keeps its exponent digits nonnegative, U above every
    digit: the key shift that moves a term by x^s moves a cofactor term by
    x^s too.  Its exponent is bounded by the degree of the term it stands
    for, so its digits stay in range as well.  ``cofactor_term`` unpacks it.

    ``max_key(d)`` bounds the keys of the terms with deg + twist at most d.
    """

    BITS = 16

    def __init__(self, n, twists):
        self.twists = tuple(twists)
        lo = min(self.twists, default=0)
        self._spread = tuple(t - lo for t in self.twists)
        bits = self.BITS
        self._mask = mask = (1 << bits) - 1
        self.last = last = max(len(self.twists) - 1, 0)
        self.pos_mask = (1 << last.bit_length()) - 1
        # digit places, least significant first: -pos, -e_1 .. -e_n (each
        # with a guard bit above it), deg, deg + twist - lo
        self._exp_shifts = tuple(last.bit_length() + (bits + 1) * i
                                 for i in range(n))
        self.guards = sum(1 << (s + bits) for s in self._exp_shifts)
        deg = 1 << (last.bit_length() + (bits + 1) * n)
        self._low_mask = deg - 1
        twist = deg << bits
        self._w = tuple(twist + deg - (1 << s) for s in self._exp_shifts)
        digits = sum(mask << s for s in self._exp_shifts)
        self._base = tuple(t * twist + digits + last - pos
                           for pos, t in enumerate(self._spread))
        self._lo = lo
        self._top = twist.bit_length() - 1  # place of the deg + twist digit
        self._cof_shift = self._top + bits
        self._cof_base = digits

    def key(self, pos, exp):
        key = self._base[pos] + sum(map(mul, self._w, exp))
        if key >> self._cof_shift:
            raise ValueError(
                f"term at position {pos} with exponents {exp} is out of the "
                f"term order's range: degree plus twist spread must stay "
                f"below 2^{self.BITS}")
        return key

    def pack(self, terms):
        """{-key(pos, exp): c} for the terms {(pos, exp): c} of a vector,
        built in one pass.  The range is tested once, on the largest key;
        only if it fails is each term keyed by ``key``, which raises for
        the first one out of range."""
        base, w = self._base, self._w
        packed = {-base[pos] - sum(map(mul, w, exp)): c
                  for (pos, exp), c in terms.items()}
        if packed and -min(packed) >> self._cof_shift:
            for pos, exp in terms:
                self.key(pos, exp)
        return packed

    def lcm_key(self, pos, a, b):
        """``key(pos, mono_lcm(a, b))``, built without the lcm tuple, with
        the same range test."""
        key = self._base[pos] + sum(map(mul, self._w, map(max, a, b)))
        if key >> self._cof_shift:
            raise ValueError(
                f"pair lcm at position {pos} of exponents {a} and {b} is out "
                f"of the term order's range: degree plus twist spread must "
                f"stay below 2^{self.BITS}")
        return key

    def term(self, key):
        """The (position, exponent) pair whose key is ``key``."""
        return self.last - (key & self.pos_mask), self._exponent(key)

    def _exponent(self, key):
        m = self._mask
        return tuple([m - ((key >> s) & m) for s in self._exp_shifts])

    def low(self, key):
        """``key``'s position and exponent digits, with the guard bits set."""
        return (key & self._low_mask) | self.guards

    def divides(self, low, key):
        """Whether the monomial whose ``low`` word is ``low`` divides the
        monomial of ``key``; both terms must be at one position."""
        return (low - key) & self.guards == self.guards

    def cofactor_key(self, i, exp):
        return (i << self._cof_shift) + self._cof_base + sum(
            map(mul, self._w, exp))

    def cofactor_term(self, key):
        """The (generator index, exponent) pair whose cofactor key is
        ``key``."""
        return key >> self._cof_shift, self._exponent(key)

    def max_key(self, degree):
        """The largest key of a term with deg + twist = ``degree``: a key
        is at most this iff its term's deg + twist is at most ``degree``."""
        return ((degree - self._lo + 1) << self._top) - 1


@lru_cache(maxsize=256)
def _order(n, twists):
    """The ``ModuleOrder`` of (n, twists), built once: it is immutable."""
    return ModuleOrder(n, twists)


class SubmoduleGens:
    """Finite homogeneous generating set of a submodule of a free module.

    ``vectors`` keeps zero vectors in place (see the module docstring).
    Its Gröbner runs are built on first use and advanced in place:
    ``_run`` the untracked one, with ``_minimal`` the
    generators it kept (None if it kept them all, in order), and
    ``_tracked`` the tracked one.  With ``track_only`` the tracked run is
    also the one the reduced basis and leads are read off, built first if
    they are asked for first.  ``_gb`` caches the reduced basis,
    ``_cleared`` the generators cleared of denominators for ``lift``'s
    certificate and ``_degrees`` the generators' degrees.  So one object
    must not be used from two threads at once.
    """

    __slots__ = ("ambient", "vectors", "track_only", "_gb", "_run",
                 "_minimal", "_tracked", "_cleared", "_degrees")

    def __init__(self, ambient, vectors, check=True, track_only=False):
        self.ambient = ambient
        self.vectors = tuple(vectors)
        self.track_only = track_only
        for v in self.vectors if check else ():
            if not v.is_homogeneous(ambient):
                raise ValueError(f"inhomogeneous generator {v}")
            if v.positions() and max(v.positions()) >= ambient.rank:
                raise DimensionMismatch("generator exceeds ambient rank")
            if v.field != ambient.field or not all(
                    map(ambient.field.admits, v.terms.values())):
                raise DimensionMismatch(
                    f"generator coefficients are not in {ambient.field!r}")
        self._gb = self._run = self._minimal = self._tracked = None
        self._cleared = self._degrees = None

    def degrees(self):
        """Each generator's degree (None for a zero vector), as a tuple
        taken once."""
        if self._degrees is None:
            amb = self.ambient
            self._degrees = tuple(v.homogeneous_degree(amb)
                                  for v in self.vectors)
        return self._degrees

    def _select(self, indices):
        """The generators at ``indices``, in that order, with their
        degrees."""
        sub = SubmoduleGens(self.ambient, [self.vectors[i] for i in indices],
                            check=False)
        degs = self.degrees()
        sub._degrees = tuple(degs[i] for i in indices)
        return sub

    @property
    def leads(self):
        """(pos, exp) of the leads of a Gröbner basis of the submodule: the
        reduced basis's if it is built, else those of the finished run
        (``_engine_for``), which need not be minimal."""
        if self._gb is not None:
            return self._gb.leads
        eng = _engine_for(self)
        return tuple((g.pos, g.exp) for g in eng.basis)

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return (f"SubmoduleGens({len(self.vectors)} gens in rank "
                f"{self.ambient.rank})")


class GroebnerBasis:
    """Reduced Gröbner basis, monic, sorted by descending lead term.

    The basis is its reducer: the engine that interreduced it, holding one
    element per basis vector in the same order and no S-pairs.  Every
    normal form and membership test against the basis reduces with it,
    which leaves it as it is.  ``vectors`` are unpacked from the reducer's
    keyed tails on first use, so a basis used only for its leads or as a
    reducer unpacks none.
    """

    __slots__ = ("ambient", "reducer", "_vectors")

    def __init__(self, ambient, reducer):
        self.ambient = ambient
        self.reducer = reducer
        self._vectors = None

    @property
    def vectors(self):
        if self._vectors is None:
            self._vectors = tuple(map(self.reducer.vector, self.reducer.basis))
        return self._vectors

    @property
    def leads(self):
        """(pos, exp) of each basis vector's lead, aligned with vectors."""
        return tuple((g.pos, g.exp) for g in self.reducer.basis)

    def __len__(self):
        return len(self.reducer.basis)

    def __repr__(self):
        return f"GroebnerBasis({len(self)} elements)"


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class _Elem:
    """A basis element with lead (pos, exp), held as lc·x^exp·e_pos + tail;
    the monic basis vector is that divided by ``lc``.  ``nkey`` is the
    lead's negated order key, ``low`` its ``ModuleOrder.low`` word, ``tail``
    the other terms as {negated key: coefficient} and ``cof`` the cofactor
    terms as {negated cofactor key: coefficient}, or None untracked: the
    element is Σ cof_i·g_i over the tracked run's generators.  Over Q,
    ``lc`` is a positive int and the tail and cofactor hold ints, all with
    no common factor; over F_p, ``lc`` is 1 and they hold ints in
    [0, p)."""

    __slots__ = ("pos", "exp", "lc", "cof", "nkey", "low", "tail")

    def __init__(self, pos, exp, lc, cof, nkey, low, tail):
        self.pos = pos
        self.exp = exp
        self.lc = lc
        self.cof = cof
        self.nkey = nkey
        self.low = low
        self.tail = tail


class _Engine:
    """Incremental Buchberger with optional cofactor tracking.

    The engine works on packed keys from input to output.  It keys terms by
    their negated ``order.key`` and cofactor terms by their negated
    ``order.cofactor_key``, which share the exponent weights: a reduction
    step by x^s shifts tail and cofactor terms by the same integer, and
    heapq's min-heap pops the leading term.  Whether a basis element
    divides a popped term is one guard-bit subtract and mask against the
    element's ``low`` word, among the elements at the term's position.
    (position, exponent) tuples are made only at the ``Vec`` boundary: a
    new element's lead, ``reduce``'s normal form, ``_cofactors`` (lift
    cofactors and syzygy rows) and ``vector``.

    Over Q it is fraction-free (Greuel–Pfister, *A Singular Introduction
    to Commutative Algebra*, §1.6–1.7): ``_keyed`` clears denominators,
    ``_append`` divides out the content, and a step by an element with
    lead coefficient lc ≠ 1 scales the work, the collected remainder and
    the cofactor by lc/g, g = gcd(lc, c), then subtracts (c/g)·x^s·tail.
    ``_reduce`` and ``_spair`` return that scale Λ, and the ``Vec``
    boundary divides by Λ or lc (``field.fraction``).  Decisions depend on
    keys only, so results are the exact ones.  Over F_p, lc and Λ are 1,
    and ``sub_multiple`` reduces modulo p (``self.p``, 0 over Q).
    ``process(upto=d)`` stops before the first queued pair of degree above
    d (see the module docstring).
    """

    def __init__(self, n, order, field, track=False, ambient_rank=None):
        self.n = n
        self.order = order
        self.field = field
        self.p = field.characteristic
        self.track = track
        self.use_product_criterion = (not track) and ambient_rank == 1
        self.basis = []
        self.buckets = {}  # lead position -> element indices
        self.pairs = []
        self.done = set()
        self.syzygies = []  # cofactor vectors of zero reductions
        self._tick = itertools.count()

    def _keyed(self, vec):
        """The terms of ``vec`` as {negated key: coefficient}, times the
        integer Λ returned with them (``_packed``); the caller gets a
        copy, since ``_reduce`` consumes it."""
        keyed, lam = _packed(vec, self.order, self.field)
        return dict(keyed), lam

    def _unkeyed(self, term, keyed, lam):
        """``keyed`` divided by Λ as a ``Vec``, its keys unpacked by
        ``term``."""
        n, field = self.n, self.field
        if lam == 1:
            return Vec(n, {term(-k): c for k, c in keyed.items()}, field)
        div = field.fraction
        return Vec(n, {term(-k): div(c, lam) for k, c in keyed.items()}, field)

    def _cofactors(self, keyed, lam):
        """Keyed cofactor terms divided by Λ as a ``Vec`` over the
        generators."""
        return self._unkeyed(self.order.cofactor_term, keyed, lam)

    def vector(self, g):
        """Element ``g`` as a ``Vec``: its monic lead, then its tail."""
        return self._unkeyed(self.order.term, {g.nkey: g.lc, **g.tail}, g.lc)

    def _load(self, elem):
        self.buckets.setdefault(elem.pos, []).append(len(self.basis))
        self.basis.append(elem)

    # -- reduction ----------------------------------------------------
    def reduce(self, vec):
        """Full normal form of ``vec``, as a ``Vec``."""
        rem, lam, _ = self._reduce(*self._keyed(vec))
        return self._unkeyed(self.order.term, rem, lam)

    def _reduce(self, work, lam, wcof=None):
        """Normal form of ``work`` ({negated key: coefficient}, consumed),
        which stands for ``work``/Λ with Λ = ``lam``.

        Returns the remainder, keyed the same way in descending order, the
        integer Λ by which it exceeds the true remainder, and ``wcof``
        (keyed cofactor terms, which exceed the true ones by ``lam`` too,
        or None) with the same operations applied.  A heap entry whose
        term has left ``work`` is skipped: a popped term never comes back,
        since reducing it only adds smaller terms.
        """
        order = self.order
        last, pos_mask = order.last, order.pos_mask
        guards = order.guards
        buckets = self.buckets
        basis = self.basis
        p = self.p
        heap = list(work)
        heapify(heap)
        new = []
        result = {}
        while heap:
            k = heappop(heap)
            c = work.pop(k, None)
            if c is None:
                continue
            # the guard-bit test of ModuleOrder.divides, inlined
            for idx in buckets.get(last - (-k & pos_mask), ()):
                red = basis[idx]
                if (red.low + k) & guards == guards:
                    break
            else:
                result[k] = c
                continue
            lc = red.lc
            if lc != 1:
                # c·lc/g cancels the term: scale by lc/g, subtract c/g
                g = gcd(lc, c)
                if g != lc:
                    m = lc // g
                    lam *= m
                    work = {t: a * m for t, a in work.items()}
                    result = {t: a * m for t, a in result.items()}
                    if wcof is not None:
                        wcof = {t: a * m for t, a in wcof.items()}
                c //= g
            shift = k - red.nkey
            sub_multiple(work, red.tail, shift, c, new, p)
            for nk in new:
                heappush(heap, nk)
            new.clear()
            if wcof is not None:
                sub_multiple(wcof, red.cof, shift, c, None, p)
        return result, lam, wcof

    # -- basis growth -------------------------------------------------
    def _append(self, rem, cof):
        """Adjoin a remainder of ``_reduce`` and its keyed cofactor terms
        (or None), both divided by their content over Q and by the lead
        coefficient over F_p.  The first term of ``rem``, of the least
        negated key, is the lead; the keys are reused as the tail's, so no
        term is keyed again.  ``rem`` is consumed."""
        nkey, c = next(iter(rem.items()))
        pos, exp = self.order.term(-nkey)
        del rem[nkey]
        lc, tail, cof = self.field.primitive(c, rem, cof)
        idx = len(self.basis)
        lcm_key = self.order.lcm_key
        for other in self.buckets.get(pos, ()):
            heapq.heappush(
                self.pairs,
                (lcm_key(pos, self.basis[other].exp, exp), next(self._tick),
                 other, idx))
        self._load(_Elem(pos, exp, lc, cof, nkey, self.order.low(-nkey),
                         tail))
        return idx

    def _adjoin(self, rem, lam, rcof):
        """Adjoin a result of ``_reduce``; a zero remainder is not adjoined,
        and its cofactor is recorded as a syzygy."""
        if not rem:
            if self.track and rcof:
                self.syzygies.append(self._cofactors(rcof, lam))
            return None
        return self._append(rem, rcof)

    def _spair(self, i, j, lcm_key):
        """S-vector of elements i, j as a keyed work dict, the integer Λ by
        which it exceeds that of the monic elements, and its keyed
        cofactor."""
        gi, gj = self.basis[i], self.basis[j]
        g = gcd(gi.lc, gj.lc)
        mi, mj = gj.lc // g, gi.lc // g
        lam = mi * gi.lc
        si, sj = -lcm_key - gi.nkey, -lcm_key - gj.nkey
        p = self.p
        s = {}
        sub_multiple(s, gi.tail, si, -mi, None, p)
        sub_multiple(s, gj.tail, sj, mj, None, p)
        cof = None
        if self.track:
            cof = {}
            sub_multiple(cof, gi.cof, si, -mi, None, p)
            sub_multiple(cof, gj.cof, sj, mj, None, p)
        return s, lam, cof

    def _chain_skip(self, i, j, lcm_key):
        done = self.done
        divides = self.order.divides
        for k in self.buckets.get(self.basis[i].pos, ()):
            if k == i or k == j:
                continue
            if divides(self.basis[k].low, lcm_key):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a in done and b in done:
                    return True
        return False

    def process(self, upto=None):
        """Reduce the queued S-pairs; with ``upto``, only those of degree
        at most ``upto``, leaving the rest queued."""
        pairs = self.pairs
        bound = math.inf if upto is None else self.order.max_key(upto)
        while pairs and pairs[0][0] <= bound:
            lcm_key, _, i, j = heapq.heappop(pairs)
            pair = (i, j) if i < j else (j, i)
            if pair in self.done:
                continue
            if self.use_product_criterion:
                gi, gj = self.basis[i], self.basis[j]
                if mono_lcm(gi.exp, gj.exp) == mono_mul(gi.exp, gj.exp):
                    self.done.add(pair)
                    continue
            if self._chain_skip(i, j, lcm_key):
                self.done.add(pair)
                continue
            self.done.add(pair)
            self._adjoin(*self._reduce(*self._spair(i, j, lcm_key)))

    # -- reduced basis extraction --------------------------------------
    def reduced_basis(self):
        """The reduced basis as an engine over its elements, by descending
        lead, which queues no S-pairs.  Each interreduced tail comes back
        Λ times too large and the element is made primitive again, so
        over Q it stays an integer vector; ``vector`` divides by its lead
        coefficient."""
        divides = self.order.divides
        kept = []
        lows = {}  # position -> lead words of the elements kept there
        for g in sorted(self.basis, key=lambda g: g.nkey, reverse=True):
            key = -g.nkey
            at = lows.setdefault(g.pos, [])
            if not any(divides(low, key) for low in at):
                at.append(g.low)
                kept.append(g)
        # one engine holds them all, keyed as this run keyed them; each
        # tail is reduced in place
        red = _Engine(self.n, self.order, self.field)
        for g in reversed(kept):
            red._load(_Elem(g.pos, g.exp, g.lc, None, g.nkey, g.low,
                            dict(g.tail)))
        for g in red.basis:
            # the reduced tail exceeds the true one by Λ: the element is
            # Λ·lead + that tail, made primitive
            rem, lam, _ = red._reduce(g.tail, g.lc)
            g.lc, g.tail, _ = self.field.primitive(lam, rem, None)
        return red


def _packed(vec, order, field):
    """The terms of ``vec`` as {negated key: coefficient} under ``order``,
    times the integer Λ returned with them (over Q, their least common
    denominator).  They are packed once per order and field and kept on
    ``vec``; the dict is the memo's own, so a caller that changes it must
    copy it.  A vector over another field raises ``DimensionMismatch``."""
    memo = vec._keyed
    if memo is None or memo[0] is not order or memo[1] is not field:
        if vec.field != field:
            raise DimensionMismatch(
                f"vector over {vec.field!r}, basis over {field!r}")
        memo = vec._keyed = (order, field,
                             *field.integral(order.pack(vec.terms)))
    return memo[2], memo[3]


def _new_engine(ambient, track=False):
    n = ambient.n
    return _Engine(n, _order(n, ambient.twists), ambient.field, track=track,
                   ambient_rank=ambient.rank)


def _intake(eng, gens):
    """The generators of ``gens`` keyed for ``eng``, their degrees, and the
    order in which a run adjoins them: by ascending degree, ties broken by
    their sorted term keys, zero vectors left out.  The untracked run and
    ``minimal_syzygies``' tracked run both take this order."""
    keyed = [eng._keyed(v) for v in gens.vectors]
    degs = gens.degrees()
    return keyed, degs, sorted(
        (i for i, (work, _) in enumerate(keyed) if work),
        key=lambda i: (degs[i], sorted(-k for k in keyed[i][0])))


def _untracked(gens):
    """The untracked run of ``gens``, built on first use: each generator
    is keyed once and, in intake order (``_intake``), reduced after the
    S-pairs of degree at most its own and adjoined unless zero.  The
    adjoined ones form ``gens._minimal``, or it is None when they are all
    of ``gens``, in order; pairs above the last degree stay queued.  That
    subset shares the run, which its own would repeat step for step."""
    if gens._run is None:
        amb = gens.ambient
        eng = _new_engine(amb)
        keyed, degs, order = _intake(eng, gens)
        kept = []
        for i in order:
            eng.process(upto=degs[i])
            if eng._adjoin(*eng._reduce(*keyed[i])) is not None:
                kept.append(i)
        gens._run = eng
        if kept != list(range(len(gens.vectors))):
            gens._minimal = gens._select(kept)
            gens._minimal._run = eng
    return gens._run


def _engine_for(gens):
    """A finished run of ``gens``: the tracked one if it is built or
    ``gens.track_only``, else the untracked one."""
    if gens._tracked is not None or gens.track_only:
        return _tracked(gens)
    eng = _untracked(gens)
    eng.process()
    return eng


def _track(eng, keyed, minimal=False):
    """Finish the tracked run ``eng`` over generators whose keyed forms
    are ``keyed``, taken in list order.  Generator i enters with the unit
    cofactor e_i and is reduced by the elements adjoined before it: a
    nonzero remainder is adjoined with its cofactor, a zero one (a zero
    vector included) is recorded as a syzygy.  With ``minimal``, return
    None instead as soon as a generator reduces to zero at intake: its
    syzygy row has the constant entry Λ at its own place, so the
    generators are not minimal."""
    zero = (0,) * eng.n
    for i, (work, lam) in enumerate(keyed):
        # its keyed cofactor Λ·e_i
        unit = {-eng.order.cofactor_key(i, zero): lam}
        if eng._adjoin(*eng._reduce(work, lam, unit)) is None and minimal:
            return None
    eng.process()
    return eng


def _integral(field, vectors):
    """The term dicts of L·v for each of ``vectors``, ints over Q, and L
    (over Q the least common denominator of them all, over F_p 1)."""
    pairs = [field.integral(v.terms) for v in vectors]
    big = math.lcm(*[d for _, d in pairs])
    return [t if d == big else {k: c * (big // d) for k, c in t.items()}
            for t, d in pairs], big


def _combination(vectors, cof, p):
    """Terms of Σ h_i·v_i, where the cofactor h = Σ c·x^e·e_i, in one dict,
    modulo p (0 over Q); ``vectors`` and ``cof`` are term dicts keyed by
    (position, exponent)."""
    acc = {}
    for (i, exp), c in cof.items():
        sub_multiple(acc, vectors[i], exp, -c, None, p)
    return acc


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def groebner(gens):
    """Reduced Gröbner basis of the submodule generated by ``gens``."""
    if gens._gb is None:
        gens._gb = GroebnerBasis(gens.ambient,
                                 _engine_for(gens).reduced_basis())
    return gens._gb


def normal_form(v, gb):
    """Canonical remainder of v against a reduced basis; zero iff member."""
    if v.positions() and max(v.positions()) >= gb.ambient.rank:
        raise DimensionMismatch("vector exceeds ambient rank")
    return gb.reducer.reduce(v)


def member(v, gb):
    """Whether v lies in the submodule of the reduced basis ``gb``: its
    keyed remainder is empty, and no ``Vec`` is unpacked."""
    reducer = gb.reducer
    return not reducer._reduce(*reducer._keyed(v))[0]


def _tracked(gens):
    """The tracked run of ``gens``, built on first use over every
    generator in list order (see ``_track``)."""
    if gens._tracked is None:
        eng = _new_engine(gens.ambient, track=True)
        gens._tracked = _track(eng, [eng._keyed(v) for v in gens.vectors])
    return gens._tracked


def _cleared(gens):
    """``_integral`` of ``gens``' generators, made once for the
    substitution certificates of ``syzygies`` and ``lift``."""
    if gens._cleared is None:
        gens._cleared = _integral(gens.ambient.field, gens.vectors)
    return gens._cleared


def _book(ambient, vectors, degrees=None):
    """The free module on ``vectors``' degrees (0 for a zero vector);
    ``degrees``, when given, are those degrees."""
    if degrees is None:
        degrees = [v.homogeneous_degree(ambient) for v in vectors]
    return GradedFreeModule(
        ambient.n, [0 if d is None else d for d in degrees],
        field=ambient.field)


def syzygies(gens):
    """First syzygy module {h : Σ h_i v_i = 0} of the generators v_i of
    ``gens``: the zero reductions that their tracked run recorded.

    With the basis G = A·V (A the elements' cofactors), the syzygies of V
    are generated by those of G's zero reductions and by the rows of
    I - B·A, for any B with V = B·G (Möller–Mora–Traverso, "Gröbner bases
    computation using syzygies", ISSAC 1992).  B is read off intake, which
    writes v_i as its remainder plus a combination of earlier elements.
    If the remainder was adjoined, it is an element whose cofactor is e_i
    minus that combination, so the row of v_i is zero.  If it is zero, the
    row is the syzygy that intake recorded: e_i for a zero vector.  The
    S-pair zero reductions give the syzygies of G (Schreyer).  Each
    distinct row is certified once, by substitution.
    """
    field = gens.ambient.field
    ivectors = _cleared(gens)[0]
    out = []
    seen = set()
    for s in _tracked(gens).syzygies:
        fs = frozenset(s.terms.items())
        if fs in seen:
            continue
        seen.add(fs)
        if _combination(ivectors, field.integral(s.terms)[0],
                        field.characteristic):
            raise AssertionError("engine produced a non-syzygy")
        out.append(s)
    return SubmoduleGens(_book(gens.ambient, gens.vectors, gens.degrees()),
                         out, check=False)


def _same_order(a, b):
    """Whether free modules a and b order their terms alike: one field and
    rank, and twists that differ by one overall shift, which moves every
    deg + twist alike."""
    return (a.n == b.n and a.rank == b.rank and a.field == b.field
            and len({s - t for s, t in zip(a.twists, b.twists)}) <= 1)


def kernel(f, target_relations=None, image=None):
    """Generators of the kernel of f, optionally into coker(target_relations).

    Computed as the syzygies of the image columns augmented with the
    target relations; kernel vectors are the first-block coordinates.

    ``image`` is a ``SubmoduleGens`` that the caller owns, whose vectors
    are those columns and relations, in an ambient ordered like f's
    target: its tracked run is used and kept there.  Any other ``image``
    is a caller's bug and raises ``AssertionError``.
    """
    vectors = f.columns()
    if target_relations is not None:
        if target_relations.ambient != f.target:
            raise DimensionMismatch("target relations live in a different module")
        vectors += target_relations.vectors
    if image is None:
        image = SubmoduleGens(f.target, vectors, check=False)
    elif (image.vectors != tuple(vectors)
          or not _same_order(image.ambient, f.target)):
        raise AssertionError("image= does not hold the map's columns and "
                             "relations in its target's order")
    s_rank = f.source.rank
    out = []
    seen = set()
    for s in syzygies(image).vectors:
        proj = Vec(f.source.n,
                   {k: c for k, c in s.terms.items() if k[0] < s_rank},
                   f.source.field)
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
    basis = groebner(a)
    return all(member(v, basis) for v in b.vectors)


def equal(a, b):
    return contains(a, b) and contains(b, a)


def intersect(a, b):
    """⟨a⟩ ∩ ⟨b⟩ as the image of the kernel of a's generators modulo ⟨b⟩:
    Σ h_i a_i lies in ⟨b⟩ iff h is in Ker(F_a -> F/⟨b⟩)."""
    if a.ambient != b.ambient:
        raise DimensionMismatch("intersect: ambients differ")
    f_a = ModuleMap.from_columns(_book(a.ambient, a.vectors, a.degrees()),
                                 a.ambient, a.vectors)
    ker = kernel(f_a, target_relations=b)
    # no normal-form re-check: f_a(h) lies in ⟨a⟩ by construction, and in
    # ⟨b⟩ by the syzygy f_a(h) + Σ k_j b_j = 0 that syzygies has certified
    # by substitution
    return SubmoduleGens(a.ambient, [f_a.apply(h) for h in ker.vectors],
                         check=False)


def lift(v, gens):
    """Cofactor vector h with Σ h_i g_i = v, or None; verified by
    substitution.  Position i of h holds the cofactor of generator i."""
    eng = _tracked(gens)
    work, lam = eng._keyed(v)
    rem, lam, rcof = eng._reduce(work, lam, {})
    if rem:
        return None
    h = -eng._cofactors(rcof, lam)
    # Σ (d·h_i)(L·g_i) = d·L·v, cleared of denominators
    field = gens.ambient.field
    ivectors, big = _cleared(gens)
    ih, d = field.integral(h.terms)
    scale = big * d
    if _combination(ivectors, ih, field.characteristic) != (
            v.terms if scale == 1 else
            {k: c * scale for k, c in v.terms.items()}):
        raise AssertionError("lift certificate failed")
    return h


def injective(f, image=None):
    """Whether f: F -> G is injective.  Over a domain that is rank Im f =
    rank F, since Ker f ⊆ F is torsion-free; the rank is read off the lead
    positions of the columns, as in ``submodule_rank``.  ``image``, a
    ``SubmoduleGens`` of Im f that the caller owns, lends its run."""
    if image is None:
        image = SubmoduleGens(f.target, f.columns(), check=False)
    return submodule_rank(image) == f.source.rank


def krull_dim(ideal):
    """dim S/I from the lead-term ideal; -1 for the unit ideal."""
    if ideal.ambient.rank != 1:
        raise DimensionMismatch("krull_dim expects an ideal in a rank-1 module")
    return _lead_dimension(ideal)


def _lead_dimension(w):
    """dim F/W read off the leads of a basis of W; -1 if F/W is zero.
    ``w`` is a ``GroebnerBasis`` or ``SubmoduleGens`` of W.

    At each position p the dimension is the largest size of a variable
    subset T such that no lead support at p is contained in T (-1 when a
    lead at p is constant): n - τ, where τ is the least number of
    variables that meet every lead support at p (``_transversal``).  F/W
    takes the largest over positions.  Leads need not be minimal: a
    multiple's support contains its divisor's.
    """
    n = w.ambient.n
    supports = [set() for _ in range(w.ambient.rank)]
    for pos, exp in w.leads:
        supports[pos].add(frozenset(i for i, e in enumerate(exp) if e))
    return max((n - _transversal(frozenset(sups)) for sups in supports
                if frozenset() not in sups), default=-1)


def _transversal(sups):
    """The least size of a variable set meeting every set of ``sups``.

    Some variable of a smallest set is in any such set, so the size is
    1 + the least over that set's variables i of the size for the sets
    that miss i.  A remainder met twice is solved once, and the search
    keeps its own stack, so a deep branch cannot exhaust Python's."""
    sizes = {frozenset(): 0}
    stack = [sups]
    while stack:
        rest = stack[-1]
        if rest in sizes:
            stack.pop()
            continue
        smallest = min(rest, key=lambda s: (len(s), min(s)))
        branches = [frozenset(s for s in rest if i not in s)
                    for i in sorted(smallest)]
        todo = [b for b in branches if b not in sizes]
        if todo:
            stack += todo
        else:
            sizes[rest] = 1 + min(sizes[b] for b in branches)
            stack.pop()
    return sizes[sups]


def minimal_generators(gens):
    """Minimal generating subset: the generators that the untracked run
    of ``gens`` adjoins, greedily by increasing degree (never a zero one).

    Valid for graded modules by Nakayama: a homogeneous generator is
    redundant iff it lies in the span of the others, and processing by
    ascending degree makes the one-sided test sufficient.  The run has
    reduced every pair of degree at most d before it tests a generator of
    degree d, which decides membership in degree d exactly.
    """
    _untracked(gens)
    # a set that is already minimal is its own, with the run built here
    return gens if gens._minimal is None else gens._minimal


def minimal_syzygies(gens):
    """(mg, Syz(mg)) for a minimal generating subset mg of ``gens``: the
    same vectors, in the same order, as ``minimal_generators(gens)``, and
    the same syzygy rows as ``syzygies`` of them.

    The tracked run of the nonzero generators in intake order
    (``_intake``) is built first and kept as the tracked run of those
    generators in that order.  Its rows generate Syz (see ``syzygies``).
    If no row has a constant entry, Syz ⊆ m·F, so no generator lies in
    the span of the others and the set is minimal (graded Nakayama).
    ``minimal_generators`` would then keep every generator, in intake
    order, and this run is the one ``syzygies`` would build on them: no
    untracked run is needed to prove minimality.  Otherwise the set is
    minimized by ``minimal_generators`` and the syzygies of the result
    are taken; a generator that reduces to zero at intake shows this
    before any S-pair is reduced.  An empty set builds no run.
    """
    amb = gens.ambient
    if not gens.vectors:
        return gens, SubmoduleGens(_book(amb, ()), (), check=False)
    eng = _new_engine(amb, track=True)
    keyed, _, order = _intake(eng, gens)
    if _track(eng, [keyed[i] for i in order], minimal=True) is not None:
        mg = (gens if order == list(range(len(gens.vectors))) else
              gens._select(order))
        mg._tracked = eng
        syz = syzygies(mg)
        zero = (0,) * amb.n
        if not any(exp == zero for v in syz.vectors for _, exp in v.terms):
            return mg, syz
    mg = minimal_generators(gens)
    return mg, syzygies(mg)


def submodule_rank(gens):
    """Generic rank, read off the lead-term module positions: F/in(W) is
    the sum of S/I_p over positions, of full dimension exactly where I_p
    is zero, and has the Hilbert polynomial of F/W."""
    return len({pos for pos, _ in gens.leads})


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
    """Product of Laurent numerators {exponent: int}."""
    out = {}
    for i, c in a.items():
        merge_terms(out, {i + j: c * d for j, d in b.items()})
    return out


def monomial_quotient_numerator(gens, n):
    """Numerator N(λ) with Hilb(S/I, λ) = N/(1-λ)^n for a monomial ideal.

    Past one generator in several variables, generators on disjoint
    variables split apart (S/(I+J) ≅ S₁/I ⊗ S₂/J multiplies numerators),
    and a connected set pivots on a variable in the most of them, the
    middle of the tied ones, to cut it (Bigatti, JPAA 119, 1997)."""
    gens = _minimalize_monos([tuple(g) for g in gens])
    if any(sum(g) == 0 for g in gens):
        return {}
    if not gens:
        return {0: 1}
    simple = [g for g in gens if sum(1 for e in g if e) <= 1]
    hard = [g for g in gens if sum(1 for e in g if e) > 1]
    if not hard:
        return reduce(_poly_mul, [{0: 1, sum(g): -1} for g in simple], {0: 1})
    if len(hard) == 1:
        m = hard[0]
        base = monomial_quotient_numerator(simple, n)
        colon = [tuple(max(e - f, 0) for e, f in zip(g, m)) for g in simple]
        rest = monomial_quotient_numerator(colon, n)
        return merge_terms(base, _poly_mul({sum(m): -1}, rest))
    factors = _disjoint_factors(gens)
    if len(factors) > 1:
        return reduce(_poly_mul, [monomial_quotient_numerator(factor, n)
                                  for factor in factors])
    counts = [sum(1 for g in hard if g[i]) for i in range(n)]
    top = max(counts)
    tied = [i for i in range(n) if counts[i] == top]
    p = tuple(int(i == tied[len(tied) // 2]) for i in range(n))
    plus = monomial_quotient_numerator(gens + [p], n)
    colon = [tuple(max(e - f, 0) for e, f in zip(g, p)) for g in gens]
    quot = monomial_quotient_numerator(colon, n)
    return merge_terms(plus, _poly_mul({1: 1}, quot))


def _disjoint_factors(gens):
    """``gens`` in the classes that shared variables join."""
    classes = []  # (variables, generators)
    for g in gens:
        variables, members, apart = {i for i, e in enumerate(g) if e}, [g], []
        for c in classes:
            if c[0] & variables:
                variables |= c[0]
                members += c[1]
            else:
                apart.append(c)
        classes = apart + [(variables, members)]
    return [members for _, members in classes]


def quotient_numerator(w, floor=None):
    """Σ_p λ^{twist_p} · N_p(λ) over positions of the ambient module, for
    F/W; ``w`` is a ``GroebnerBasis`` or ``SubmoduleGens`` of W, whose
    leads need not be minimal.

    ``floor``, for a ``SubmoduleGens`` ``w``, is a numerator known to bound
    HS(F/W) from below.  Any leads that lie in in(W) span a submodule of
    it, so their numerator bounds HS(F/W) from above, and when it equals
    ``floor`` it is the answer (Traverso, "Hilbert functions and the
    Buchberger algorithm", JSC 22, 1996).  Two such lead sets are tried
    before a finished run.  While ``w`` has no untracked run, the first
    is its nonzero generators' own leads, each a term of a vector of W,
    keyed through the ``Vec``'s memo (``_packed``), so a run built after
    a miss keys nothing again; where they meet ``floor``, no run is
    built.  The second is the leads of the untracked run after intake;
    where they meet it, the run's queued S-pairs are not reduced.
    Otherwise the run is finished as without ``floor``.
    """
    if floor is not None:
        amb = w.ambient
        if w._run is None:
            order = _order(amb.n, amb.twists)
            leads = [order.term(-min(keyed)) for keyed, _ in (
                _packed(v, order, amb.field) for v in w.vectors) if keyed]
            num = _leads_numerator(amb, leads)
            if num == floor:
                return num
        num = _leads_numerator(
            amb, [(g.pos, g.exp) for g in _untracked(w).basis])
        if num == floor:
            return num
    return _leads_numerator(w.ambient, w.leads)


def _leads_numerator(amb, leads):
    """``quotient_numerator`` of the submodule of ``amb`` whose lead terms
    are generated by ``leads``, (position, exponent) pairs.  The numerator
    at a position depends only on the set of leads there, so each distinct
    set is evaluated once and shifted by each of its positions' twists."""
    per_pos = [set() for _ in range(amb.rank)]
    for pos, exp in leads:
        per_pos[pos].add(exp)
    nums = {}
    total = {}
    for exps, tw in zip(map(frozenset, per_pos), amb.twists):
        num = nums.get(exps)
        if num is None:
            num = nums[exps] = monomial_quotient_numerator(exps, amb.n)
        merge_terms(total, {j + tw: c for j, c in num.items()})
    return total

