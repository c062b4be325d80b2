"""Exact scalars, monomials and multivariate polynomials.

Everything is exact.  A coefficient over Q is a plain ``int`` when it is
integral and a ``fractions.Fraction`` only when it is not; over F_p it is
an element of the field.  The field descriptor owns its scalars: it makes
them (``from_int``, ``fraction``, ``one``, ``zero``), inverts them
(``inv``) and says which values are its own (``admits``), so no code
divides by a coefficient itself.  For the Buchberger engine in
``groebner``, ``integral`` clears the denominators of a term dict and
``primitive`` divides out its content (over F_p, its lead): over Q the
engine keeps ints, and Fractions exist only outside it.  Monomials are
exponent tuples over a fixed number of variables, all of degree 1.
Polynomials are immutable sparse maps monomial -> coefficient with no zero
values stored.

The term-dict kernel is the one home of sparse term arithmetic.  A term
dict maps keys to nonzero coefficients; ``merge_terms`` adds one term dict
into another or subtracts it, and ``sub_multiple`` subtracts c·x^shift
times a term dict, keyed either by (position, exponent) or by the additive
integer order keys of ``groebner.ModuleOrder``.  Both work in place and
drop a coefficient the moment it cancels.  ``Polynomial``,
``modules.Vec``, ``modules.ModuleMap`` and the Buchberger engine in
``groebner`` all combine terms through these two.
"""

from fractions import Fraction
from functools import lru_cache
import math
from operator import add, le

__all__ = [
    "Rationals",
    "PrimeField",
    "RATIONALS",
    "binomial",
    "grevlex_key",
    "Polynomial",
    "parse_polynomial",
    "ParseError",
    "DimensionMismatch",
]


class DimensionMismatch(ValueError):
    """Operands live over different variable counts or ambients."""


class ParseError(ValueError):
    """Syntax error in polynomial / vector text, with position info."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class Rationals:
    """Field descriptor for exact rational coefficients.

    An integral value is a plain ``int``; only a value that is not
    integral is a ``Fraction``.  The scalars this descriptor makes keep
    that invariant.
    """

    name = "q"
    characteristic = 0
    one = 1
    zero = 0

    def from_int(self, a):
        return a

    def fraction(self, num, den):
        if num % den == 0:
            return num // den
        return Fraction(num, den)

    def inv(self, c):
        """1/c, an ``int`` when that is integral."""
        if not c:
            raise ZeroDivisionError("inverse of zero")
        return self.fraction(c.denominator, c.numerator)

    def admits(self, c):
        """Whether c is a rational of this field: an int (not a bool) or a
        Fraction."""
        return isinstance(c, (int, Fraction)) and not isinstance(c, bool)

    def integral(self, terms):
        """``terms`` times the least common denominator d of its values, as
        ints, and d."""
        dens = [c.denominator for c in terms.values()
                if c.__class__ is not int]
        if not dens:
            return terms, 1
        d = math.lcm(*dens)
        return {k: c.numerator * (d // c.denominator)
                for k, c in terms.items()}, d

    def primitive(self, lead, tail, cof):
        """The int ``lead`` and term dicts ``tail`` and ``cof`` (or None)
        divided by their content, signed so that the lead is positive."""
        g = lead
        if g not in (1, -1):
            g = math.gcd(lead, *tail.values(), *(cof or {}).values())
            g = g if lead > 0 else -g
        if g == 1:
            return lead, tail, cof
        return lead // g, {k: c // g for k, c in tail.items()}, (
            None if cof is None else {k: c // g for k, c in cof.items()})

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


RATIONALS = Rationals()


@lru_cache(maxsize=None)
def _gfp_class(p):
    class GFElement:
        __slots__ = ("v",)
        modulus = p

        def __init__(self, v):
            self.v = v % p

        def __add__(self, other):
            if isinstance(other, int):
                other = GFElement(other)
            elif not isinstance(other, GFElement):
                return NotImplemented
            return GFElement(self.v + other.v)

        __radd__ = __add__

        def __sub__(self, other):
            if isinstance(other, int):
                other = GFElement(other)
            elif not isinstance(other, GFElement):
                return NotImplemented
            return GFElement(self.v - other.v)

        def __rsub__(self, other):
            if isinstance(other, int):
                return GFElement(other - self.v)
            return NotImplemented

        def __mul__(self, other):
            if isinstance(other, int):
                other = GFElement(other)
            elif not isinstance(other, GFElement):
                return NotImplemented
            return GFElement(self.v * other.v)

        __rmul__ = __mul__

        def __truediv__(self, other):
            if isinstance(other, int):
                other = GFElement(other)
            elif not isinstance(other, GFElement):
                return NotImplemented
            if other.v == 0:
                raise ZeroDivisionError("division by zero in F_%d" % p)
            return GFElement(self.v * pow(other.v, -1, p))

        def __neg__(self):
            return GFElement(-self.v)

        def __eq__(self, other):
            if isinstance(other, GFElement):
                return self.v == other.v
            if isinstance(other, int):
                return self.v == other % p
            return NotImplemented

        def __hash__(self):
            return hash((p, self.v))

        def __bool__(self):
            return self.v != 0

        def __repr__(self):
            return f"GF({p})({self.v})"

        def __str__(self):
            # symmetric representative keeps printed polynomials short
            return str(self.v)

    GFElement.__name__ = f"GF{p}"
    return GFElement


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


class PrimeField:
    """Field descriptor for F_p, p an odd-or-even prime below 2^31."""

    characteristic_bound = 2**31

    def __init__(self, p):
        if p >= self.characteristic_bound or not _is_prime(p):
            raise ValueError(f"not a prime below 2^31: {p}")
        self.p = p
        self.name = f"p:{p}"
        self.characteristic = p
        self._cls = _gfp_class(p)

    def from_int(self, a):
        return self._cls(a)

    def fraction(self, num, den):
        return self._cls(num) * self.inv(self._cls(den))

    def inv(self, c):
        if not c:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return self._cls(pow(c.v, -1, self.p))

    def admits(self, c):
        """Whether c is an element of this field (not an int)."""
        return isinstance(c, self._cls)

    def integral(self, terms):
        """``terms`` and 1: every element of F_p is integral."""
        return terms, 1

    def primitive(self, lead, tail, cof):
        """1 and the term dicts ``tail`` and ``cof`` (or None) divided by
        ``lead``."""
        if lead == 1:
            return 1, tail, cof
        inv = self.inv(lead)
        return 1, {k: c * inv for k, c in tail.items()}, (
            None if cof is None else {k: c * inv for k, c in cof.items()})

    @property
    def one(self):
        return self._cls(1)

    @property
    def zero(self):
        return self._cls(0)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def field_from_name(name):
    """Resolve the CLI field spec: "q" or "p:PRIME"."""
    if name == "q":
        return RATIONALS
    if name.startswith("p:"):
        return PrimeField(int(name[2:]))
    raise ValueError(f"unknown field spec {name!r}")


# ---------------------------------------------------------------------------
# integer combinatorics
# ---------------------------------------------------------------------------

def binomial(n, k):
    """Binomial coefficient for arbitrary integer arguments.

    Zero when k < 0 or when 0 <= n < k; for n < 0 the binomial-series
    convention (-1)^k * C(k-n-1, k) applies.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


# ---------------------------------------------------------------------------
# monomials and orders
# ---------------------------------------------------------------------------
# A monomial over n variables is an exponent tuple of length n.

def mono_mul(u, v):
    return tuple(map(add, u, v))


def mono_divides(u, v):
    """Whether u | v componentwise."""
    return all(map(le, u, v))


def mono_lcm(u, v):
    return tuple(map(max, u, v))


def grevlex_key(u):
    # Larger key <=> larger monomial.  Ties in total degree are broken by
    # the reversed negated exponent vector (smallest last exponent wins).
    return (sum(u), tuple(-e for e in reversed(u)))


# ---------------------------------------------------------------------------
# the term-dict kernel
# ---------------------------------------------------------------------------

def merge_terms(acc, terms, subtract=False):
    """acc += terms (acc -= terms if ``subtract``) in place; returns acc."""
    for k, c in terms.items():
        if subtract:
            c = -c
        s = acc.get(k)
        if s is None:
            acc[k] = c
        else:
            s = s + c
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def sub_multiple(acc, terms, shift, c, new=None):
    """acc -= c·x^shift·terms in place.

    Keys are (position, exponent) pairs, shifted by an exponent tuple, or
    additive integer order keys, shifted by the integer key offset of x^shift.
    Keys that enter ``acc`` are appended to ``new`` when it is given.
    """
    packed = isinstance(shift, int)
    for k, c2 in terms.items():
        if packed:
            k += shift
        else:
            k = (k[0], tuple(map(add, k[1], shift)))
        d = c * c2
        s = acc.get(k)
        if s is None:
            acc[k] = -d
            if new is not None:
                new.append(k)
        else:
            s = s - d
            if s:
                acc[k] = s
            else:
                del acc[k]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable multivariate polynomial with exact coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  The number of
    variables ``n`` is fixed at construction; the homogeneous degree is
    cached when all monomials share one.
    """

    __slots__ = ("n", "terms", "_homdeg")

    def __init__(self, n, terms):
        self.n = n
        cleaned = {}
        for exp, c in terms.items():
            if c:
                if len(exp) != n:
                    raise DimensionMismatch(
                        f"exponent tuple {exp} does not match n={n}")
                cleaned[exp] = c
        self.terms = cleaned
        degs = {sum(e) for e in cleaned}
        self._homdeg = degs.pop() if len(degs) == 1 else None

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i, field=RATIONALS):
        """The variable x_i (1-based)."""
        exp = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {exp: field.one})

    @classmethod
    def monomial(cls, n, exp, coeff):
        return cls(n, {tuple(exp): coeff})

    # -- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """Shared degree of all terms, or None (zero poly gives None)."""
        return self._homdeg

    def is_homogeneous(self):
        return not self.terms or self._homdeg is not None

    # -- arithmetic ---------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(self.n, merge_terms(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(
            self.n, merge_terms(dict(self.terms), other.terms, subtract=True))

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            merge_terms(terms, {mono_mul(e1, e2): c1 * c2
                                for e2, c2 in other.terms.items()})
        return Polynomial(self.n, terms)

    def scale(self, c):
        if not c:
            return Polynomial.zero(self.n)
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- printing -----------------------------------------------------
    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.n}, {format_polynomial(self)!r})"


def format_polynomial(p):
    """Render in the bit-exact grammar; terms in descending grevlex order."""
    if p.is_zero():
        return "0"
    chunks = []
    for exp, c in p.sorted_terms():
        factors = [
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(exp) if e
        ]
        cs = str(c)  # a prime-field element prints its residue in [0, p)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def error(self, msg):
        raise ParseError(msg, self.text, self.pos)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return int(self.text[start:self.pos])


def _parse_factor(sc, n):
    """var ['^' posint] -> (var index 0-based, exponent)."""
    if not sc.take("x"):
        sc.error("expected variable")
    i = sc.integer()
    if not 1 <= i <= n:
        sc.error(f"variable x{i} out of range 1..{n}")
    e = 1
    if sc.take("^"):
        e = sc.integer()
        if e < 1:
            sc.error("exponent must be positive")
    return i - 1, e


def _parse_term(sc, n, field):
    """[rational '*'] factor ('*' factor)* | rational  -> (exp, coeff)."""
    coeff = field.one
    exp = [0] * n
    ch = sc.peek()
    if ch.isdigit():
        num = sc.integer()
        den = 1
        if sc.take("/"):
            den = sc.integer()
        try:
            coeff = field.fraction(num, den)
        except ZeroDivisionError:  # 0, or a multiple of p over F_p
            sc.error("zero denominator")
        if not sc.take("*"):
            return tuple(exp), coeff  # bare constant
    i, e = _parse_factor(sc, n)
    exp[i] += e
    while sc.take("*"):
        i, e = _parse_factor(sc, n)
        exp[i] += e
    return tuple(exp), coeff


def parse_polynomial(text, n, field=RATIONALS):
    """Parse the polynomial grammar over x1..xn; "0" is the zero polynomial."""
    sc = _Scanner(text)
    if sc.peek() == "":
        sc.error("empty input")
    terms = {}
    first = True
    while True:
        sign = 1
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        elif not first:
            break
        if first and sign == 1 and sc.peek() == "0":
            mark = sc.pos
            sc.pos += 1
            if sc.peek() == "":
                return Polynomial.zero(n)
            sc.pos = mark  # "0" was a leading coefficient digit after all
        exp, coeff = _parse_term(sc, n, field)
        merge_terms(terms, {exp: coeff}, subtract=sign < 0)
        first = False
        if sc.peek() == "":
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return Polynomial(n, terms)
