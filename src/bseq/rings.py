"""Exact scalars, monomials and multivariate polynomials.

Everything is exact.  A coefficient over Q is a plain ``int`` when it is
integral and a ``fractions.Fraction`` only when it is not; over F_p it is
a plain ``int`` in [0, p).  A scalar does not know its field: each
container (``Polynomial``, ``modules.Vec``, ``koszul.KoszulVector``)
states the field it is over, and a free module states its own.  The field
descriptor owns its scalars: it makes them (``from_int``, ``fraction``,
``one``, ``zero``), inverts them (``inv``) and says which values are its
own (``admits``), so no code divides by a coefficient itself.  For the
Buchberger engine in ``groebner``, ``integral`` clears the denominators of
a term dict and ``primitive`` divides out its content (over F_p, its
lead): over Q the engine keeps ints, and Fractions exist only outside it.
Monomials are exponent tuples over a fixed number of variables, all of
degree 1.  Polynomials are immutable sparse maps monomial -> coefficient
with no zero values stored.

The term-dict kernel is the one home of sparse term arithmetic.  A term
dict maps keys to nonzero coefficients; ``merge_terms`` adds one term dict
into another or subtracts it, and ``sub_multiple`` subtracts c·x^shift
times a term dict, keyed either by (position, exponent) or by the additive
integer order keys of ``groebner.ModuleOrder``.  Both work in place, take
the modulus p of the field (its characteristic: 0 over Q, where they are
exact) and drop a coefficient the moment it cancels.  ``Polynomial``,
``modules.Vec``, ``modules.ModuleMap`` and the Buchberger engine in
``groebner`` all combine terms through these two; the integer Laurent
numerators of Hilbert series use them with p = 0 over every field.
"""

from fractions import Fraction
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


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


class PrimeField:
    """Field descriptor for F_p, p a prime below 2^31.  Its scalars are the
    plain ints in [0, p)."""

    characteristic_bound = 2**31
    one = 1
    zero = 0

    def __init__(self, p):
        if p >= self.characteristic_bound or not _is_prime(p):
            raise ValueError(f"not a prime below 2^31: {p}")
        self.p = p
        self.name = f"p:{p}"
        self.characteristic = p

    def from_int(self, a):
        return a % self.p

    def fraction(self, num, den):
        return num * self.inv(den) % self.p

    def inv(self, c):
        if not c % self.p:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(c, -1, self.p)

    def rational(self, c):
        """The element that the rational ``c`` (an int or a Fraction) maps
        to; ``DimensionMismatch`` if p divides its denominator."""
        if not c.denominator % self.p:
            raise DimensionMismatch(
                f"{c} has no value in F_{self.p}: {self.p} divides its "
                f"denominator")
        return self.fraction(c.numerator, c.denominator)

    def admits(self, c):
        """Whether c is an element of this field: an int (not a bool) in
        [0, p)."""
        return type(c) is int and 0 <= c < self.p

    def integral(self, terms):
        """``terms`` and 1: every element of F_p is integral."""
        return terms, 1

    def primitive(self, lead, tail, cof):
        """1 and the term dicts ``tail`` and ``cof`` (or None) divided by
        ``lead``."""
        if lead == 1:
            return 1, tail, cof
        p = self.p
        inv = pow(lead, -1, p)
        return 1, {k: c * inv % p for k, c in tail.items()}, (
            None if cof is None else {k: c * inv % p for k, c in cof.items()})

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def field_from_name(name):
    """Resolve the CLI field spec: "q" or "p:PRIME", PRIME in decimal
    digits."""
    if name == "q":
        return RATIONALS
    digits = name[2:]
    if name.startswith("p:") and digits.isascii() and digits.isdigit():
        return PrimeField(int(digits))
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

def merge_terms(acc, terms, subtract=False, p=0):
    """acc += terms (acc -= terms if ``subtract``) in place, modulo p when
    p is nonzero and exactly when it is 0; returns acc."""
    for k, c in terms.items():
        if subtract:
            c = -c
        s = acc.get(k)
        if s is not None:
            c = s + c
        if p:
            c %= p
        if c:
            acc[k] = c
        elif s is not None:
            del acc[k]
    return acc


def sub_multiple(acc, terms, shift, c, new=None, p=0):
    """acc -= c·x^shift·terms in place, modulo p when p is nonzero (c is
    then an int that p does not divide) and exactly when it is 0.

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
            acc[k] = -d % p if p else -d
            if new is not None:
                new.append(k)
        else:
            d = (s - d) % p if p else s - d
            if d:
                acc[k] = d
            else:
                del acc[k]


def maps_into(x, field):
    """Whether the coefficients of x (a ``Polynomial`` or ``modules.Vec``)
    are values of ``field``: x is over it, or x is over Q with int
    coefficients, which map into F_p as the integers do."""
    return x.field == field or (x.field == RATIONALS and all(
        type(c) is int for c in x.terms.values()))


def common_field(a, b):
    """The field of a result of the operands a and b (each a
    ``Polynomial`` or a ``modules.Vec``): the field that both map into
    (``maps_into``); otherwise ``DimensionMismatch``."""
    if a.field is b.field or maps_into(b, a.field):
        return a.field
    if maps_into(a, b.field):
        return b.field
    raise DimensionMismatch(
        f"coefficient fields differ: {a.field!r} vs {b.field!r}")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable multivariate polynomial with exact coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients of ``field``
    (default Q), which the constructor takes into it (over F_p, an int is
    reduced into [0, p) and a Fraction mapped by ``PrimeField.rational``).
    The number of variables ``n`` is fixed at construction; the
    homogeneous degree is cached when all monomials share one.
    Arithmetic is over the operands' ``common_field``.
    """

    __slots__ = ("n", "terms", "field", "_homdeg")

    def __init__(self, n, terms, field=RATIONALS):
        self.n = n
        self.field = field
        p = field.characteristic
        cleaned = {}
        for exp, c in terms.items():
            if p:
                c = c % p if c.__class__ is int else field.rational(c)
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
    def zero(cls, n, field=RATIONALS):
        return cls(n, {}, field)

    @classmethod
    def constant(cls, n, c, field=RATIONALS):
        return cls(n, {(0,) * n: c}, field)

    @classmethod
    def variable(cls, n, i, field=RATIONALS):
        """The variable x_i (1-based)."""
        exp = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {exp: field.one}, field)

    @classmethod
    def monomial(cls, n, exp, coeff, field=RATIONALS):
        return cls(n, {tuple(exp): coeff}, field)

    # -- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def homogeneous_degree(self):
        """Shared degree of all terms, or None (zero poly gives None)."""
        return self._homdeg

    def is_homogeneous(self):
        return not self.terms or self._homdeg is not None

    # -- arithmetic ---------------------------------------------------
    def _field(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                f"variable counts differ: {self.n} vs {other.n}")
        return common_field(self, other)

    def __add__(self, other, subtract=False):
        if not isinstance(other, Polynomial):
            return NotImplemented
        field = self._field(other)
        return Polynomial(self.n, merge_terms(
            dict(self.terms), other.terms, subtract, field.characteristic),
            field)

    def __sub__(self, other):
        return self.__add__(other, subtract=True)

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()},
                          self.field)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        field = self._field(other)
        p = field.characteristic
        terms = {}
        for e1, c1 in self.terms.items():
            merge_terms(terms, {mono_mul(e1, e2): c1 * c2
                                for e2, c2 in other.terms.items()}, p=p)
        return Polynomial(self.n, terms, field)

    def scale(self, c):
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()},
                          self.field)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.n == other.n and self.terms == other.terms
                and self.field == other.field)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    # -- printing -----------------------------------------------------
    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.n}, {format_polynomial(self)!r})"


def format_polynomial(p):
    """Render in the bit-exact grammar; terms in descending grevlex order."""
    return format_terms(p.terms)


def format_terms(terms):
    """``format_polynomial`` of the polynomial whose terms are ``terms``,
    {exponent tuple: nonzero coefficient}; "0" for none."""
    if len(terms) == 1:  # most map entries: nothing to sort or join
        (exp, c), = terms.items()
        neg, body = signed_term(c, monomial_factors(exp))
        return "-" + body if neg else body
    return join_signed(signed_term(terms[exp], monomial_factors(exp))
                       for exp in sorted(terms, key=grevlex_key,
                                         reverse=True))


def monomial_factors(exp):
    """The factors x_i^e (x_i when e = 1) of the monomial ``exp``."""
    return [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(exp) if e]


def signed_term(c, factors):
    """(negative, body) of the term c times the ``factors`` strings: the
    body is |c| and the factors joined by '*', |c| left out when it is 1
    and a factor is left."""
    cs = str(c)  # over F_p, the residue in [0, p) that c is
    neg = cs.startswith("-")
    if neg:
        cs = cs[1:]
    if not factors:
        return neg, cs
    if cs == "1":
        return neg, "*".join(factors)
    return neg, cs + "*" + "*".join(factors)


def join_signed(terms):
    """The signed sum of (negative, body) terms: '-' before a negative
    first term, '- ' or '+ ' before each later one; "0" for no terms."""
    chunks = []
    for neg, body in terms:
        if chunks:
            chunks.append(("- " if neg else "+ ") + body)
        else:
            chunks.append(("-" if neg else "") + body)
    return " ".join(chunks) if chunks else "0"


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
    p = field.characteristic
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
                return Polynomial.zero(n, field)
            sc.pos = mark  # "0" was a leading coefficient digit after all
        exp, coeff = _parse_term(sc, n, field)
        merge_terms(terms, {exp: coeff}, subtract=sign < 0, p=p)
        first = False
        if sc.peek() == "":
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return Polynomial(n, terms, field)
