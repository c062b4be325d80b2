"""Reference constructions that only the tests use: each is an oracle for
a value that the package computes another way."""

from bseq.modules import FPModule
from bseq.rings import Polynomial, binomial
from bseq.resolution import HilbertNumerator


def fp_direct_sum(a, b, label=None):
    """Direct sum of presented modules: presentations and relations block in."""
    pres = a.presentation.direct_sum(b.presentation)
    off = a.presentation.rank
    rels = a.relations + [v.offset(off) for v in b.relations]
    return FPModule(pres, rels, label=label)


def dual_pair(v, w):
    """⟨v, w⟩ = Σ_I v_I · w_I for a primal/dual pair of Koszul vectors over
    matching summands."""
    if v.n != w.n or len(v.summands) != len(w.summands):
        raise ValueError("dual_pair: ambient mismatch")
    for a, b in zip(v.summands, w.summands):
        if (a.s, a.shift) != (b.s, b.shift) or a.dual or not b.dual:
            raise ValueError("dual_pair: ambient mismatch")
    acc = Polynomial.zero(v.n, v._field(w))
    for k, p in v.coeffs.items():
        q = w.coeffs.get(k)
        if q is not None:
            acc = acc + p * q
    return acc


def numerator_from_shape(n, t, c, d, a, b):
    """Q(λ) assembled directly from the cone shape with β_i = C(n, t+i)."""
    coeffs = {0: 1}

    def bump(j, v):
        coeffs[j] = coeffs.get(j, 0) + v

    bump(n - 1 + c - d, -n)
    bump(n + c - d, 1)
    for bi in b:
        bump(bi + c, 1)
    for ai in a:
        bump(ai + c, -1)
    sign_t = (-1) ** t
    for i in range(t + 1, n + 1):
        bump(i + c, sign_t * (-1) ** i * binomial(n, i))
    return HilbertNumerator(coeffs, n)
