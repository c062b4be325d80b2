"""Reference constructions that only the tests use: each is an oracle for
a value that the package computes another way."""

from collections import Counter

from bseq import groebner
from bseq.koszul import E, koszul_differential
from bseq.modules import FPModule, compose
from bseq.rings import Polynomial, binomial, merge_terms
from bseq.resolution import HilbertNumerator


def is_complex(cc):
    """d ∘ d = 0 at every composable pair of the chain complex ``cc``."""
    return all(compose(d, e).is_zero() for d, e in zip(cc.maps, cc.maps[1:]))


def polys(v, rank):
    """The ``rank`` coordinates of the vector ``v`` as ``Polynomial``s."""
    return [v.component(i) for i in range(rank)]


def dense_rows(m):
    """The dense target-rank x source-rank matrix of ``Polynomial`` entries
    of the map ``m``, built from its columns entry by entry."""
    cols = [polys(v, m.target.rank) for v in m.cols]
    return tuple(zip(*cols)) if cols else ((),) * m.target.rank


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


def hilbert_function(w, window, submodule=False):
    """Hilbert function on degrees 0..window of F/W, or of W itself with
    ``submodule``, read off the lead-term numerator of F/W; ``w`` is a
    ``GroebnerBasis`` or ``SubmoduleGens`` of W in F."""
    num = groebner.quotient_numerator(w)
    if submodule:
        num = merge_terms(dict(Counter(w.ambient.twists)), num,
                          subtract=True)
    return HilbertNumerator(num, w.ambient.n).series(window)


def selfduality_check(n, i, window=None):
    """E_i and Im(∂*_{n-i+1}) agree as graded modules, Hilbert-level.

    Both live in ambients with twists i-1 under duality against S(-n), so
    the comparison needs no extra twist.  Checks graded Hilbert functions in
    degrees up to 2n (by default) and minimal generator counts.
    """
    if not 1 <= i <= n:
        raise ValueError(f"i out of range: {i}")
    if window is None:
        window = 2 * n
    primal = E(n, i).gens
    dual_diff = koszul_differential(n, n - i + 1).dual()
    dual_im = groebner.SubmoduleGens(dual_diff.target, dual_diff.columns(),
                                     check=False)
    if (hilbert_function(primal, window, submodule=True)
            != hilbert_function(dual_im, window, submodule=True)):
        return False
    b0_primal = len(groebner.minimal_generators(primal).vectors)
    b0_dual = len(groebner.minimal_generators(dual_im).vectors)
    return b0_primal == b0_dual
