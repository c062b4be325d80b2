"""Reference constructions that only the tests use: each is an oracle for
a value that the package computes another way."""

from collections import Counter

from bseq import groebner
from bseq.bourbaki import (BSequenceProblem, ConditionReport, InvalidProblem,
                           Presentation, _ideal)
from bseq.koszul import E, koszul_differential
from bseq.modules import FPModule, GradedFreeModule, ModuleMap, compose
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


def condition_b_by_intersection(p):
    """Condition (b) as ``bourbaki.verify_condition_b`` decided it before
    its containments in Im f: through Ker(beta∘f), its image under f and
    the intersection module beta(Ker(eps∘beta)).  The same report, built
    anew on every call: the problem's cache neither serves nor keeps it.
    """
    if not groebner.injective(p.f, image=p.im_f()):
        raise InvalidProblem("f is not injective")
    im_bf = p.im_bf()
    # Ker(beta∘f) first: its tracked run, on Im(beta∘f)'s generators, then
    # gives the basis that the containment in Im(beta∘f) below reads
    ker_bf = groebner.kernel(p.beta_f(), image=im_bf)
    # <beta> ∩ Ker eps = beta(Ker(eps∘beta)).  Each h in Ker(eps∘beta) came
    # with a syzygy beta·h + Σ k_j r_j = 0 over the relations r_j of Ker eps,
    # checked term by term by the syzygy engine, so beta·h ∈ Ker eps needs
    # no normal form of its own.
    inter = groebner.SubmoduleGens(
        p.U, [p.beta_map.apply(h) for h in p.ker_g().vectors], check=False)
    # Im(beta∘f) ⊆ <beta> by construction, so ⊆ <beta> ∩ Ker eps is ⊆ Ker eps
    surj = (groebner.contains(p.kere, im_bf)
            and groebner.contains(im_bf, inter))
    witness = None
    if not surj:
        witness = "Im(beta∘f) differs from <beta> ∩ Ker eps"
    f_ker = groebner.SubmoduleGens(
        p.G, [p.f.apply(v) for v in ker_bf.vectors], check=False)
    ker_b = groebner.kernel(p.beta_map)
    # f(Ker beta∘f) ⊆ Ker beta, since beta(f(v)) = (beta∘f)(v) = 0
    iso = groebner.contains(f_ker, ker_b)
    if not iso and witness is None:
        witness = "f(Ker beta∘f) differs from Ker beta"
    return ConditionReport(
        "b", surj and iso, witness,
        {"intersection_gens": len(groebner.minimal_generators(inter).vectors),
         "ker_beta_gens": len(ker_b.vectors)})


def synthesize_by_kernels(n, t, shape, phi, d=0):
    """``bourbaki.synthesize_from_phi`` as it was before its Hilbert
    numerator rejections: every phi that kills Ker eps builds the minimal
    generators of Ker phi, and every one with a beta builds Ker(eps∘beta),
    its minimal generators and the injectivity test on them."""
    field = phi.source.field
    pres = Presentation(n, t, d, shape, field)
    U, kere = pres.U, pres.image(1)
    # Ker phi ⊆ <beta> + Ker eps by construction (beta are the minimal
    # generators of Ker phi outside Ker eps); the reverse is phi(Ker eps) = 0
    if any(not phi.apply(k).is_zero() for k in kere.vectors):
        return None
    kere_gb = groebner.groebner(kere)
    im_phi = _ideal(phi)
    kphi = groebner.kernel(phi, image=im_phi)
    mg = groebner.minimal_generators(kphi)
    betas = [v for v in mg.vectors
             if not groebner.member(v, kere_gb)]
    if not betas:
        return None
    span = groebner.SubmoduleGens(U, betas, check=False)
    degs = [b.homogeneous_degree(U) for b in betas]
    G = GradedFreeModule(n, degs, field=field)
    beta_map = ModuleMap.from_columns(G, U, betas)
    beta_kere = groebner.submodule_sum(span, kere)
    ker_g = groebner.kernel(beta_map, target_relations=kere,
                            image=beta_kere)
    fg = groebner.minimal_generators(ker_g)
    fdegs = [v.homogeneous_degree(G) for v in fg.vectors]
    F = GradedFreeModule(n, fdegs, field=field)
    f = ModuleMap.from_columns(F, G, fg.vectors)
    if not groebner.injective(f, image=fg):  # fg's vectors are f's columns
        return None  # Ker g is not free at this size
    prov = {"synthetic": True, "beta_minimal_count": len(betas),
            "beta_redundant": False}
    p = BSequenceProblem(n, t, shape, betas, phi, f, d=d, provenance=prov,
                         presentation=pres)
    # the problem's kernels and images are the ones built here
    p._cache.update(ker_phi=kphi, ker_g=ker_g, im_phi=im_phi, im_f=fg,
                    beta_span=span, beta_kere=beta_kere)
    return p
