"""Verification and assembly of long Bourbaki sequences from b-sequences.

A problem bundles its ``Presentation`` U ↠ M (U = K_{t+1}, possibly plus
a shifted top K_{n-1}(d); Ker eps is the first image of the Koszul tail
that resolves M), a family of vectors beta_i in U outside Ker eps, a
functional phi : U -> S(-n), and a candidate monomorphism f : F -> G with
rank G = #beta.  Each equality of submodules in the conditions and the
audit is decided one inclusion at a time: X ⊆ Ker g is g(X) = 0, an
inclusion true by construction is skipped, and only an inclusion into a
submodule given by generators needs a Gröbner basis (of that submodule).
A successful pair assembles into the audited exact sequence
0 -> F -> G -> M -> I(c) -> 0, I = Im phi, and a mapping cone over the
Koszul tails resolves S/I.
"""

import functools
import json
import os
from collections import Counter

from .rings import (
    RATIONALS,
    binomial,
    format_polynomial,
    format_terms,
    merge_terms,
    parse_polynomial,
)
from .modules import (
    ChainComplex,
    GradedFreeModule,
    ModuleMap,
    Vec,
    compose,
    homogeneity_check,
)
from . import groebner, koszul, resolution

__all__ = [
    "InvalidProblem",
    "AssemblyError",
    "Presentation",
    "BSequenceProblem",
    "BourbakiSequence",
    "NonTrivialityReport",
    "problem_from_manifest",
    "problem_to_manifest",
    "load_map_json",
    "map_to_json",
    "verify_condition_a",
    "verify_condition_b",
    "rank_conditions",
    "nontriviality",
    "assemble",
    "cone_resolution",
    "synthesize_from_phi",
    "ideal_generators_sorted",
]


SHAPES = ("E_only", "E_plus_top")


class InvalidProblem(ValueError):
    """The problem data violates a precondition of the verification."""


class AssemblyError(RuntimeError):
    """An exactness audit failed during sequence assembly."""


class Presentation:
    """The presentation U ↠ M of a problem, and the Koszul tail over it.

    U = K_{t+1} (⊕ K_{n-1}(d) for the top shape): ``summands`` spell a
    shape out, here only, and ``dual_summands`` are their duals.  The
    Koszul tail (``koszul.koszul_tail``) resolves M (⊕ N) from B_0 = U
    upward.  ``image(i)`` generates Im d_i, and Ker eps is ``image(1)``
    (empty when K_{t+2} = 0 and there is no top summand).  d_1 is built
    with U, any other differential and each image once, on first use.  An
    image keeps one Gröbner run, its tracked run (``track_only``): the
    cone lifts over Ker eps, and the reduced basis that the conditions and
    the assembly reduce against is read off the same run.  So a
    presentation belongs to one problem.
    """

    __slots__ = ("n", "t", "shape", "field", "summands", "U", "_maps",
                 "_images")

    def __init__(self, n, t, d, shape, field):
        if shape not in SHAPES:
            raise InvalidProblem(f"unknown shape {shape!r}")
        if not 0 <= t <= n - 1:
            raise InvalidProblem(f"t out of range: {t}")
        self.n, self.t, self.shape, self.field = n, t, shape, field
        self.summands = (koszul.Summand(t + 1),)
        if shape == "E_plus_top":
            self.summands += (koszul.Summand(n - 1, d),)
        self._maps = {}
        self._images = {}
        self.U = self.differential(1).target

    @property
    def dual_summands(self):
        return tuple(sm._replace(dual=True) for sm in self.summands)

    def differential(self, i):
        """d_i : B_i -> B_{i-1} of the Koszul tail."""
        if i not in self._maps:
            self._maps[i] = koszul.tail_differential(self.n, self.summands,
                                                     i, self.field)
        return self._maps[i]

    def tail(self):
        """The minimal resolution of M (⊕ N) by Koszul tails, B_0 = U."""
        return koszul.koszul_tail(self.n, self.summands, self.field,
                                  self.differential)

    def image(self, i):
        """Generators of Im d_i inside B_{i-1}: d_i's columns, in order."""
        if i not in self._images:
            d = self.differential(i)
            self._images[i] = groebner.SubmoduleGens(
                d.target, d.columns(), check=False, track_only=True)
        return self._images[i]


class BSequenceProblem:
    """Candidate b-sequence data (beta_1..beta_q, phi, f) over U ↠ M.

    The problem owns its ``Presentation`` ``pres`` (built here unless the
    caller hands one over), whose U and Ker eps = ``pres.image(1)`` it
    reads as ``U`` and ``kere``.  It owns what its conditions and
    assembly test, each built once in ``_cache``: Ker phi, Ker(eps∘beta),
    <beta> + Ker eps, Im f, Im phi, and Im(beta∘f), which is only ever
    tested for membership in Ker eps.  Their Gröbner runs serve every
    kernel, containment and injectivity test on them.  beta∘f is built
    as a map, for Im(beta∘f) and the cone's lifts; no problem builds
    Ker(beta∘f) or <beta> ∩ Ker eps."""

    __slots__ = ("n", "t", "d", "c", "shape", "field", "pres", "U", "kere",
                 "phi", "f", "G", "F", "betas", "beta_map", "provenance",
                 "_cache")

    def __init__(self, n, t, shape, betas, phi, f, d=0, c=None,
                 provenance=None, presentation=None):
        self.n, self.t, self.d, self.shape = n, t, d, shape
        self.field = field = phi.source.field
        self.pres = pres = (presentation if presentation is not None
                            else Presentation(n, t, d, shape, field))
        self.U = U = pres.U
        self.kere = pres.image(1)
        self.betas = list(betas)
        if any(not b.is_homogeneous(U) for b in self.betas):
            raise InvalidProblem("inhomogeneous beta")
        self.phi = phi
        if phi.source != U or phi.target.rank != 1:
            raise InvalidProblem("phi must be a functional on U")
        if phi.is_zero():
            # c is read off phi's degree shift, which a zero map lacks
            raise InvalidProblem("phi is zero: c cannot be inferred")
        ok, viol = homogeneity_check(phi)
        if not ok:
            raise InvalidProblem(f"phi not homogeneous: {viol}")
        inferred_c = phi.shift - n
        if c is not None and c != inferred_c:
            raise InvalidProblem(
                f"declared c={c} conflicts with phi degree shift {phi.shift}"
                f" = n + {inferred_c}")
        self.c = inferred_c
        self.f = f
        self.G = f.target
        self.F = f.source
        if self.G.rank != len(self.betas):
            raise InvalidProblem(
                f"|beta| = {len(self.betas)} must equal rank G = {self.G.rank}")
        degs = [b.homogeneous_degree(U) for b in self.betas]
        if list(self.G.twists) != degs:
            raise InvalidProblem(
                f"twists of G {list(self.G.twists)} must match beta degrees {degs}")
        ok, viol = homogeneity_check(f)
        if not ok:
            raise InvalidProblem(f"f not homogeneous: {viol}")
        self.beta_map = ModuleMap.from_columns(self.G, U, self.betas)
        self.provenance = provenance or {}
        self._cache = {}

    # cached heavy subobjects ------------------------------------------
    def _cached(self, name, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]

    def ker_phi(self):
        return self._cached("ker_phi", lambda: groebner.kernel(
            self.phi, image=self.im_phi()))

    def ker_g(self):
        """Ker(eps∘beta): the kernel of beta into U / Ker eps."""
        return self._cached("ker_g", lambda: groebner.kernel(
            self.beta_map, target_relations=self.kere,
            image=self.beta_kere()))

    def beta_span(self):
        return self._cached("beta_span", lambda: groebner.SubmoduleGens(
            self.U, self.betas, check=False))

    def beta_kere(self):
        """<beta> + Ker eps, the right side of condition (a)."""
        return self._cached("beta_kere", lambda: groebner.submodule_sum(
            self.beta_span(), self.kere))

    def beta_f(self):
        return self._cached("beta_f", lambda: compose(self.beta_map, self.f))

    def im_f(self):
        return self._cached("im_f", lambda: _image(self.f))

    def im_bf(self):
        return self._cached("im_bf", lambda: _image(self.beta_f()))

    def im_phi(self):
        """Im phi as the ideal of S that phi's columns generate."""
        return self._cached("im_phi", lambda: _ideal(self.phi))

    def __repr__(self):
        return (f"BSequenceProblem(n={self.n}, t={self.t}, shape={self.shape}, "
                f"q={len(self.betas)})")


def _image(f):
    return groebner.SubmoduleGens(f.target, f.columns(), check=False)


def _ideal(phi):
    """The ideal of S generated by the functional phi's columns: Im phi,
    untwisted, which orders its terms as S(-n) does."""
    S = GradedFreeModule(phi.source.n, [0], field=phi.source.field)
    return groebner.SubmoduleGens(S, phi.columns(), check=False)


# ---------------------------------------------------------------------------
# the two b-sequence conditions
# ---------------------------------------------------------------------------

class ConditionReport:
    """A verdict, its witness on failure, and ``details`` for verbose and
    JSON output.  A detail given as a function is computed when
    ``details`` is first read; it holds what it counts, never the problem,
    whose cache keeps the report."""

    __slots__ = ("name", "ok", "witness", "_details")

    def __init__(self, name, ok, witness=None, details=None):
        self.name = name
        self.ok = ok
        self.witness = witness
        self._details = details or {}

    @property
    def details(self):
        if any(map(callable, self._details.values())):
            self._details = {k: v() if callable(v) else v
                             for k, v in self._details.items()}
        return self._details

    def to_dict(self):
        return {"condition": self.name, "holds": self.ok,
                "witness": self.witness, **self.details}

    def __repr__(self):
        return f"ConditionReport({self.name}, ok={self.ok})"


def verify_condition_a(p):
    """Ker(phi) = <beta_1..beta_q> + Ker eps, with a witness on failure.

    Only the right side gets a Gröbner basis: the reverse inclusion is
    phi(v) = 0 for each of its generators v.
    """
    kere_gb = groebner.groebner(p.kere)
    for i, b in enumerate(p.betas):
        if groebner.member(b, kere_gb):
            raise InvalidProblem(
                f"beta_{i + 1} lies in Ker eps; the family must avoid it")
    if "cond_a" in p._cache:
        return p._cache["cond_a"]
    ker_phi = p.ker_phi()
    rhs = p.beta_kere()
    # the tracked run of Ker(eps∘beta), which (b) reads, also gives rhs_gb
    p.ker_g()
    rhs_gb = groebner.groebner(rhs)
    witness = None
    for v in ker_phi.vectors:
        if not groebner.member(v, rhs_gb):
            witness = f"kernel generator not in <beta> + Ker eps: {v}"
            break
    if witness is None:
        # <beta> + Ker eps ⊆ Ker phi iff phi kills each of its generators
        for v in rhs.vectors:
            if not p.phi.apply(v).is_zero():
                witness = f"<beta> + Ker eps exceeds Ker phi at: {v}"
                break
    rep = ConditionReport(
        "a", witness is None, witness,
        {"ker_phi_gens": len(ker_phi.vectors),
         "rhs_gens": len(rhs.vectors)})
    p._cache["cond_a"] = rep
    return rep


def verify_condition_b(p):
    """The commutative-diagram condition for f against beta and Ker eps.

    Checks (1) Im(beta∘f) = <beta> ∩ Ker eps and (2) f carries Ker(beta∘f)
    onto Ker beta; together with injectivity of f this is the exactness of
    the top row.  Both are containments in Im f, by two identities:
    f(Ker beta∘f) = Ker beta ∩ Im f, so (2) is Ker beta ⊆ Im f; and
    <beta> ∩ Ker eps = beta(Ker g), g = eps∘beta, with Im(beta∘f) =
    beta(Im f), so (1) is Im(beta∘f) ⊆ Ker eps and Ker g ⊆ Im f + Ker
    beta, which is Im f once (2) holds.  No Ker(beta∘f) or intersection
    module is built; the intersection's count is made when it is read.
    """
    if "cond_b" in p._cache:
        return p._cache["cond_b"]
    im_f = p.im_f()
    if not groebner.injective(p.f, image=im_f):
        raise InvalidProblem("f is not injective")
    ker_b = groebner.kernel(p.beta_map)
    iso = groebner.contains(im_f, ker_b)
    surj = (groebner.contains(p.kere, p.im_bf())
            and groebner.contains(
                im_f if iso else groebner.submodule_sum(im_f, ker_b),
                p.ker_g()))
    witness = None
    if not surj:
        witness = "Im(beta∘f) differs from <beta> ∩ Ker eps"
    elif not iso:
        witness = "f(Ker beta∘f) differs from Ker beta"
    rep = ConditionReport(
        "b", surj and iso, witness,
        {"intersection_gens": functools.partial(
            _intersection_gens, p.U, p.beta_map, p.ker_g()),
         "ker_beta_gens": len(ker_b.vectors)})
    p._cache["cond_b"] = rep
    return rep


def _intersection_gens(U, beta_map, ker_g):
    """The minimal generator count of <beta> ∩ Ker eps = beta(Ker g)."""
    inter = groebner.SubmoduleGens(
        U, [beta_map.apply(h) for h in ker_g.vectors], check=False)
    return len(groebner.minimal_generators(inter).vectors)


def rank_conditions(p):
    """The applicable closed rank identity for the problem's shape."""
    rank_f, rank_g = p.F.rank, p.G.rank
    if p.shape == "E_plus_top":
        left, right = rank_f, rank_g - p.n + 2 - binomial(p.n - 1, p.t)
        name = "rank F = rank G - n + 2 - C(n-1,t)"
    else:
        left, right = rank_f, rank_g + 1 - binomial(p.n - 1, p.t)
        name = "rank Ker f1 = rank F1 + 1 - C(n-1,t)"
    return ConditionReport("rank", left == right, None,
                           {"identity": name, "left": left, "right": right})


def rank_additivity(p):
    """rank Ker(phi|_M) = rank(M) (+ rank N) - 1, via lead-term ranks.

    Precondition: condition (a) holds, so Ker phi = <beta> + Ker eps, whose
    basis (a) has built; rank Ker phi is read off its leads."""
    r_kphi = groebner.submodule_rank(p.beta_kere())
    r_kere = groebner.submodule_rank(p.kere)
    left = r_kphi - r_kere
    # M (⊕ N) is the sum of the E_s over the summands K_s, of rank C(n-1, s-1)
    right = sum(binomial(p.n - 1, sm.s - 1) for sm in p.pres.summands) - 1
    return ConditionReport("rank_additivity", left == right, None,
                           {"left": left, "right": right})


class NonTrivialityReport:
    __slots__ = ("decomposes", "verdict", "nu0_gens", "nv0_gens", "mixed")

    def __init__(self, decomposes, nu0_gens, nv0_gens, mixed):
        self.decomposes = decomposes
        self.verdict = not decomposes
        self.nu0_gens = nu0_gens
        self.nv0_gens = nv0_gens
        self.mixed = mixed

    def to_dict(self):
        return {"decomposes": self.decomposes, "non_trivial": self.verdict,
                "n_cap_u0_gens": self.nu0_gens, "n_cap_v0_gens": self.nv0_gens,
                "mixed_support_betas": self.mixed}

    def __repr__(self):
        return f"NonTrivialityReport(non_trivial={self.verdict})"


def nontriviality(p):
    """Whether <beta> decomposes as (N ∩ U0) + (N ∩ V0); non-trivial iff not.

    Also lists which beta_i mix the two summands in the given basis.
    """
    if p.shape != "E_plus_top":
        raise InvalidProblem("non-triviality needs the U0 ⊕ V0 split")
    ru0 = binomial(p.n, p.pres.summands[0].s)
    u0 = groebner.SubmoduleGens(
        p.U, [Vec.unit(p.n, i, p.field) for i in range(ru0)], check=False)
    v0 = groebner.SubmoduleGens(
        p.U, [Vec.unit(p.n, i, p.field) for i in range(ru0, p.U.rank)],
        check=False)
    N = p.beta_span()
    nu0 = groebner.intersect(N, u0)
    nv0 = groebner.intersect(N, v0)
    # N∩U0 + N∩V0 ⊆ N: intersect returns images in its first argument
    dec = groebner.contains(groebner.submodule_sum(nu0, nv0), N)
    mixed = []
    for i, b in enumerate(p.betas):
        pos = b.positions()
        if any(q < ru0 for q in pos) and any(q >= ru0 for q in pos):
            mixed.append(i + 1)
    return NonTrivialityReport(
        dec, len(groebner.minimal_generators(nu0).vectors),
        len(groebner.minimal_generators(nv0).vectors), mixed)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def ideal_generators_sorted(gb):
    """Reduced-GB generators of an ideal, ascending degree then lex-descending."""
    polys = [v.component(0) for v in gb.vectors]
    def keyfn(p):
        lead = max(p.terms)
        return (p.homogeneous_degree(), tuple(-e for e in lead))
    return sorted(polys, key=keyfn)


class BourbakiSequence:
    """An audited exact sequence 0 -> F -> G -> M -> I(c) -> 0.

    ``free_complex`` is its free part G <- F, with differential f; b-sequence
    data certify no other shape, since condition (b) refuses an f that is
    not injective."""

    __slots__ = ("free_complex", "ideal", "ideal_gb", "c", "audit")

    def __init__(self, free_complex, ideal, ideal_gb, c, audit):
        self.free_complex = free_complex
        self.ideal = ideal
        self.ideal_gb = ideal_gb
        self.c = c
        self.audit = audit

    @property
    def length(self):
        return self.free_complex.length + 2

    def ideal_strings(self):
        return [format_polynomial(p) for p in
                ideal_generators_sorted(self.ideal_gb)]

    def __repr__(self):
        return (f"BourbakiSequence(length {self.length}, "
                f"ideal gens {len(self.ideal_gb.vectors)}, c={self.c})")


def assemble(p):
    """Assemble and audit 0 -> F -> G -> M -> I(c) -> 0; I = Im phi.

    The audit checks Im f = Ker(eps∘beta), which is exactness at G,
    condition (a) as exactness at M, and the rank additivity identity;
    phi(Ker eps) = 0 and the injectivity of f, which is exactness at F,
    are read off conditions (a) and (b).  Im f ⊆ Ker(eps∘beta) is
    Im(beta∘f) ⊆ Ker eps; only the reverse inclusion needs a basis of Im f.
    """
    rep_a = verify_condition_a(p)
    rep_b = verify_condition_b(p)
    if not rep_a.ok or not rep_b.ok:
        raise AssemblyError(
            f"conditions not satisfied: a={rep_a.ok} b={rep_b.ok}")
    audit = {"condition_a": rep_a.ok, "condition_b": rep_b.ok}

    # psi is well-defined: condition (a) has evaluated phi on every
    # generator of <beta> + Ker eps, so on each one of Ker eps
    audit["phi_kills_ker_eps"] = True

    # exactness at G: Im f = Ker(g); Im f ⊆ Ker g iff beta∘f lands in Ker eps
    if not (groebner.contains(p.kere, p.im_bf())
            and groebner.contains(p.im_f(), p.ker_g())):
        raise AssemblyError("exactness fails at G: Im f != Ker g")
    audit["exact_at_G"] = True
    audit["exact_at_M"] = rep_a.ok

    radd = rank_additivity(p)
    if not radd.ok:
        raise AssemblyError(
            f"rank additivity fails: {radd.details}")
    audit["rank_additivity"] = radd.ok

    ideal = p.im_phi()
    return BourbakiSequence(ChainComplex([p.G, p.F], [p.f]), ideal,
                            groebner.groebner(ideal), p.c, audit)


def cone_resolution(p, seq):
    """Free resolution of S/I as the cone over beta against the Koszul tails.

    The chain map from G <- F (``seq.free_complex``) to the tail B of M
    (+ N) is beta at G and, at F, the lift of beta∘f's columns over
    Ker eps = Im d_1 (a zero map when B stops at U); the one square is
    verified by ``ChainMap``.  The cone is twisted by (-c) and augmented
    by the row of phi so that F_0 = S.
    """
    B = p.pres.tail()
    if B.length == 0:
        alpha_1 = ModuleMap.zero(
            p.F, GradedFreeModule(p.n, [], field=p.field))
    else:
        cols = []
        for col in p.beta_f().columns():
            h = groebner.lift(col, p.kere)
            if h is None:
                raise AssemblyError("chain map lift failed; cone impossible")
            cols.append(h)
        alpha_1 = ModuleMap.from_columns(p.F, B.modules[1], cols)
    try:
        chain = resolution.ChainMap(seq.free_complex, B,
                                    [p.beta_map, alpha_1])
    except ValueError as e:
        # both complexes and both alphas are built above: a square that
        # does not commute is a bug, not bad input
        raise AssertionError(str(e)) from e
    cone = resolution.mapping_cone(chain).twisted(-p.c)
    S = GradedFreeModule(p.n, [0], field=p.field)
    aug = ModuleMap.from_columns(cone.modules[0], S, p.phi.columns())
    ok, viol = homogeneity_check(aug)
    if not ok:
        raise AssemblyError(f"augmentation not homogeneous: {viol}")
    return ChainComplex([S] + cone.modules, [aug] + cone.maps)


# ---------------------------------------------------------------------------
# synthetic instances (used by the property suite)
# ---------------------------------------------------------------------------

def synthesize_from_phi(n, t, shape, phi, d=0):
    """Derive (beta, f) from a functional so that both conditions hold.

    beta spans Ker phi modulo Ker eps; G is free on the beta degrees; f is
    built from a minimal generating set of Ker(eps∘beta) and rejected when
    that kernel is not free (None is returned).  The field is phi's.

    Most rejections are read off two Hilbert numerators (N(X) is the
    numerator of HS(X) over (1 - λ)^n) before the kernels they would
    need (Traverso, "Hilbert functions and the Buchberger algorithm",
    JSC 22, 1996).  With g = eps∘beta, Im g = Ker phi / Ker eps, since
    <beta> + Ker eps = Ker phi, and
      N(Im g) = N(U/Ker eps) - N(U/Ker phi),
    where N(U/Ker eps) = Σ_i (-1)^i N(B_i) comes from the Koszul tail's
    ranks (``koszul.tail_numerator``) and U/Ker phi ≅ Im phi(τ - c), for
    phi's target twist τ and shift c, is read off the leads of the tracked
    run that Ker phi has built on Im phi.  From 0 -> Ker g -> G -> Im g -> 0,
      N(Ker g) = N(G) - N(Im g).
    N(Im g) = 0 means Ker phi = Ker eps: there is no beta.  A negative
    coefficient of N(Ker g) proves that Ker g is not free, since a free
    module's numerator is Σ λ^a over its twists; then f, on Ker g's
    minimal generators, would not be injective.  Every other phi builds
    Ker g and its minimal generators, and the injectivity test rejects
    any whose Ker g is not free though its numerator has no negative
    coefficient (no synth draw is such a phi).

    The betas are part of a minimal generating set of Ker phi, so they
    generate <beta> minimally: the provenance's ``beta_minimal_count`` is
    rank G and ``beta_redundant`` is always False.  A beta may still be
    redundant modulo Ker eps; testing that is ROADMAP item 3.
    """
    field = phi.source.field
    pres = Presentation(n, t, d, shape, field)
    U, kere = pres.U, pres.image(1)
    # Ker phi ⊆ <beta> + Ker eps by construction (beta are the minimal
    # generators of Ker phi outside Ker eps); the reverse is phi(Ker eps) = 0
    if any(not phi.apply(k).is_zero() for k in kere.vectors):
        return None
    im_phi = _ideal(phi)
    kphi = groebner.kernel(phi, image=im_phi)
    # N(U/Ker phi) = λ^(τ - c)·(1 - N(S/Im phi)), off kphi's tracked run
    tau_c = phi.target.twists[0] - phi.shift
    im_g = koszul.tail_numerator(n, pres.summands)
    merge_terms(im_g, {tau_c: 1}, subtract=True)
    merge_terms(im_g, {j + tau_c: c for j, c in
                       groebner.quotient_numerator(im_phi).items()})
    if not im_g:
        return None  # Ker phi = Ker eps: no beta
    kere_gb = groebner.groebner(kere)
    mg = groebner.minimal_generators(kphi)
    betas = [v for v in mg.vectors
             if not groebner.member(v, kere_gb)]
    degs = [b.homogeneous_degree(U) for b in betas]
    # with no beta, N(Ker g) = -N(Im g), whose lowest coefficient is < 0
    ker_g_num = merge_terms(dict(Counter(degs)), im_g, subtract=True)
    if any(c < 0 for c in ker_g_num.values()):
        return None  # Ker g is not free
    span = groebner.SubmoduleGens(U, betas, check=False)
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


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def load_map_json(data, field=RATIONALS):
    """Map files: source/target twists plus row-major polynomial entries,
    read into columns: a literal "0" is skipped, any other entry parsed in
    row-major order.  A missing key or a field of the wrong type raises
    ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError("a map must be a JSON object")
    n = _nvars(data)
    shift = data.get("shift", 0)
    src_tw, tgt_tw, entries = (_required(data, key, "map") for key in (
        "source_twists", "target_twists", "entries"))
    if not (_is_int_list(src_tw) and _is_int_list(tgt_tw) and _is_int(shift)):
        raise ValueError("map twists and 'shift' must be integers")
    if not _is_string_list(entries):
        raise ValueError("map 'entries' must be a list of strings")
    src = GradedFreeModule(n, src_tw, field=field)
    tgt = GradedFreeModule(n, tgt_tw, field=field)
    if len(entries) != src.rank * tgt.rank:
        raise ValueError("entries length does not match the map shape")
    cols = [{} for _ in range(src.rank)]
    for k, text in enumerate(entries):
        if text != "0":
            i, j = divmod(k, src.rank)
            for exp, c in parse_polynomial(text, n, field).terms.items():
                cols[j][(i, exp)] = c
    return ModuleMap.from_columns(src, tgt, [Vec(n, t, field) for t in cols],
                                  shift)


def map_to_json(m):
    """``load_map_json``'s schema for ``m``.  The entries start as "0", and
    only each column's nonzero entries are formatted, from its terms."""
    width = m.source.rank
    entries = ["0"] * (m.target.rank * width)
    for j, col in enumerate(m.cols):
        for i, terms in col.by_position().items():
            entries[i * width + j] = format_terms(terms)
    return {
        "n": m.source.n,
        "source_twists": list(m.source.twists),
        "target_twists": list(m.target.twists),
        "entries": entries,
        "shift": m.shift,
    }


# Input whose variable count n exceeds this is refused before any of it is
# parsed: every monomial and order key is n long, and a minimal resolution
# runs up to n + 1 steps (`cohomology` of one relation x1 took 0.8 s at
# n = 1000 and 31 s at n = 4000).
VARIABLE_LIMIT = 1000


def _nvars(data, where="map"):
    """``data["n"]``; ``ValueError`` naming ``where`` unless it is a
    positive int of at most ``VARIABLE_LIMIT``."""
    if "n" not in data:
        raise ValueError(f"{where} needs the variable count n")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"{where} 'n' must be a positive integer")
    if n > VARIABLE_LIMIT:
        raise ValueError(f"{where} 'n' = {n} exceeds the variable limit "
                         f"of {VARIABLE_LIMIT}")
    return n


def _required(data, key, where):
    """``data[key]``; ``ValueError`` naming ``where`` and the key if it is
    missing."""
    if key not in data:
        raise ValueError(f"{where} missing key {key!r}")
    return data[key]


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


def _is_string_list(v):
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def _family_entries(spec, key, valid_index):
    """The [index..., coefficient string] entries of a phi family; an entry
    whose index list ``valid_index`` refuses raises ``ValueError``."""
    entries = spec.get(key) or []
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and e and isinstance(e[-1], str)
            and valid_index(e[:-1]) for e in entries):
        raise ValueError(f"phi {key!r} entries must be [index..., "
                         f"coefficient string] lists")
    return entries


def phi_from_spec(pres, spec):
    """Functional on ``pres``'s U from manifest data: family coefficients,
    of which only the members named are built, or a raw vector."""
    n, t, field = pres.n, pres.t, pres.field
    dual = pres.dual_summands
    if not isinstance(spec, dict):
        raise ValueError("phi must be a JSON object")
    if "raw" in spec:
        if "A" in spec or "B" in spec:
            raise ValueError("phi takes 'raw' or the 'A'/'B' families, "
                             "not both")
        if not isinstance(spec["raw"], str):
            raise ValueError("phi 'raw' must be a string")
        vec = koszul.parse_koszul_vector(spec["raw"], n, dual, field)
        return vec.to_functional(field), vec
    A = _family_entries(spec, "A",
                        lambda ix: len(ix) == 1 and _is_int_list(ix[0]))
    B = _family_entries(spec, "B",
                        lambda ix: len(ix) == 2 and _is_int_list(ix))
    families = []  # (summand, member builder, its labels, [(label, coeff)])
    if A:
        families.append((0, lambda L: koszul.A_member(n, t, L, field),
                         koszul.subsets(n, n - t),
                         [(tuple(L), coeff) for L, coeff in A]))
    if B:
        if pres.shape != "E_plus_top":
            raise ValueError("B-family coefficients need the top summand")
        families.append((1, lambda ij: koszul.B_member(n, *ij, field),
                         koszul.b_index(n),
                         [((i, j), coeff) for i, j, coeff in B]))
    acc = koszul.KoszulVector(n, dual, {}, field)
    for k, build, labels, entries in families:
        labels = set(labels)
        for L, coeff in entries:
            if L not in labels:
                raise ValueError(f"unknown {'AB'[k]}-family index {L}")
            member = build(L).mul_poly(parse_polynomial(coeff, n, field))
            acc = acc + koszul.KoszulVector(
                n, dual, {(k, I): q for (_, I), q in member.coeffs.items()},
                field)
    return acc.to_functional(field), acc


def problem_from_manifest(data, field=RATIONALS, base_dir=None):
    """Build a problem from the JSON manifest schema; a missing key or a
    field of the wrong type raises ``ValueError``."""
    n = _nvars(data, "manifest")
    t, shape = (_required(data, key, "manifest") for key in ("t", "shape"))
    d, c = data.get("d", 0), data.get("c")
    if not (_is_int(t) and _is_int(d) and (c is None or _is_int(c))):
        raise ValueError("manifest 't', 'd' and 'c' must be integers")
    if not isinstance(shape, str):
        raise ValueError("manifest 'shape' must be a string")
    beta, phi_spec, fdata = (_required(data, key, "manifest")
                             for key in ("beta", "phi", "f"))
    if not _is_string_list(beta):
        raise ValueError("manifest 'beta' must be a list of strings")
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    pres = Presentation(n, t, d, shape, field)
    betas = [koszul.parse_koszul_vector(s, n, pres.summands, field).to_vec()
             for s in beta]
    phi, phi_vec = phi_from_spec(pres, phi_spec)
    if isinstance(fdata, str):
        path = fdata if base_dir is None else os.path.join(base_dir, fdata)
        try:
            with open(path, encoding="utf-8") as fh:
                fdata = json.load(fh)
        except OSError as e:
            raise ValueError(
                f"cannot read map file {path}: {e.strerror}") from e
    f = load_map_json(fdata, field)
    prov = {"phi_vector": koszul.format_koszul_vector(phi_vec)}
    return BSequenceProblem(n, t, shape, betas, phi, f, d=d, c=c,
                            provenance=prov, presentation=pres)


def problem_to_manifest(p):
    """Normalized manifest (f inline, phi in raw form); reparses identically."""
    pres = p.pres
    phi_row = Vec(p.n, {(j, e): c for j, col in enumerate(p.phi.cols)
                        for (_, e), c in col.terms.items()}, p.field)
    return {
        "n": p.n, "t": p.t, "d": p.d, "c": p.c, "shape": p.shape,
        "beta": [koszul.format_koszul_vector(
            koszul.KoszulVector.from_vec(p.n, pres.summands, b))
            for b in p.betas],
        "phi": {"raw": koszul.format_koszul_vector(
            koszul.KoszulVector.from_vec(p.n, pres.dual_summands, phi_row))},
        "f": map_to_json(p.f),
    }
