"""Verification conditions, assembly audits, non-triviality, synthesis."""

import inspect
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from bseq import rings
from bseq.rings import RATIONALS, DimensionMismatch, Polynomial, PrimeField
from bseq.modules import GradedFreeModule, ModuleMap, Vec, homogeneity_check
from bseq import bourbaki as bk
from bseq import groebner as gb
from bseq import koszul as kz
from bseq import resolution as rl

from conftest import (load_bench_workloads, load_problem, manifest_path,
                      record_runs)
from oracles import (dense_rows, hilbert_function, is_complex,
                     synthesize_by_kernels)


def vec_of(poly):
    return Vec(poly.n, {(0, e): c for e, c in poly.terms.items()})


def product_ideal_strings():
    return [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)]


# ---------------------------------------------------------------------------
# condition (a)
# ---------------------------------------------------------------------------

def test_first_example_satisfies_condition_a(example1):
    rep = bk.verify_condition_a(example1)
    assert rep.ok and rep.witness is None


def test_depth_zero_attempt_is_refuted():
    # with the Euler functional on K_1 the kernel is exactly the second
    # syzygy module, so any family outside it fails condition (a)
    n = 6
    fam = kz.generate_A(n, 0)
    phi = fam[0].to_functional()
    beta = Vec(n, {(0, (0,) * n): Fraction(1)})  # e_1, not in E_2
    G = GradedFreeModule(n, [1])
    f = ModuleMap.zero(GradedFreeModule(n, []), G)
    p = bk.BSequenceProblem(n, 0, "E_only", [beta], phi, f)
    rep = bk.verify_condition_a(p)
    assert not rep.ok
    assert rep.witness is not None


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)])
def test_condition_a_names_a_generator_outside_ker_phi(field):
    """<beta> + Ker eps ⊆ Ker phi fails at the first generator that phi
    does not kill: an extra beta e[1,4] with a zero row of f."""
    with open(manifest_path("example1.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    with open(manifest_path("example1_f.json"), encoding="utf-8") as fh:
        data["f"] = json.load(fh)
    data["beta"].append("e[1,4]")
    data["f"]["target_twists"].append(2)
    data["f"]["entries"] += ["0"] * len(data["f"]["source_twists"])
    p = bk.problem_from_manifest(data, field=field)
    rep = bk.verify_condition_a(p)
    assert not rep.ok
    assert rep.witness == "<beta> + Ker eps exceeds Ker phi at: (0, 0, 0, 1)"


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)])
def test_inclusions_into_a_kernel_build_no_basis_of_it(field):
    """X ⊆ Ker phi is phi(X) = 0, and N∩U0 + N∩V0 ⊆ N holds by
    construction: neither Ker phi nor <beta> gets a Gröbner basis."""
    p = load_problem("example1.json", field)
    assert bk.verify_condition_a(p).ok
    assert p.ker_phi()._gb is None
    p = load_problem("example3.json", field)
    assert bk.nontriviality(p).verdict
    assert p.beta_span()._gb is None


def test_beta_inside_kernel_of_presentation_is_invalid(example1):
    n = 6
    d3 = kz.koszul_differential(n, 3)
    bad_beta = d3.cols[0]  # lies in the presentation kernel
    G = GradedFreeModule(n, [3])
    f = ModuleMap.zero(GradedFreeModule(n, []), G)
    p = bk.BSequenceProblem(n, 1, "E_only", [bad_beta], example1.phi, f)
    with pytest.raises(bk.InvalidProblem):
        bk.verify_condition_a(p)


def test_condition_a_by_construction_on_random_small_case():
    rng = random.Random(10)
    built = 0
    for _ in range(20):
        p = _random_synthetic(rng)
        if p is None:
            continue
        rep = bk.verify_condition_a(p)
        assert rep.ok, rep.witness
        built += 1
    assert built >= 5


# ---------------------------------------------------------------------------
# condition (b)
# ---------------------------------------------------------------------------

def test_first_example_satisfies_condition_b(example1):
    rep = bk.verify_condition_b(example1)
    assert rep.ok and rep.witness is None


def test_third_example_satisfies_condition_b(example3):
    rep = bk.verify_condition_b(example3)
    assert rep.ok, rep.witness


def test_zero_f_fails_surjectivity(example2):
    p = example2
    empty_f = ModuleMap.zero(GradedFreeModule(p.n, []), p.G)
    altered = bk.BSequenceProblem(
        p.n, p.t, p.shape, list(p.betas), p.phi, empty_f, d=p.d)
    rep = bk.verify_condition_b(altered)
    assert not rep.ok
    assert "Im(beta∘f)" in rep.witness


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)])
def test_image_of_beta_f_outside_ker_eps_fails(field):
    """A column x1·e_1 added to f keeps f injective and Im(beta∘f) above
    <beta> ∩ Ker eps, but x1·beta_1 is not in Ker eps: condition (b)
    fails, and the audit at G refuses it even when (b) is taken as read."""
    p = load_problem("example1.json", field)
    x1 = Polynomial.variable(p.n, 1, field)
    F = GradedFreeModule(p.n, list(p.F.twists) + [3], field=field)
    extra = Vec(p.n, {(0, e): c for e, c in x1.terms.items()}, field)
    f = ModuleMap.from_columns(F, p.G, p.f.columns() + [extra])
    q = bk.BSequenceProblem(p.n, p.t, p.shape, p.betas, p.phi, f)
    rep = bk.verify_condition_b(q)
    assert not rep.ok
    assert rep.witness == "Im(beta∘f) differs from <beta> ∩ Ker eps"
    q._cache["cond_b"] = bk.ConditionReport("b", True)
    with pytest.raises(bk.AssemblyError, match="exactness fails at G"):
        bk.assemble(q)


def test_noninjective_f_is_invalid(example1):
    p = example1
    # duplicate the first column: visibly non-injective
    cols = p.f.columns() + [p.f.cols[0]]
    F2 = GradedFreeModule(p.n, list(p.F.twists) + [p.F.twists[0]])
    f2 = ModuleMap.from_columns(F2, p.G, cols)
    altered = bk.BSequenceProblem(
        p.n, p.t, p.shape, list(p.betas), p.phi, f2)
    with pytest.raises(bk.InvalidProblem):
        bk.verify_condition_b(altered)


# ---------------------------------------------------------------------------
# rank conditions
# ---------------------------------------------------------------------------

def test_rank_identities_on_the_examples(example1, example2, example3):
    r1 = bk.rank_conditions(example1)
    assert r1.ok and r1.details["left"] == 2 == r1.details["right"]
    r2 = bk.rank_conditions(example2)
    assert r2.ok and r2.details["left"] == 3
    r3 = bk.rank_conditions(example3)
    assert r3.ok


def test_rank_identity_rejects_padded_source(example1):
    p = example1
    cols = p.f.columns()
    extra = p.f.cols[0].mul_poly(Polynomial.variable(p.n, 1))
    F2 = GradedFreeModule(p.n, list(p.F.twists) + [p.F.twists[0] + 1])
    f2 = ModuleMap.from_columns(F2, p.G, cols + [extra])
    altered = bk.BSequenceProblem(p.n, p.t, p.shape, list(p.betas), p.phi, f2)
    assert not bk.rank_conditions(altered).ok


def test_rank_additivity_on_examples(example1, example2, example3):
    for p in (example1, example2, example3):
        rep = bk.rank_additivity(p)
        assert rep.ok, rep.details


# ---------------------------------------------------------------------------
# non-triviality
# ---------------------------------------------------------------------------

def test_second_example_is_non_trivial(example2):
    rep = bk.nontriviality(example2)
    assert rep.verdict
    assert rep.mixed == [7, 8]


def test_third_example_is_non_trivial(example3):
    rep = bk.nontriviality(example3)
    assert rep.verdict
    assert rep.mixed == [2, 3, 4, 5]


def test_block_families_decompose(example2):
    # betas splitting cleanly into the two summands give a trivial type
    n = 6
    beta_u = kz.parse_koszul_vector(
        "e[1,2]", n, example2.pres.summands).to_vec()
    beta_v = kz.parse_koszul_vector(
        "e[2,3,4,5,6]", n, example2.pres.summands).to_vec()
    G = GradedFreeModule(n, [2, 5])
    f = ModuleMap.zero(GradedFreeModule(n, []), G)
    p = bk.BSequenceProblem(n, 1, "E_plus_top", [beta_u, beta_v],
                            example2.phi, f, d=0)
    rep = bk.nontriviality(p)
    assert rep.decomposes and not rep.verdict


def test_nontriviality_requires_the_split(example1):
    with pytest.raises(bk.InvalidProblem):
        bk.nontriviality(example1)


def test_verdict_invariant_under_regeneration(example2):
    # a different generating set of the same submodule gives the same verdict
    rng = random.Random(6)
    p = example2
    base = bk.nontriviality(p).verdict
    for _ in range(3):
        betas = list(p.betas)
        # add products of existing members (span unchanged)
        i = rng.randrange(len(betas))
        mono = [0] * p.n
        mono[rng.randrange(p.n)] += 1
        extra = betas[i].mul_poly(Polynomial.monomial(p.n, mono, Fraction(1)))
        new_betas = betas + [extra]
        degs = [b.homogeneous_degree(p.U) for b in new_betas]
        G = GradedFreeModule(p.n, degs)
        f = ModuleMap.zero(GradedFreeModule(p.n, []), G)
        q = bk.BSequenceProblem(p.n, p.t, p.shape, new_betas, p.phi, f, d=p.d)
        assert bk.nontriviality(q).verdict == base


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_first_example_assembles_to_the_product_ideal(example1):
    seq = bk.assemble(example1)
    assert seq.length == 3
    assert seq.ideal_strings() == product_ideal_strings()
    assert seq.audit["exact_at_G"]
    assert seq.audit["rank_additivity"]
    assert seq.c == 0


def test_second_example_yields_the_same_ideal(example1, example2):
    s1 = bk.assemble(example1)
    s2 = bk.assemble(example2)
    assert gb.equal(s1.ideal, s2.ideal)
    assert [str(v) for v in s1.ideal_gb.vectors] == \
        [str(v) for v in s2.ideal_gb.vectors]


def test_third_example_ideal_and_shift(example3):
    seq = bk.assemble(example3)
    assert seq.c == 2
    expected = (["x1^3"] + [f"x1^2*x{i}" for i in range(2, 7)]
                + ["x2^5*x5", "x2^5*x6", "x2*x6^5", "x3*x6^5"])
    assert seq.ideal_strings() == expected


@pytest.fixture
def kernel_calls(monkeypatch):
    """(map, whether target relations were given) of each kernel call."""
    calls = []
    kernel = gb.kernel

    def spy_kernel(f, target_relations=None, image=None):
        calls.append((f, target_relations is not None))
        return kernel(f, target_relations, image=image)

    monkeypatch.setattr(gb, "kernel", spy_kernel)
    return calls


def test_condition_b_and_assembly_share_one_kernel_of_eps_beta(kernel_calls):
    p = load_problem("example2.json")  # fresh: no cached kernels
    assert bk.verify_condition_b(p).ok
    # <beta> ∩ Ker eps is the beta-image of Ker(eps∘beta) ...
    assert [f for f, rel in kernel_calls if rel] == [p.beta_map]
    bk.assemble(p)
    # ... and exactness at G reuses it
    assert [f for f, rel in kernel_calls if rel] == [p.beta_map]


def test_assembly_requires_verified_conditions(example2):
    p = example2
    empty_f = ModuleMap.zero(GradedFreeModule(p.n, []), p.G)
    altered = bk.BSequenceProblem(
        p.n, p.t, p.shape, list(p.betas), p.phi, empty_f, d=p.d)
    with pytest.raises(bk.AssemblyError):
        bk.assemble(altered)


def test_assembled_cone_resolves_the_quotient(example1):
    seq = bk.assemble(example1)
    cone = bk.cone_resolution(example1, seq)
    assert is_complex(cone)
    ok, failures = rl.exactness_audit(cone)
    assert ok, failures
    q = rl.hilbert_numerator(cone)
    assert q.series(12) == hilbert_function(seq.ideal, 12)


def test_cone_shape_blocks_follow_the_twist_pattern(example1):
    # position 1 is the degree-2 exterior block; position 2 stacks G on the
    # next exterior block; position 3 stacks F on the one after
    seq = bk.assemble(example1)
    cone = bk.cone_resolution(example1, seq)
    ranks = [m.rank for m in cone.modules]
    assert ranks == [1, 15, 6 + 20, 2 + 15, 6, 1]
    assert cone.modules[1].twists == (2,) * 15
    # G keeps its twists next to the degree-3 exterior block, and F next
    # to the degree-4 one
    assert sorted(cone.modules[2].twists) == [2] * 6 + [3] * 20
    assert sorted(cone.modules[3].twists) == [3] * 2 + [4] * 15


def test_cone_matches_ideal_series_for_shifted_case(example3):
    seq = bk.assemble(example3)
    cone = bk.cone_resolution(example3, seq)
    assert is_complex(cone)
    ok, failures = rl.exactness_audit(cone)
    assert ok, failures
    q = rl.hilbert_numerator(cone)
    assert q.series(12) == hilbert_function(seq.ideal, 12)
    assert rl.q_vanishing(q, 4) == [True, True, True, False]


def test_cone_maps_are_homogeneous(example1, example3):
    from bseq.modules import homogeneity_check
    for p in (example1, example3):
        seq = bk.assemble(p)
        cone = bk.cone_resolution(p, seq)
        for d in cone.maps:
            ok, violations = homogeneity_check(d)
            assert ok, violations


def test_composite_with_differential_gives_the_published_g(example1):
    # eps ∘ beta sends the basis of G to the differential images of the betas
    from bseq.modules import compose
    d2 = kz.koszul_differential(6, 2)
    g = compose(d2, example1.beta_map)
    for j, b in enumerate(example1.betas):
        assert g.cols[j] == d2.apply(b)


# ---------------------------------------------------------------------------
# synthetic instances: both directions of the kernel-condition equivalence
# ---------------------------------------------------------------------------

def _random_phi_eonly(rng, n, t):
    fam = kz.generate_A(n, t)
    deg = rng.randint(0, 1)
    acc = kz.KoszulVector(n, fam[0].summands, {})
    for a in fam:
        if rng.random() < 0.6:
            continue
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        coeff = Polynomial.monomial(n, tuple(exp),
                                    Fraction(rng.choice((-2, -1, 1, 2))))
        acc = acc + a.mul_poly(coeff)
    return None if acc.is_zero() else acc.to_functional()


def _random_phi_top(rng, n, d):
    # two-summand functional over K_1 ⊕ K_{n-1}(d): consistent shift needs
    # deg(a-part) = 1 + deg_a and  deg(b-part) cast accordingly
    fam_a = kz.generate_A(n, 0)
    fam_b = kz.generate_B(n)
    deg_a = rng.randint(0, 1)
    deg_b = 1 + deg_a - d
    if deg_b < 0:
        return None
    summands = [kz.Summand(1, 0, True), kz.Summand(n - 1, d, True)]
    coeffs = {}
    exp = [0] * n
    for _ in range(deg_a):
        exp[rng.randrange(n)] += 1
    amult = Polynomial.monomial(n, tuple(exp),
                                Fraction(rng.choice((-2, -1, 1, 2))))
    for (_, I), q in fam_a[0].mul_poly(amult).coeffs.items():
        coeffs[(0, I)] = coeffs.get((0, I), Polynomial.zero(n)) + q
    used = False
    for b in fam_b:
        if rng.random() < 0.5:
            continue
        used = True
        exp = [0] * n
        for _ in range(deg_b):
            exp[rng.randrange(n)] += 1
        bmult = Polynomial.monomial(n, tuple(exp),
                                    Fraction(rng.choice((-1, 1))))
        for (_, I), q in b.mul_poly(bmult).coeffs.items():
            coeffs[(1, I)] = coeffs.get((1, I), Polynomial.zero(n)) + q
    if not used:
        return None
    vec = kz.KoszulVector(n, summands, coeffs)
    if vec.is_zero():
        return None
    try:
        return vec.to_functional()
    except ValueError:
        return None


def _random_synthetic(rng):
    if rng.random() < 0.5:
        n = rng.choice((3, 4))
        t = rng.randint(0, n - 2)
        phi = _random_phi_eonly(rng, n, t)
        if phi is None:
            return None
        return bk.synthesize_from_phi(n, t, "E_only", phi)
    n = rng.choice((3, 4))
    d = rng.randint(0, 1)
    phi = _random_phi_top(rng, n, d)
    if phi is None:
        return None
    return bk.synthesize_from_phi(n, 0, "E_plus_top", phi, d=d)


def test_verified_conditions_imply_exact_assembly():
    """Derived (beta, f) data always assembles into an audited sequence."""
    rng = random.Random(2024)
    successes = 0
    attempts = 0
    while successes < 25 and attempts < 200:
        attempts += 1
        p = _random_synthetic(rng)
        if p is None:
            continue
        rep_a = bk.verify_condition_a(p)
        rep_b = bk.verify_condition_b(p)
        assert rep_a.ok, rep_a.witness
        assert rep_b.ok, rep_b.witness
        seq = bk.assemble(p)  # raises on any audit failure
        assert seq.audit["exact_at_G"]
        successes += 1
    assert successes >= 25


def test_relifted_betas_reverify(example2):
    """Generators re-lifted through the presentation keep both conditions.

    Replacing beta_i by beta_i plus an element of Ker eps of the same degree
    is exactly the freedom in extracting a b-sequence from an exact
    sequence; the conditions must survive it.
    """
    rng = random.Random(77)
    p = example2
    kere = list(p.kere.vectors)
    betas = list(p.betas)
    changed = 0
    for i, b in enumerate(betas):
        deg = b.homogeneous_degree(p.U)
        candidates = [r for r in kere
                      if r.homogeneous_degree(p.U) is not None
                      and deg - r.homogeneous_degree(p.U) >= 0]
        if not candidates or rng.random() < 0.4:
            continue
        r = rng.choice(candidates)
        gap = deg - r.homogeneous_degree(p.U)
        exp = [0] * p.n
        for _ in range(gap):
            exp[rng.randrange(p.n)] += 1
        betas[i] = b + r.mul_poly(Polynomial.monomial(p.n, exp, Fraction(1)))
        changed += 1
    assert changed >= 1
    q = bk.BSequenceProblem(p.n, p.t, p.shape, betas, p.phi, p.f, d=p.d)
    assert bk.verify_condition_a(q).ok
    assert bk.verify_condition_b(q).ok
    seq = bk.assemble(q)
    assert gb.equal(seq.ideal, bk.assemble(p).ideal)


def test_random_data_is_judged_without_crashing():
    """Arbitrary monomial-built families mostly fail; never raise unexpectedly."""
    rng = random.Random(314)
    fam = kz.generate_A(4, 1)
    phi = (fam[0] + fam[2]).to_functional()
    kere_gb = None
    judged = 0
    for _ in range(30):
        n = 4
        betas = []
        for _ in range(rng.randint(1, 3)):
            I = rng.choice(kz.subsets(n, 2))
            exp = [0] * n
            for _ in range(rng.randint(0, 2)):
                exp[rng.randrange(n)] += 1
            coeff = Polynomial.monomial(n, tuple(exp), Fraction(1))
            betas.append(kz.KoszulVector(
                n, [kz.Summand(2, 0, False)], {(0, I): coeff}).to_vec())
        degs = []
        U = kz.koszul_module(n, 2)
        for b in betas:
            degs.append(b.homogeneous_degree(U))
        G = GradedFreeModule(n, degs)
        cols = []
        ftw = []
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(len(betas))
            exp = [0] * n
            exp[rng.randrange(n)] += 1
            cols.append(Vec(n, {(j, tuple(exp)): Fraction(1)}))
            ftw.append(degs[j] + 1)
        f = ModuleMap.from_columns(GradedFreeModule(n, ftw), G, cols)
        p = bk.BSequenceProblem(n, 1, "E_only", betas, phi, f)
        try:
            a_ok = bk.verify_condition_a(p).ok
            b_ok = bk.verify_condition_b(p).ok
        except bk.InvalidProblem:
            continue  # family touched the presentation kernel, or f degenerate
        judged += 1
        if a_ok and b_ok:
            bk.assemble(p)  # the implication must then hold
    assert judged >= 5


def test_synthesized_problem_keeps_the_kernels_it_was_built_from(
        kernel_calls):
    rng = random.Random(5)
    for _ in range(40):
        kernel_calls.clear()
        p = _random_synthetic(rng)
        if p is not None:
            bk.assemble(p)
            assert sum(f is p.phi for f, _ in kernel_calls) == 1
            assert sum(rel for _, rel in kernel_calls) == 1
            return
    pytest.fail("no synthetic instance produced")


def test_synthesizer_reports_generator_redundancy():
    rng = random.Random(5)
    for _ in range(40):
        p = _random_synthetic(rng)
        if p is not None:
            assert "beta_redundant" in p.provenance
            assert p.provenance["beta_minimal_count"] <= len(p.betas)
            return
    pytest.fail("no synthetic instance produced")


@pytest.mark.parametrize("n", [3, 4])
def test_top_t_has_an_empty_kernel_of_eps(n):
    # t = n - 1: Ker eps is the image of K_{n+1} = 0, and the tail is empty
    pres = bk.Presentation(n, n - 1, 0, "E_only", RATIONALS)
    assert pres.image(1).vectors == ()
    assert pres.image(1).ambient == pres.U
    assert pres.tail().length == 0
    phi = kz.generate_A(n, n - 1)[0].to_functional()
    assert bk.synthesize_from_phi(n, n - 1, "E_only", phi) is None


@pytest.mark.parametrize("n", [3, 4])
def test_top_t_with_no_beta_cones_over_the_empty_tail(n):
    # t = n - 1 without the top summand: Ker phi = 0 = Ker eps, so beta
    # and f are empty, and the chain map at F goes to the missing B_1
    phi = kz.generate_A(n, n - 1)[0].to_functional()
    empty = GradedFreeModule(n, [])
    p = bk.BSequenceProblem(n, n - 1, "E_only", [], phi,
                            ModuleMap.zero(empty, empty))
    seq = bk.assemble(p)
    cone = bk.cone_resolution(p, seq)
    assert p.pres.tail().length == 0
    assert rl.exactness_audit(cone)[0]
    assert str(rl.hilbert_numerator(cone)) == "1 - t"
    assert seq.ideal_strings() == ["x1"]


def test_functional_with_coefficients_of_another_field_is_refused():
    F = PrimeField(32003)
    a = kz.generate_A(3, 0, F)[0]
    x1 = Polynomial.variable(3, 1)
    # F_p coefficients in a functional over Q (the default field)
    with pytest.raises(DimensionMismatch):
        bk.synthesize_from_phi(3, 0, "E_only", a.mul_poly(x1).to_functional())
    with pytest.raises(DimensionMismatch):
        kz.generate_A(3, 0)[0].to_functional(F)
    phi = a.mul_poly(x1).to_functional(F)
    assert phi.source.field == F
    bk.synthesize_from_phi(3, 0, "E_only", phi)  # runs over F_p


@pytest.mark.parametrize("n", [3, 4])
def test_top_t_with_the_top_summand_assembles(n):
    t = n - 1
    summands = [kz.Summand(t + 1, 0, True), kz.Summand(n - 1, 0, True)]
    x1 = Polynomial.variable(n, 1)
    coeffs = {(0, I): q * x1
              for (_, I), q in kz.generate_A(n, t)[0].coeffs.items()}
    coeffs.update({(1, I): q
                   for (_, I), q in kz.generate_B(n)[0].coeffs.items()})
    phi = kz.KoszulVector(n, summands, coeffs).to_functional()
    p = bk.synthesize_from_phi(n, t, "E_plus_top", phi)
    assert bk.verify_condition_a(p).ok and bk.verify_condition_b(p).ok
    seq = bk.assemble(p)
    assert seq.ideal_strings() == ["x1", "x2"]
    cone = bk.cone_resolution(p, seq)
    assert is_complex(cone)
    assert rl.exactness_audit(cone)[0]


def test_koszul_tails_are_homogeneous_and_exact():
    for n in range(2, 6):
        for t in range(n):
            for shape in ("E_only", "E_plus_top"):
                for d in (0, 1):
                    pres = bk.Presentation(n, t, d, shape, RATIONALS)
                    tail = pres.tail()
                    assert tail.modules[0] is pres.U
                    case = (n, t, shape, d)
                    assert all(homogeneity_check(m)[0]
                               for m in tail.maps), case
                    assert is_complex(tail), case
                    assert rl.exactness_audit(tail)[0], case


PRESENTATION_CASES = [
    (n, t, d, shape, field)
    for n in range(2, 7) for t in range(n)
    for shape, ds in (("E_only", (0,)), ("E_plus_top", (-1, 0, 1)))
    for d in ds for field in (RATIONALS, PrimeField(32003))]


def test_ker_eps_is_the_first_image_of_the_koszul_tail():
    """Ker eps is the image of the next Koszul differential(s) into U,
    built directly here, and it is the image of the tail's d_1."""
    assert len(PRESENTATION_CASES) == 160
    for n, t, d, shape, field in PRESENTATION_CASES:
        case = (n, t, d, shape, field)
        pres = bk.Presentation(n, t, d, shape, field)
        kere = pres.image(1)
        assert kere is pres.image(1), case
        K = kz.koszul_module(n, t + 1, field=field)
        expected = (kz.koszul_differential(n, t + 2, 0, field).columns()
                    if t + 2 <= n else [])
        twists = list(K.twists)
        if shape == "E_plus_top":
            expected += [v.offset(K.rank) for v in
                         kz.koszul_differential(n, n, d, field).columns()]
            twists += list(kz.koszul_module(n, n - 1, d, field).twists)
        assert pres.U == GradedFreeModule(n, twists, field=field), case
        assert kere.ambient == pres.U, case
        assert list(kere.vectors) == expected, case
        tail = pres.tail()
        if tail.length:
            assert list(kere.vectors) == tail.differential(1).columns(), case
        else:  # K_{n+1} = 0 and no top summand
            assert shape == "E_only" and t == n - 1 and not expected, case


def test_presentation_summands_and_their_duals():
    pres = bk.Presentation(6, 1, 2, "E_plus_top", RATIONALS)
    assert pres.summands == (kz.Summand(2, 0, False), kz.Summand(5, 2, False))
    assert pres.dual_summands == (kz.Summand(2, 0, True),
                                  kz.Summand(5, 2, True))
    assert bk.Presentation(6, 1, 2, "E_only", RATIONALS).summands == (
        kz.Summand(2, 0, False),)
    with pytest.raises(bk.InvalidProblem):
        bk.Presentation(6, 6, 0, "E_only", RATIONALS)
    with pytest.raises(bk.InvalidProblem):
        bk.Presentation(6, 1, 0, "foo", RATIONALS)


def test_cone_lifts_over_the_problems_own_ker_eps(monkeypatch):
    """assemble + cone_resolution build one tracked run over Ker eps's
    generators: the square at i = 1 lifts over the problem's Ker eps."""
    p = load_problem("example3.json")
    built = []
    tracked = gb._tracked

    def spy(gens):
        fresh = gens._tracked is None
        eng = tracked(gens)
        if fresh and gens.vectors == p.kere.vectors:
            built.append((gens, eng))
        return eng

    monkeypatch.setattr(gb, "_tracked", spy)
    bk.cone_resolution(p, bk.assemble(p))
    assert len(built) == 1
    assert built[0][0] is p.kere and built[0][1] is p.kere._tracked


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip(example1, example2, example3):
    F = PrimeField(32003)
    problems = [(p, RATIONALS) for p in (example1, example2, example3)]
    problems += [(load_problem(f"example{i}.json", F), F) for i in (1, 2, 3)]
    for p, field in problems:
        data = bk.problem_to_manifest(p)
        again = bk.problem_from_manifest(data, field=field)
        assert again.n == p.n and again.t == p.t
        assert again.c == p.c and again.d == p.d
        assert list(again.betas) == list(p.betas)
        assert dense_rows(again.phi) == dense_rows(p.phi)
        assert dense_rows(again.f) == dense_rows(p.f)
        assert again.phi == p.phi and again.f == p.f
        assert bk.problem_to_manifest(again) == data


@pytest.mark.parametrize("changes, error, message", [
    ({"n": "6"}, ValueError, "'n' must be a positive integer"),
    ({"n": True}, ValueError, "'n' must be a positive integer"),
    ({"n": bk.VARIABLE_LIMIT + 1}, ValueError,
     f"exceeds the variable limit of {bk.VARIABLE_LIMIT}"),
    ({"t": "1"}, ValueError, "'t', 'd' and 'c' must be integers"),
    ({"t": True}, ValueError, "'t', 'd' and 'c' must be integers"),
    ({"d": 0.5}, ValueError, "'t', 'd' and 'c' must be integers"),
    ({"c": "0"}, ValueError, "'t', 'd' and 'c' must be integers"),
    ({"shape": 5}, ValueError, "'shape' must be a string"),
    ({"beta": [1, 2]}, ValueError, "'beta' must be a list of strings"),
    ({"beta": "e[1,2]"}, ValueError, "'beta' must be a list of strings"),
    ({"shape": "foo"}, ValueError, "unknown shape 'foo'"),
    ({"t": 6}, bk.InvalidProblem, "t out of range: 6"),
])
def test_manifest_schema_is_checked_by_the_library(changes, error, message):
    data = bk.problem_to_manifest(load_problem("example1.json"))
    data.update(changes)
    with pytest.raises(error) as info:
        bk.problem_from_manifest(data)
    assert message in str(info.value)
    # a type error is input, not a mathematical failure
    assert (error is bk.InvalidProblem) == isinstance(info.value,
                                                       bk.InvalidProblem)


def test_manifest_rejects_inconsistent_shift():
    data = bk.problem_to_manifest(load_problem("example1.json"))
    data["c"] = 3
    with pytest.raises(bk.InvalidProblem):
        bk.problem_from_manifest(data)


def test_manifest_requires_matching_target_twists(example1):
    data = bk.problem_to_manifest(example1)
    data["f"]["target_twists"] = [2, 2, 2, 2, 2, 3]
    with pytest.raises(bk.InvalidProblem):
        bk.problem_from_manifest(data)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)])
@pytest.mark.parametrize("name", ["example1.json", "example2.json",
                                  "example3.json"])
def test_verdicts_ignore_the_order_of_beta(name, field):
    """Permuting beta, with G's twists and f's rows permuted to match,
    changes neither verdict."""
    p = load_problem(name, field)
    verdicts = (bk.verify_condition_a(p).ok, bk.verify_condition_b(p).ok)
    assert verdicts == (True, True)
    q = len(p.betas)
    for perm in (list(range(q))[::-1], random.Random(q).sample(range(q), q)):
        G = GradedFreeModule(p.n, [p.G.twists[i] for i in perm],
                             field=p.field)
        f = ModuleMap(p.F, G, [dense_rows(p.f)[i] for i in perm], p.f.shift)
        again = bk.BSequenceProblem(p.n, p.t, p.shape,
                                    [p.betas[i] for i in perm], p.phi, f,
                                    d=p.d, c=p.c)
        assert (bk.verify_condition_a(again).ok,
                bk.verify_condition_b(again).ok) == verdicts, perm


def test_map_json_round_trip(example3):
    data = bk.map_to_json(example3.f)
    again = bk.load_map_json(data)
    assert dense_rows(again) == dense_rows(example3.f)
    assert again.source == example3.f.source
    assert again.target == example3.f.target


def test_phi_from_spec_builds_one_member_per_named_label(monkeypatch):
    built = []
    for name in ("A_member", "B_member"):
        def spy(*args, real=getattr(kz, name), name=name):
            built.append((name, args[1:-1]))
            return real(*args)
        monkeypatch.setattr(kz, name, spy)
    for name in ("generate_A", "generate_B"):
        monkeypatch.setattr(kz, name, None)  # a whole family is never built
    for field in (RATIONALS, PrimeField(32003)):
        built.clear()
        load_problem("example3.json", field)
        assert built == [("A_member", (0, (1, 2, 3, 4, 5, 6))),
                         ("B_member", (5, 6)), ("B_member", (2, 3))]


@pytest.mark.parametrize("n, shape, spec, error, message", [
    (6, "E_plus_top", {"A": [[[1, 2, 3, 4, 6, 5], "x1"]]}, ValueError,
     "unknown A-family index (1, 2, 3, 4, 6, 5)"),
    (6, "E_plus_top", {"B": [[4, 1, "x1"]]}, ValueError,
     "unknown B-family index (4, 1)"),
    (6, "E_plus_top", {"B": [[1, 7, "x1"]]}, ValueError,
     "unknown B-family index (1, 7)"),
    (1, "E_plus_top", {"B": [[1, 2, "x1"]]}, ValueError,
     "generate_B needs n >= 2"),
    (1, "E_plus_top", {"A": [[[1], "x1"]], "B": [[1, 2, "x1"]]},
     ValueError, "generate_B needs n >= 2"),
    (6, "E_only", {"A": [[[1, 2], "x1"]], "B": [[1, 2, "x1"]]}, ValueError,
     "B-family coefficients need the top summand"),
    # labels are checked, and coefficients parsed, entry by entry
    (6, "E_plus_top", {"A": [[[1, 2, 3, 4, 5], "x1"], [[1, 2], "x2"]],
                       "B": [[1, 2, "x1 +"]]},
     ValueError, "unknown A-family index (1, 2)"),
    (6, "E_plus_top", {"A": [[[1, 2, 3, 4, 5], "x1 +"]]}, rings.ParseError,
     "expected variable at position 4: 'x1 +'"),
])
def test_phi_family_errors_are_named(n, shape, spec, error, message):
    pres = bk.Presentation(n, min(1, n - 1), 0, shape, RATIONALS)
    with pytest.raises(error) as info:
        bk.phi_from_spec(pres, spec)
    assert str(info.value) == message


@pytest.mark.parametrize("entries, message", [
    (["0", "x1 +", "x7", "0"], "expected variable at position 4: 'x1 +'"),
    (["0", "x1", "x7", "3x"],
     "variable x7 out of range 1..2 at position 2: 'x7'"),
])
def test_map_file_names_its_first_malformed_entry_row_major(entries,
                                                            message):
    data = {"n": 2, "source_twists": [0, 0], "target_twists": [0, 0],
            "entries": entries}
    with pytest.raises(rings.ParseError) as info:
        bk.load_map_json(data)
    assert str(info.value) == message


# phi of bench/workloads.synth_phi((5, "E_only", 3, 0, 1), 2): Ker g is not
# free, so synthesis rejects it; minimal_generators once took seconds here.
# N(Ker g) has a negative coefficient, so no run over <beta> + Ker eps is
# built for it
STALL_PHI = {
    "n": 5, "source_twists": [4, 4, 4, 4, 4], "target_twists": [5],
    "entries": ["x1*x2 + x1*x3 - x2*x4 - 2*x3*x4", "x1^2 + x2*x5 - 2*x3*x5",
                "-x1*x5 + 2*x2*x5", "2*x3*x5 - 2*x4*x5", "x1*x4 - x2*x5"],
    "shift": 3,
}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)])
@pytest.mark.parametrize("n, t, raw", [
    (3, 0, "e*[1]"),
    (3, 0, "x1*e*[1] + x2*e*[2]"),
    (4, 1, "e*[1,2]"),
    (3, 1, "x3*e*[1,2]"),
])
def test_synthesis_rejects_phi_that_does_not_kill_ker_eps(n, t, raw, field):
    pres = bk.Presentation(n, t, 0, "E_only", field)
    phi, _ = bk.phi_from_spec(pres, {"raw": raw})
    assert bk.synthesize_from_phi(n, t, "E_only", phi) is None


def test_synthesis_rejects_the_stall_input():
    phi = bk.load_map_json(STALL_PHI)
    assert bk.synthesize_from_phi(5, 3, "E_only", phi) is None


def test_stall_input_runs_no_fraction_arithmetic_in_the_engine():
    """Over Q the engine keeps ints: no Fraction operation is called from
    an ``_Engine`` method, directly or through the rings kernel.  Making a
    Fraction (``__new__``) where a result leaves the engine, and reading a
    Fraction input's numerator and denominator, are not arithmetic.  The
    stall input is rejected by its Hilbert numerators, so an accepted phi
    (the E_plus_top entry of ``ACCEPTED_PHI``, whose phi and betas have
    the non-unit coefficient 2) also runs here: its synthesis builds the
    tracked run over <beta> + Ker eps that Ker(eps∘beta) is read off."""
    engine = {f.__code__ for f in vars(gb._Engine).values()
              if inspect.isfunction(f)}
    allowed = {"__new__", "numerator", "denominator"}
    seen, hits = [], []

    def spy(frame, event, arg):
        code = frame.f_code
        if event != "call" or not code.co_filename.endswith("fractions.py"):
            return
        seen.append(code.co_name)
        if code.co_name in allowed:
            return
        caller = frame.f_back
        while caller is not None and (
                caller.f_code.co_filename == rings.__file__
                or caller.f_code.co_name.startswith("<")):
            caller = caller.f_back  # the kernel, a comprehension
        if caller is not None and caller.f_code in engine:
            hits.append((code.co_name, caller.f_code.co_name))

    results = []
    for n, t, shape, d, data in [(5, 3, "E_only", 0, STALL_PHI),
                                 ACCEPTED_PHI[2][:5]]:
        phi = bk.load_map_json(data)
        sys.setprofile(spy)
        try:
            results.append(bk.synthesize_from_phi(n, t, shape, phi, d=d))
        finally:
            sys.setprofile(None)
    stall, accepted = results
    assert stall is None
    assert accepted is not None
    assert accepted.beta_kere()._tracked is not None
    assert seen  # Fractions do occur, outside the engine
    assert hits == []


# phi that synthesis accepts, copied from bench/workloads.synth_phi: cell
# (4, "E_only", 1, 0, 1) index 0, cell (5, "E_only", 2, 0, 0) index 1 and
# cell (3, "E_plus_top", 0, 0, 1) index 0; each with the c, cone ranks and
# Hilbert numerator it gives over Q
ACCEPTED_PHI = [
    (4, 1, "E_only", 0, {
        "n": 4, "source_twists": [2, 2, 2, 2, 2, 2], "target_twists": [4],
        "entries": ["-2*x1*x2 + x2*x4", "x3*x4", "2*x2*x3",
                    "-2*x1*x2 + x4^2", "-2*x2^2 + 2*x2*x4", "-2*x2*x3"],
        "shift": 4,
    }, 0, [1, 6, 9, 4], "1 - 5*t^2 + 6*t^3 - 2*t^4"),
    (5, 2, "E_only", 0, {
        "n": 5, "source_twists": [3] * 10, "target_twists": [5],
        "entries": ["-2*x1 + 2*x2 - x3", "-x4", "-2*x4", "-2*x4", "-x5",
                    "-2*x5", "-2*x5", "0", "0", "0"],
        "shift": 3,
    }, -2, [1, 10, 15, 6], "1 - 3*t + 3*t^2 - t^3"),
    (3, 0, "E_plus_top", 0, {
        "n": 3, "source_twists": [1, 1, 1, 2, 2, 2], "target_twists": [3],
        "entries": ["2*x1^2", "2*x1*x2", "2*x1*x3", "-x1*x2^2 - x2*x3^2",
                    "-x1*x2*x3 - x3^3", "0"],
        "shift": 4,
    }, 1, [1, 6, 8, 3], "1 - 3*t^2 + t^3 + 2*t^4 - t^5"),
]


@pytest.mark.parametrize("n, t, shape, d, data, c, ranks, numerator",
                         ACCEPTED_PHI, ids=["E_only-4", "E_only-5",
                                            "E_plus_top-3"])
def test_accepted_phi_agrees_over_q_and_f32003(n, t, shape, d, data, c,
                                                 ranks, numerator):
    records = []
    for field in (RATIONALS, PrimeField(32003)):
        p = bk.synthesize_from_phi(n, t, shape,
                                   bk.load_map_json(data, field=field), d=d)
        assert p is not None, field
        seq = bk.assemble(p)
        cone = bk.cone_resolution(p, seq)
        records.append((bk.verify_condition_a(p).ok,
                        bk.verify_condition_b(p).ok, seq.c,
                        [m.rank for m in cone.modules],
                        str(rl.hilbert_numerator(cone))))
    assert records[0] == records[1] == (True, True, c, ranks, numerator)


def test_synthesis_builds_ker_eps_once(monkeypatch):
    # the problem takes the presentation, and so the Ker eps, that
    # synthesis built; a manifest problem builds its own
    n, t, shape, d, data = ACCEPTED_PHI[2][:5]
    built = []
    init = bk.Presentation.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(bk.Presentation, "__init__", spy)
    p = bk.synthesize_from_phi(n, t, shape, bk.load_map_json(data), d=d)
    assert len(built) == 1 and p.pres is built[0]
    assert p.kere is built[0].image(1)
    q = bk.problem_from_manifest(bk.problem_to_manifest(p))
    assert len(built) == 2 and q.pres is built[1]
    assert q.kere is built[1].image(1) and q.kere is not p.kere


@pytest.mark.parametrize("n, t, shape, d, data",
                         [a[:5] for a in ACCEPTED_PHI],
                         ids=["E_only-4", "E_only-5", "E_plus_top-3"])
def test_an_accepted_problem_runs_buchberger_once_on_f(monkeypatch, n, t,
                                                       shape, d, data):
    """Synthesis, condition (b) and the audit at G all read one untracked
    run on f's columns, the problem's Im f: the run of Ker(eps∘beta),
    whose minimal generators they are, so they build no run of their
    own (when Ker(eps∘beta)'s generators are minimal, Im f is that set)."""
    runs = []
    untracked = gb._untracked

    def spy(gens):
        if gens._run is None:
            runs.append(gens)
        return untracked(gens)

    monkeypatch.setattr(gb, "_untracked", spy)
    p = bk.synthesize_from_phi(n, t, shape, bk.load_map_json(data), d=d)
    bk.cone_resolution(p, bk.assemble(p))
    assert [g for g in runs if g.vectors == tuple(p.f.columns())] == (
        [p.ker_g()] if p.im_f() is p.ker_g() else [])
    assert p.im_f()._run is p.ker_g()._run is not None


@pytest.mark.parametrize("n, t, shape, d, data",
                         [a[:5] for a in ACCEPTED_PHI],
                         ids=["E_only-4", "E_only-5", "E_plus_top-3"])
def test_an_accepted_phi_builds_the_runs_of_the_kernel_route(monkeypatch, n,
                                                             t, shape, d,
                                                             data):
    """The Hilbert numerators that synthesis rejects by cost an accepted
    phi no Gröbner run: it builds the runs of the kernel route
    (``oracles.synthesize_by_kernels``), Ker eps's after Ker phi's instead
    of before.  Im phi's numerator is read off the tracked run of Ker phi,
    so Im phi gets no untracked run."""
    runs = record_runs(monkeypatch)
    p = bk.synthesize_from_phi(n, t, shape, bk.load_map_json(data), d=d)
    ours = list(runs)
    runs.clear()
    theirs = synthesize_by_kernels(n, t, shape, bk.load_map_json(data), d=d)
    assert p is not None and theirs is not None
    assert Counter(ours) == Counter(runs)
    assert ("untracked", p.im_phi().vectors) not in ours
    assert ("tracked", p.im_phi().vectors) in ours


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)],
                         ids=["Q", "F32003"])
@pytest.mark.parametrize("name", ["example1.json", "example2.json",
                                  "example3.json"])
def test_verify_runs_buchberger_once_on_beta_plus_ker_eps(monkeypatch,
                                                          field, name):
    """Condition (a) reads the reduced basis of <beta> + Ker eps off the
    tracked run that Ker(eps∘beta) builds on it for condition (b): one
    verify builds no other run of it."""
    runs = record_runs(monkeypatch)
    p = load_problem(name, field)
    assert bk.verify_condition_a(p).ok and bk.verify_condition_b(p).ok
    rhs = p.beta_kere().vectors
    assert [kind for kind, vectors in runs if vectors == rhs] == ["tracked"]


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)],
                         ids=["Q", "F32003"])
def test_zero_columns_share_the_image_run(monkeypatch, field):
    """phi and beta∘f of example 3 have zero columns.  Ker phi runs on the
    problem's Im phi, zeros kept, and assembly reads the ideal's basis off
    Im phi's tracked run: verify and assemble build one run over phi's
    columns, the tracked one.  Condition (b) tests Im(beta∘f) by
    membership in Ker eps and takes no kernel of beta∘f, so no run at all
    is built over its columns."""
    runs = record_runs(monkeypatch)
    p = load_problem("example3.json", field)
    assert bk.verify_condition_a(p).ok and bk.verify_condition_b(p).ok
    bk.assemble(p)
    im_phi, im_bf = p.im_phi(), p.im_bf()
    assert not all(im_phi.vectors) and not all(im_bf.vectors)
    assert [kind for kind, vectors in runs
            if vectors == im_phi.vectors] == ["tracked"]
    assert [kind for kind, vectors in runs if vectors == im_bf.vectors] == []


def ker_eps_runs(runs, p):
    return [kind for kind, vectors in runs if vectors == p.kere.vectors]


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)],
                         ids=["Q", "F32003"])
@pytest.mark.parametrize("name", ["example1.json", "example2.json",
                                  "example3.json"])
def test_ker_eps_builds_one_run_the_tracked_one(monkeypatch, field, name):
    """Ker eps's reduced basis, which condition (a) tests the betas and
    the containments test Im(beta∘f) against, is read off the tracked run
    that the cone lifts over: one verify, and one assemble with its cone,
    each build one run over Ker eps's generators, the tracked one."""
    runs = record_runs(monkeypatch)
    p = load_problem(name, field)
    assert bk.verify_condition_a(p).ok and bk.verify_condition_b(p).ok
    assert ker_eps_runs(runs, p) == ["tracked"]
    runs.clear()
    p = load_problem(name, field)
    bk.cone_resolution(p, bk.assemble(p))
    assert ker_eps_runs(runs, p) == ["tracked"]
    assert p.kere._run is None and p.kere._tracked is not None


@pytest.mark.parametrize("n, t, shape, d, data",
                         [a[:5] for a in ACCEPTED_PHI],
                         ids=["E_only-4", "E_only-5", "E_plus_top-3"])
def test_synthesis_builds_one_run_on_ker_eps(monkeypatch, n, t, shape, d,
                                             data):
    """Synthesis tests the kernel generators against Ker eps with the
    basis of the run that assembly and the cone then reuse."""
    runs = record_runs(monkeypatch)
    p = bk.synthesize_from_phi(n, t, shape, bk.load_map_json(data), d=d)
    bk.cone_resolution(p, bk.assemble(p))
    assert ker_eps_runs(runs, p) == ["tracked"]


def test_synth_record_builds_the_same_runs_on_a_reused_phi(monkeypatch):
    """The benchmark builds each phi once and reuses it every pass: no
    Gröbner run may outlive the op on it, so a second pass on the same phi
    builds as many runs as the first."""
    workloads = load_bench_workloads()
    cell = (4, "E_only", 1, 0, 1)
    phi = workloads.synth_phi(cell, 0)
    runs = []
    untracked, track = gb._untracked, gb._track

    def spy_untracked(gens):
        if gens._run is None:
            runs.append("untracked")
        return untracked(gens)

    def spy_track(eng, keyed, minimal=False):
        runs.append("tracked")
        return track(eng, keyed, minimal)

    monkeypatch.setattr(gb, "_untracked", spy_untracked)
    monkeypatch.setattr(gb, "_track", spy_track)
    n, shape, t, d, _ = cell
    counts, records = [], []
    for _ in range(2):
        runs.clear()
        records.append(workloads.synth_record(n, t, shape, phi, d))
        counts.append((runs.count("untracked"), runs.count("tracked")))
    assert records[0]["accepted"] and records[0] == records[1]
    assert counts[0] == counts[1] and all(counts[0])
