"""Acceptance suite: one criterion per test, exact tolerances, timed.

Each test prints a single PASS line (visible with -s or -rA) naming the
criterion and its elapsed time; the stated budgets are asserted as hard
upper bounds.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from bseq.rings import Polynomial, binomial
from bseq.modules import GradedFreeModule, ModuleMap, Vec, compose
from bseq import bourbaki as bk
from bseq import groebner as gb
from bseq import koszul as kz
from bseq import resolution as rl

from conftest import load_problem
from oracles import (fp_direct_sum, hilbert_function, numerator_from_shape,
                     selfduality_check)


def _report(k, label, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {k} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {k}: PASS ({label}, {elapsed:.1f}s)")


PRODUCT_IDEAL = [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)]


def test_acceptance_1_first_example_reproduction():
    t0 = time.time()
    p = load_problem("example1.json")
    assert bk.verify_condition_a(p).ok
    assert bk.verify_condition_b(p).ok
    assert bk.rank_conditions(p).ok
    seq = bk.assemble(p)
    assert seq.ideal_strings() == PRODUCT_IDEAL
    # codimension 3 by both routes
    assert gb.krull_dim(seq.ideal) == 3  # dim 3 in n = 6, so codim 3
    cone = bk.cone_resolution(p, seq)
    q = rl.hilbert_numerator(cone)
    assert rl.q_vanishing(q, 3) == [True, True, True]
    assert q.derivative_at_one(3) != 0
    _report(1, "verify+assemble, exact ideal, codim 3 twice", t0, 30)


def test_acceptance_2_second_example_reproduction():
    t0 = time.time()
    p = load_problem("example2.json")
    assert len(p.betas) == 12
    assert bk.verify_condition_a(p).ok
    assert bk.verify_condition_b(p).ok
    assert bk.nontriviality(p).verdict
    seq = bk.assemble(p)
    first = bk.assemble(load_problem("example1.json"))
    assert gb.equal(seq.ideal, first.ideal)
    assert seq.ideal_strings() == first.ideal_strings()
    rep = rl.numerical_conditions(p.n, p.t, None, p.d, list(p.F.twists),
                                  list(p.G.twists), solve_c=True)
    assert rep.inferred_c == 0
    assert rep.all_hold()
    _report(2, "12-member family, non-trivial, same ideal, conditions 1-3",
            t0, 120)


def test_acceptance_3_third_example_reproduction():
    t0 = time.time()
    p = load_problem("example3.json")
    assert bk.verify_condition_a(p).ok
    assert bk.verify_condition_b(p).ok
    assert bk.nontriviality(p).verdict
    seq = bk.assemble(p)
    expected = (["x1^3"] + [f"x1^2*x{i}" for i in range(2, 7)]
                + ["x2^5*x5", "x2^5*x6", "x2*x6^5", "x3*x6^5"])
    assert seq.ideal_strings() == expected
    assert gb.krull_dim(seq.ideal) == 3
    cone = bk.cone_resolution(p, seq)
    q = rl.hilbert_numerator(cone)
    assert rl.q_vanishing(q, 3) == [True, True, True]
    assert q.derivative_at_one(3) != 0
    _report(3, "shifted case, non-trivial, exact ideal, codim 3 twice",
            t0, 300)


def test_acceptance_4_euler_kernel_rejection():
    t0 = time.time()
    for n in (3, 4, 5, 6):
        fam = kz.generate_A(n, 0)
        assert len(fam) == 1
        phi = fam[0].to_functional()
        ker = gb.kernel(phi)
        assert gb.equal(ker, kz.E(n, 2).gens)
        # the verifier must refute any family outside the kernel
        beta = Vec(n, {(0, (0,) * n): Fraction(1)})
        G = GradedFreeModule(n, [1])
        f = ModuleMap.zero(GradedFreeModule(n, []), G)
        p = bk.BSequenceProblem(n, 0, "E_only", [beta], phi, f)
        assert not bk.verify_condition_a(p).ok
    _report(4, "Euler-form kernel equals E_2 for n=3..6; attempts refuted",
            t0, 60)


def _random_synthetic(rng):
    from test_bourbaki import _random_synthetic as impl
    return impl(rng)


def test_acceptance_5_kernel_condition_equivalence():
    t0 = time.time()
    rng = random.Random(20240)
    successes = 0
    attempts = 0
    while successes < 25 and attempts < 250:
        attempts += 1
        p = _random_synthetic(rng)
        if p is None:
            continue
        assert bk.verify_condition_a(p).ok
        assert bk.verify_condition_b(p).ok
        bk.assemble(p)  # audited exactness; raises on failure
        successes += 1
    assert successes >= 25
    # converse: data extracted from an audited sequence re-verifies after
    # re-lifting the generators through the presentation
    p = load_problem("example2.json")
    kere = list(p.kere.vectors)
    betas = list(p.betas)
    for i in (6, 7):  # the two degree-5 members admit degree-2 shifts
        r = kere[0]
        gap = betas[i].homogeneous_degree(p.U) - r.homogeneous_degree(p.U)
        exp = [0] * p.n
        exp[i % p.n] = gap
        betas[i] = betas[i] + r.mul_poly(Polynomial.monomial(p.n, exp, Fraction(1)))
    q = bk.BSequenceProblem(p.n, p.t, p.shape, betas, p.phi, p.f, d=p.d)
    assert bk.verify_condition_a(q).ok
    assert bk.verify_condition_b(q).ok
    bk.assemble(q)
    _report(5, f"{successes} synthetic instances assemble; extraction "
               "re-verifies", t0, 600)


def test_acceptance_6_koszul_invariant_suite():
    t0 = time.time()
    # differentials square to zero for n <= 6
    for n in range(2, 7):
        for s in range(2, n + 1):
            assert compose(kz.koszul_differential(n, s - 1),
                           kz.koszul_differential(n, s)).is_zero()
    # exactness for n <= 5
    for n in range(2, 6):
        for s in range(1, n):
            assert gb.equal(gb.kernel(kz.koszul_differential(n, s)),
                            kz.E(n, s + 1).gens)
    # sign anticommutativity on 200 random disjoint pairs
    rng = random.Random(123)
    for _ in range(200):
        pool = list(range(1, 9))
        rng.shuffle(pool)
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        J = tuple(sorted(pool[:a]))
        K = tuple(sorted(pool[a:a + b]))
        assert kz.sigma(J, K) * kz.sigma(K, J) == (-1) ** (len(J) * len(K))
    # the functional families annihilate the next syzygy modules (n <= 6)
    for n in range(2, 7):
        for t in range(0, n - 1):
            d_next = kz.koszul_differential(n, t + 2)
            for a in kz.generate_A(n, t):
                assert compose(a.to_functional(), d_next).is_zero()
        d_top = kz.koszul_differential(n, n)
        for bb in kz.generate_B(n):
            assert compose(bb.to_functional(), d_top).is_zero()
    # self-duality of syzygy modules, all positions, n <= 6
    for n in range(2, 7):
        for i in range(1, n + 1):
            assert selfduality_check(n, i)
    # ranks
    for n in range(2, 7):
        for s in range(1, n + 1):
            assert kz.E(n, s).rank == binomial(n - 1, s - 1)
    _report(6, "d^2=0, exactness, signs, annihilation, self-duality, ranks",
            t0, 600)


def _ideal(n, *texts):
    from bseq.rings import parse_polynomial
    amb = GradedFreeModule(n, [0])
    gens = []
    for t in texts:
        p = parse_polynomial(t, n)
        gens.append(Vec(n, {(0, e): c for e, c in p.terms.items()}))
    return gb.SubmoduleGens(amb, gens)


def test_acceptance_7_hilbert_consistency():
    t0 = time.time()
    corpus = [
        _ideal(6, *PRODUCT_IDEAL),
        _ideal(6, "x1^3", "x1^2*x2", "x1^2*x3", "x1^2*x4", "x1^2*x5",
               "x1^2*x6", "x2^5*x5", "x2^5*x6", "x2*x6^5", "x3*x6^5"),
        _ideal(3, "x1", "x2", "x3"),
        _ideal(3, "x1^2", "x2^3"),
        _ideal(3, "x1*x2", "x2*x3", "x1*x3"),
        _ideal(4, "x1*x2 - x3*x4"),
        _ideal(4, "x1^2", "x2^2", "x3^2", "x4^2"),
        _ideal(2, "x1^3*x2"),
        _ideal(5, "x1*x2", "x3*x4*x5"),
        _ideal(3, "x1^2 - x2*x3", "x2^2 - x1*x3"),
        _ideal(6, "x1*x4", "x2*x5"),
    ]
    assert len(corpus) >= 10
    for ideal in corpus:
        n = ideal.ambient.n
        fp = __import__("bseq.modules", fromlist=["FPModule"]).FPModule(
            ideal.ambient, list(ideal.vectors))
        cc, _ = rl.minimal_resolution(fp)
        q = rl.hilbert_numerator(cc)
        assert q.series(12) == hilbert_function(ideal, 12)
    # closed forms against exact derivatives over the proof-shaped numerator
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(4, 8)
        t = rng.randint(0, n - 4)
        c = rng.randint(-3, 4)
        d = rng.randint(-3, 4)
        p_count = rng.randint(1, 4)
        q_count = p_count + binomial(n - 1, t) + n - 2
        a = [rng.randint(1, 9) for _ in range(p_count)]
        b = [rng.randint(1, 9) for _ in range(q_count)]
        shape_q = numerator_from_shape(n, t, c, d, a, b)
        rep = rl.numerical_conditions(n, t, c, d, a, b)
        assert rep.cond2[0] == (shape_q.derivative_at_one(1) == 0)
        forced = rep.cond2[2] - (sum(b) - b[-1]) + sum(a)
        b2 = b[:-1] + [forced]
        shape_q2 = numerator_from_shape(n, t, c, d, a, b2)
        rep2 = rl.numerical_conditions(n, t, c, d, a, b2)
        assert shape_q2.derivative_at_one(1) == 0
        assert rep2.cond3[0] == (shape_q2.derivative_at_one(2) == 0)
    _report(7, "11-ideal corpus series match; 50 random twist tuples",
            t0, 600)


def test_acceptance_8_local_cohomology_patterns():
    t0 = time.time()
    pattern = rl.cohomology_pattern(kz.E(6, 2).fp)
    nonzero = {j: e for j, e in pattern.items() if e.dims}
    assert list(nonzero) == [4]
    assert sum(nonzero[4].dims.values()) == 1
    assert nonzero[4].finite_length

    split = fp_direct_sum(kz.E(6, 1).fp, kz.E(6, 5, 1).fp)
    pattern = rl.cohomology_pattern(split)
    nonzero = {j: e for j, e in pattern.items() if e.dims}
    assert sorted(nonzero) == [1, 5]
    for j in (1, 5):
        assert sum(nonzero[j].dims.values()) == 1
        assert nonzero[j].finite_length
    _report(8, "one Ext spot for E_2; two one-dimensional spots for the sum",
            t0, 120)
