"""Synthesis rejects phi by Hilbert numerators: agreement with the kernel
route that it replaced (``oracles.synthesize_by_kernels``) on every synth
draw, and the n = 6 draws that the kernel route stalled on."""

from collections import Counter

import pytest

from bseq import bourbaki as bk
from bseq import groebner as gb
from bseq import koszul as kz
from bseq.rings import RATIONALS, PrimeField, merge_terms

from conftest import load_bench_workloads, record_runs, synth_draws
from oracles import synthesize_by_kernels

FIELDS = [RATIONALS, PrimeField(32003)]
FIELD_IDS = ["Q", "F32003"]


def spy_calls(monkeypatch, calls):
    """Count, in ``calls``, the tail numerators, the minimal generating
    sets and the kernels into a quotient (``target_relations``) asked for
    from here on."""
    tail, minimal, kernel = (kz.tail_numerator, gb.minimal_generators,
                             gb.kernel)

    def spy_tail(*args):
        calls["tail_numerator"] += 1
        return tail(*args)

    def spy_minimal(gens):
        calls["minimal_generators"] += 1
        return minimal(gens)

    def spy_kernel(f, target_relations=None, image=None):
        calls["kernel_into_quotient"] += target_relations is not None
        return kernel(f, target_relations, image=image)

    monkeypatch.setattr(kz, "tail_numerator", spy_tail)
    monkeypatch.setattr(gb, "minimal_generators", spy_minimal)
    monkeypatch.setattr(gb, "kernel", spy_kernel)


def route(record, calls):
    """How synthesis decided a draw, read off the calls it made."""
    if record["accepted"]:
        return "accepted"
    if not calls["tail_numerator"]:
        return "phi(Ker eps) != 0"
    if not calls["minimal_generators"]:
        return "N(Im g) = 0"
    if not calls["kernel_into_quotient"]:
        return "N(Ker g) < 0"
    return "not injective"


def ker_g_numerator(p):
    """N(Ker g) = N(G) - N(U/Ker eps) + N(U/(<beta> + Ker eps)), read off
    the leads of the problem's own runs: no Koszul closed form, no Im phi."""
    num = merge_terms(dict(Counter(p.G.twists)), gb.quotient_numerator(p.kere),
                      subtract=True)
    return merge_terms(num, gb.quotient_numerator(p.beta_kere()))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_numerators_agree_with_the_kernel_route(monkeypatch, field):
    """Every synth draw gives the benchmark record of the kernel route.
    30 draws are rejected by N(Im g) = 0 before Ker phi's minimal
    generators, 18 by a negative coefficient of N(Ker g) before any
    kernel into U/Ker eps, and 84 are accepted, each with N(Ker g) =
    Σ λ^a over F's twists."""
    workloads = load_bench_workloads()
    routes = Counter()
    for n, t, shape, d, phi in synth_draws(field):
        calls, built = Counter(), []
        synthesize = bk.synthesize_from_phi

        def keep(*args, **kwargs):
            built.append(synthesize(*args, **kwargs))
            return built[-1]

        with monkeypatch.context() as m:
            spy_calls(m, calls)
            m.setattr(bk, "synthesize_from_phi", keep)
            ours = workloads.synth_record(n, t, shape, phi, d)
        with monkeypatch.context() as m:
            m.setattr(bk, "synthesize_from_phi", synthesize_by_kernels)
            theirs = workloads.synth_record(n, t, shape, phi, d)
        assert ours == theirs, (n, t, shape, d)
        routes[route(ours, calls)] += 1
        if ours["accepted"]:
            assert ker_g_numerator(built[0]) == dict(Counter(ours["F"]))
    assert routes == {"accepted": 84, "N(Im g) = 0": 30, "N(Ker g) < 0": 18}


# phi of bench/workloads.synth_phi((6, "E_plus_top", 0, 0, 1), i) for
# i = 0 and 2: the kernel route took minutes on each before it rejected it
STALL_N6 = [
    {"n": 6, "source_twists": [1] * 6 + [5] * 6, "target_twists": [6],
     "entries": [
         "-x1*x5", "-x2*x5", "-x3*x5", "-x4*x5", "-x5^2", "-x5*x6",
         "x1*x3^2*x4^2*x5 - x1^4*x4*x6 - x2*x3^2*x4*x6^2"
         " - x1*x2*x4^2*x6^2",
         "x1*x3^2*x4^2*x6 - x2^3*x3*x5*x6",
         "x1^3*x2*x4*x5 + x1*x2^2*x3*x5^2 + x2*x3*x4^2*x5*x6",
         "x1^2*x2^2*x5^2 + x2*x4^3*x5*x6 - x2*x3*x4*x6^3",
         "-x1*x2*x3*x4*x5^2 - x1^2*x2*x3*x5*x6 - x2^2*x3*x5^2*x6"
         " + x1*x4^2*x6^3",
         "x1^2*x2*x4^2*x5 - x1*x2^2*x3*x5^2 - x1*x2^2*x3*x5*x6"
         " - x1^3*x4*x6^2"],
     "shift": 7},
    {"n": 6, "source_twists": [1] * 6 + [5] * 6, "target_twists": [6],
     "entries": [
         "x1*x4", "x2*x4", "x3*x4", "x4^2", "x4*x5", "x4*x6",
         "-x1^2*x3^3*x4 - x1*x2^2*x3*x5^2 + x3*x4*x5^4",
         "-x1^2*x2*x3*x4^2 - x2*x3*x4^2*x5*x6 + x3*x4*x5^3*x6"
         " - x2^3*x5*x6^2",
         "-x1^4*x2^2 + x1^2*x2^3*x5 - x1^2*x2*x3*x4*x5",
         "-x1^2*x3^2*x4*x6 - x2^2*x3^2*x4*x6 - x1*x2*x3*x4*x5*x6"
         " + x2*x4^2*x5^2*x6",
         "x1^4*x2*x4 - x2*x3^3*x4*x6 - x1^2*x3^2*x5*x6"
         " + x1*x2*x3*x5^2*x6 - x2^2*x5^2*x6^2",
         "x1*x2^3*x4*x5 - x1*x2*x3^2*x5*x6 + x2*x3^2*x4*x5*x6"],
     "shift": 7},
]


def test_the_stall_data_are_the_benchmark_draws():
    workloads = load_bench_workloads()
    for index, data in zip((0, 2), STALL_N6):
        phi = workloads.synth_phi((6, "E_plus_top", 0, 0, 1), index)
        assert bk.load_map_json(data) == phi


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("data", STALL_N6, ids=["index-0", "index-2"])
def test_n6_stall_draws_are_rejected_before_ker_g(monkeypatch, data, field):
    """Both draws are rejected by their numerators: no run over
    <beta> + Ker eps, and no kernel into U/Ker eps, is built."""
    kere = bk.Presentation(6, 0, 0, "E_plus_top", field).image(1).vectors
    calls = Counter()
    spy_calls(monkeypatch, calls)
    runs = record_runs(monkeypatch)
    phi = bk.load_map_json(data, field=field)
    assert bk.synthesize_from_phi(6, 0, "E_plus_top", phi) is None
    assert calls["tail_numerator"] == 1
    assert calls["kernel_into_quotient"] == 0
    assert not any(len(vectors) > len(kere) and vectors[-len(kere):] == kere
                   for _, vectors in runs)
