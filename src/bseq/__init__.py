"""Exact computer algebra for b-sequences and long Bourbaki sequences.

Everything runs over the standard-graded polynomial ring K[x1..xn] with
exact coefficients (rationals by default, prime fields on request): Gröbner
bases for submodules of graded free modules, the Koszul complex with its
syzygy modules and dual generator families, minimal free resolutions and
mapping cones, Hilbert-series codimension tests, and the kernel conditions
that certify long Bourbaki sequences.
"""

from .rings import (
    PrimeField,
    RATIONALS,
    Polynomial,
    binomial,
    parse_polynomial,
)
from .modules import (
    ChainComplex,
    FPModule,
    GradedFreeModule,
    ModuleMap,
    Vec,
    compose,
    direct_sum,
    homogeneity_check,
    subquotient_presentation,
)
# the submodule name `bseq.groebner` stays bound to the module; the basis
# constructor itself is reachable as bseq.groebner.groebner
from .groebner import (
    GroebnerBasis,
    SubmoduleGens,
    intersect,
    kernel,
    krull_dim,
    lift,
    normal_form,
    syzygies,
)
from .koszul import (
    E,
    KoszulVector,
    generate_A,
    generate_B,
    koszul_differential,
    sigma,
)
from .resolution import (
    BettiTable,
    HilbertNumerator,
    cohomology_pattern,
    hilbert_numerator,
    mapping_cone,
    minimal_resolution,
    numerical_conditions,
    q_vanishing,
)
from .bourbaki import (
    BSequenceProblem,
    BourbakiSequence,
    assemble,
    nontriviality,
    problem_from_manifest,
    rank_conditions,
    verify_condition_a,
    verify_condition_b,
)

__version__ = "0.1.0"
