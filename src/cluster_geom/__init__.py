"""Exact arithmetic for cluster mutation theory and its rank-2 geometry."""

from .errors import (
    ClusterGeomError,
    LaurentViolation,
    PreconditionError,
    ResourceLimitExceeded,
    UnsupportedError,
    ValidationError,
)
from .explore import (
    ExchangeGraph,
    SeedNode,
    explore,
    root_node,
    step,
    verify_laurent_A,
    verify_laurent_X,
)
from .intmat import (
    Matrix,
    cokernel_invariants,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from .laurent import (
    LaurentPolynomial,
    RationalExpression,
    binomial_power,
    exact_divide,
    pullback_A,
    pullback_X,
)
from .rank2 import (
    BlowupSurface,
    DivisorClass,
    Fan2D,
    KGram,
    Rank2Data,
    blowup_surface,
    build_seed,
    classify_definiteness,
    complete_smooth_fan,
    fg_failure_flag,
    invariance_check,
    non_fg_flag,
    seed_to_rank2,
    self_intersections,
    symmetric_form,
)
from .seeds import (
    FixedData,
    PrincipalSeed,
    Seed,
    epsilon_from_basis,
    fan_mutation_consistency,
    fan_rays_A,
    fan_rays_X,
    is_coprime_seed,
    mutate_along,
    mutate_epsilon,
    mutate_seed,
    p_star_matrix,
    picard_invariants,
    principal_double,
    root_seed,
    seed_from_epsilon,
    totally_coprime_sufficient,
    tropical_mutation_A,
    tropical_mutation_X,
)

__version__ = "0.1.0"
