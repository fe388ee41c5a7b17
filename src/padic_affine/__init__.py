"""Exact arithmetic for the infinite-dimensional p-adic affine group, its
action on step functions and Poisson configurations, pushforward measures,
Radon-Nikodym densities, and an audit suite for the claimed identities."""

from .affine import (
    AffineElement,
    SectionPair,
    composition_defect,
    multiply,
    pair_product,
)
from .errors import (
    ContextMismatch,
    ContractViolation,
    KindMismatch,
    OverlappingParts,
    PadicAffineError,
    ParseError,
    UnboundedIntegral,
    UnsupportedShape,
    WindowMismatch,
)
from .measure import (
    IntensityMeasure,
    pushforward,
    roundtrip_defect,
)
from .padic import (
    Ball,
    ClopenSet,
    Padic,
    PadicContext,
)
from .poisson import (
    Configuration,
    CountEvent,
    CylinderFunction,
    Exponential,
    Polynomial,
    expect_exact,
    expect_mc,
    pair_sum,
    required_depth,
    sample_config,
)
from .representation import (
    CheckReport,
    check_ergodic_inequality,
    check_factorization,
    check_invariance,
    check_isometry,
    check_isometry_mc,
    check_laplace,
    check_laplace_mc,
    check_dual_pairing,
    check_rn_identity,
    check_rn_identity_mc,
    decoupler_postconditions,
    find_decoupler,
    rn_density,
    rn_factors,
)
from .stepfn import PADIC, REAL, StepFunction

__version__ = "0.1.0"
