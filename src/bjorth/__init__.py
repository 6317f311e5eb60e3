"""Birkhoff-James orthogonality toolkit for finite-dimensional normed spaces.

Compute norms and support functionals over a composable family of spaces
(p-norms, the max norm, Day-James planes, and their max-sums), decide
Birkhoff-James orthogonality and acute/obtuse angle relations with
independent minimization oracles, construct norm-preserving orthogonality
preservers between the Euclidean plane and smooth Radon planes together
with their max-sum liftings, and certify the geometry by seeded sampling.
"""

__version__ = "0.1.0"

from .errors import (
    BadDimension,
    BjorthError,
    DegenerateSection,
    DimensionMismatch,
    EmptySum,
    InvalidCount,
    InvalidExponent,
    InvalidMargin,
    MonotonicityViolation,
    NoBracket,
    NonConvergence,
    NonFiniteInput,
    NotAPlane,
    NotRadonPlane,
    NotSmooth,
    ParseError,
    ZeroDirection,
    ZeroVector,
)
from .spaces import (
    TAU_SUP,
    TAU_TIE,
    DayJames,
    InfSum,
    LInf,
    Lp,
    NormedSpace,
    format_space,
    load_space_file,
    pairing_angle,
    parse_space,
    space_to_dict,
    unit_vector_at_angle,
    validate_space,
)
from .orthogonality import (
    MARGIN,
    AngleRelation,
    AngleTag,
    classify_angle,
    classify_many,
    is_bj_orthogonal,
    is_bj_orthogonal_oracle,
    is_mutually_orthogonal,
    one_sided_acute_many,
    one_sided_acute_oracle,
    oracle_exclusion_band,
    oracle_min_over_line,
    orthogonal_direction,
)
from .preserver import (
    EUCLIDEAN_PLANE,
    IdentityMap,
    PreserverMap,
    RadonPlaneMap,
    SumMap,
    VerificationReport,
    build_preserver,
    compose_inf_sum,
    pairing_table,
    verify_preserver,
)
from .analysis import (
    Orthograph,
    RadonScan,
    SectionCandidate,
    SmoothnessProbe,
    SumAcuteReport,
    euclidean_section_search,
    parallelogram_defect,
    radon_defect,
    sample_orthograph,
    section_candidates,
    smoothness_probe,
    sum_acute_equivalence_check,
)
