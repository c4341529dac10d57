"""Certificate-producing decisions for spectral sets and translational tiles
in finite abelian groups Z_m^d, built on exact integer arithmetic throughout:
cyclotomic divisibility decides root-of-unity sums, Gaussian elimination over
prime fields decides ranks and factorizations, and backtracking exact cover
decides tilings.  Every affirmative answer comes with a re-checkable
certificate and every refusal with auditable evidence."""

from .cyclotomic import cyclotomic_polynomial, is_vanishing_sum
from .guard import DEFAULT_GUARD, GUARD_ENV_VAR, GuardExceeded
from .modlinalg import (
    IntMatrix,
    RankFactorization,
    det_and_adjugate,
    format_matrix,
    is_rank_factorization,
    matmul_mod,
    parse_matrix,
    rank_factorize_mod_p,
    rank_mod_p,
)
from .spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    cube_spectrum,
    find_spectrum,
    format_phase_matrix,
    format_point_set,
    fourier_zero_set,
    is_log_hadamard,
    is_m_spectral,
    lift_spectrum,
    parse_phase_matrix,
    parse_point_set,
    verify_spectrum,
)
from .tiling import (
    DivisibilityObstruction,
    DuplicateResidues,
    ExhaustedSearch,
    ExtensionObstructionReport,
    IndependenceChain,
    NonTilingCertificate,
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    extension_obstructions,
    independent_tile,
    lift_tile,
    replay_search,
    verify_tiling,
)
from .certio import (
    CertificateEnvelope,
    CertificateError,
    CompositionRecord,
    CounterexampleRecord,
    InvariantViolation,
    LiftRecord,
    MalformedCertificate,
    ProvenanceEntry,
    SchemaVersionError,
    parse,
    serialize,
    trust_marker,
    verify_envelope,
)
from .counterexample import (
    HADAMARD_EXPONENTS,
    PHASE_DENOMINATOR,
    POINT_COLUMNS,
    SPECTRUM_ROWS,
    PipelineReport,
    PipelineStep,
    base_point_set,
    base_spectrum_certificate,
    data_path,
    published_factorization,
    run_counterexample,
)

__version__ = "0.1.0"
