"""The four-dimensional spectral-set-that-is-not-a-tile construction.

The construction rests on one 6x6 integer matrix whose third gives a
log-Hadamard matrix.  That matrix has rank 4 mod 3 and factors mod 3 into a
6x4 times a 4x6 product; the right factor's columns form a six-point set in
Z^4 and the left factor's rows are its spectrum over denominator 3.  Six
does not divide 3^4, so the set cannot tile Z_3^4.  Composing with a cube of
side n keeps the composed set 3n-spectral while the finite non-tiling
obstructions persist.

:func:`run_counterexample` builds the chain's premises (the bundled data,
a fresh factorization and both base non-tiling verdicts) and checks every
claim with the checks that parse runs on a stored bundle, in
``certio._COUNTEREXAMPLE_CHECKS``.  It returns one timed step per check and
a self-contained certificate envelope built from the checked fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .certio import (
    _COUNTEREXAMPLE_CHECKS,
    SCHEMA_VERSION,
    CertificateEnvelope,
    InvariantViolation,
    ProvenanceEntry,
    _Facts,
)
from .guard import GuardExceeded
from .modlinalg import parse_matrix, rank_factorize_mod_p, RankFactorization
from .spectral import GroupSpec, PhaseMatrix, PointSet, SpectrumCertificate
from .tiling import decide_m_tile

__all__ = [
    "PHASE_DENOMINATOR",
    "HADAMARD_EXPONENTS",
    "SPECTRUM_ROWS",
    "POINT_COLUMNS",
    "DATA_FILES",
    "data_path",
    "base_point_set",
    "base_spectrum_certificate",
    "published_factorization",
    "PipelineStep",
    "PipelineReport",
    "run_counterexample",
]

PHASE_DENOMINATOR = 3

DATA_FILES = {
    "hadamard_exponents": "hadamard_exponents.txt",
    "spectrum_rows": "spectrum_rows.txt",
    "point_columns": "point_columns.txt",
}

_DATA_DIR = Path(__file__).resolve().parent / "data"


def data_path(name: str) -> Path:
    """Path to a bundled fixture file, e.g. data_path('hadamard_exponents.txt')."""
    path = _DATA_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


# 6x6 exponent matrix: divided by 3 it is log-Hadamard.
HADAMARD_EXPONENTS = parse_matrix(data_path(DATA_FILES["hadamard_exponents"]).read_text())

# 6x4 left factor: its rows are the spectrum of the six-point set.
SPECTRUM_ROWS = parse_matrix(data_path(DATA_FILES["spectrum_rows"]).read_text())

# 4x6 right factor: its columns are the six points in Z^4.
POINT_COLUMNS = parse_matrix(data_path(DATA_FILES["point_columns"]).read_text())


def base_point_set() -> PointSet:
    """The six points in Z^4: the columns of the right factor."""
    return PointSet(
        POINT_COLUMNS.rows,
        tuple(POINT_COLUMNS.column(j) for j in range(POINT_COLUMNS.cols)),
    )


def base_spectrum_certificate() -> SpectrumCertificate:
    return SpectrumCertificate(
        GroupSpec(PHASE_DENOMINATOR, POINT_COLUMNS.rows),
        base_point_set(),
        PhaseMatrix(SPECTRUM_ROWS, PHASE_DENOMINATOR),
    )


def published_factorization() -> RankFactorization:
    return RankFactorization(
        modulus=PHASE_DENOMINATOR,
        left=SPECTRUM_ROWS,
        right=POINT_COLUMNS,
        rank=SPECTRUM_ROWS.cols,
    )


@dataclass(frozen=True)
class PipelineStep:
    name: str
    passed: bool
    detail: str
    certificate: str  # field path inside the envelope payload
    seconds: float


@dataclass(frozen=True)
class PipelineReport:
    side_count: int
    steps: tuple[PipelineStep, ...]
    envelope: CertificateEnvelope | None

    @property
    def overall(self) -> bool:
        return all(step.passed for step in self.steps)


def _provenance(n: int) -> tuple[ProvenanceEntry, ...]:
    # Each entry describes how the bundle was made, and no check reads it.
    # The wording is kept so the bundle stays byte-identical: "build_extension"
    # names the extension, which is the composed spectrum's set.
    return (
        ProvenanceEntry("is_log_hadamard", ("phase_exponents",)),
        ProvenanceEntry("rank_mod_p", ("phase_exponents", "p=3")),
        ProvenanceEntry(
            "matmul_mod",
            ("published_factorization.left", "published_factorization.right", "m=3"),
        ),
        ProvenanceEntry("rank_factorize_mod_p", ("phase_exponents", "p=3")),
        ProvenanceEntry("is_m_spectral", ("base_spectrum.set", "base_spectrum.spectrum")),
        ProvenanceEntry("decide_m_tile", ("base_spectrum.set", "group=Z_3^4")),
        ProvenanceEntry(
            "decide_m_tile",
            ("base_spectrum.set", "group=Z_3^4", "divisibility_shortcut=False"),
        ),
        ProvenanceEntry("cube_spectrum", (f"n={n}", "dimension=4")),
        ProvenanceEntry("compose_spectral", ("base_spectrum", f"cube_spectrum(n={n})")),
        ProvenanceEntry("build_extension", ("base_spectrum.set", "m=3", f"n={n}")),
        ProvenanceEntry("extension_obstructions", ("base_spectrum.set", "m=3", f"n={n}")),
    )


def run_counterexample(n: int = 2, guard: int | None = None) -> PipelineReport:
    """Build the construction's premises for cube side n and check them.

    The checks are the ones parse runs on a stored bundle, one timed step
    each; the first that fails ends the report.  When every step passes the
    report carries a self-contained certificate envelope that any third
    party can re-verify without rerunning the searches.
    """
    if n < 1:
        raise ValueError(f"side count must be at least 1, got {n}")
    m = PHASE_DENOMINATOR
    group = GroupSpec(m, POINT_COLUMNS.rows)
    # Each premise is built inside the step that checks it, so its time is
    # the step's own.
    facts = _Facts(
        {
            "side_count": lambda: n,
            "phase_exponents": lambda: PhaseMatrix(HADAMARD_EXPONENTS, m),
            "published_factorization": published_factorization,
            "computed_factorization": lambda: rank_factorize_mod_p(HADAMARD_EXPONENTS, m),
            "base_non_tiling_divisibility": lambda: decide_m_tile(base_point_set(), group, guard),
            "base_non_tiling_search": lambda: decide_m_tile(
                base_point_set(), group, guard, divisibility_shortcut=False
            ),
        },
        guard=guard,
    )
    steps: list[PipelineStep] = []
    for name, certificate, check in _COUNTEREXAMPLE_CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = True, check(facts)
        except GuardExceeded:
            raise  # a limit the caller set, not a failed claim
        except InvariantViolation as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # surfaced in the report, not swallowed
            passed, detail = False, f"error: {exc}"
        steps.append(PipelineStep(name, passed, detail, certificate, time.perf_counter() - start))
        if not passed:
            return PipelineReport(side_count=n, steps=tuple(steps), envelope=None)
    envelope = CertificateEnvelope(SCHEMA_VERSION, "counterexample", facts.record(), _provenance(n))
    return PipelineReport(side_count=n, steps=tuple(steps), envelope=envelope)
