"""The four-dimensional spectral-set-that-is-not-a-tile construction.

The construction rests on one 6x6 integer matrix whose third gives a
log-Hadamard matrix.  That matrix has rank 4 mod 3 and factors mod 3 into a
6x4 times a 4x6 product; the right factor's columns form a six-point set in
Z^4 and the left factor's rows are its spectrum over denominator 3.  Six
does not divide 3^4, so the set cannot tile Z_3^4.  Composing with a cube of
side n keeps the composed set 3n-spectral while the finite non-tiling
obstructions persist.

Every claim in that chain is executed and re-checked by
:func:`run_counterexample`, which returns a step-by-step report and a
self-contained certificate envelope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .certio import (
    SCHEMA_VERSION,
    CertificateEnvelope,
    CounterexampleRecord,
    ProvenanceEntry,
)
from .guard import GuardExceeded
from .modlinalg import (
    is_rank_factorization,
    parse_matrix,
    rank_factorize_mod_p,
    rank_mod_p,
    RankFactorization,
)
from .spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    cube_spectrum,
    is_log_hadamard,
    verify_spectrum,
)
from .tiling import (
    DivisibilityObstruction,
    ExhaustedSearch,
    NonTilingCertificate,
    _obstruction_report,
    decide_m_tile,
)

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
    certificate: str  # field path inside the envelope payload, "" if none
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
    """Execute and re-check the whole construction for cube side n.

    Returns a report with one timed pass/fail step per claim.  When every
    step passes the report carries a self-contained certificate envelope
    that any third party can re-verify without rerunning the searches.
    """
    if n < 1:
        raise ValueError(f"side count must be at least 1, got {n}")
    steps: list[PipelineStep] = []
    # What the steps build, by name, for the steps after them and the envelope.
    made: dict[str, Any] = {}

    def step(name: str, certificate: str, check) -> bool:
        # Each step's work runs inside it, so its time is its own.
        start = time.perf_counter()
        try:
            passed, detail = check()
        except GuardExceeded:
            raise  # a limit the caller set, not a failed claim
        except Exception as exc:  # surfaced in the report, not swallowed
            passed, detail = False, f"error: {exc}"
        steps.append(PipelineStep(name, passed, detail, certificate, time.perf_counter() - start))
        return passed

    m = PHASE_DENOMINATOR
    phase = PhaseMatrix(HADAMARD_EXPONENTS, m)
    pairs = HADAMARD_EXPONENTS.rows * (HADAMARD_EXPONENTS.rows - 1) // 2
    step(
        "phase-matrix-log-hadamard",
        "payload.phase_exponents",
        lambda: (is_log_hadamard(phase), f"all {pairs} row pairs vanish exactly"),
    )

    def check_rank():
        rank = made["rank"] = rank_mod_p(HADAMARD_EXPONENTS, m)
        return rank == 4, f"rank {rank} mod {m}"

    step("rank-mod-3", "payload.rank", check_rank)

    published = published_factorization()
    step(
        "published-factorization",
        "payload.published_factorization",
        lambda: (
            is_rank_factorization(HADAMARD_EXPONENTS, published),
            "left @ right re-multiplies to the phase matrix mod 3",
        ),
    )

    def check_fresh():
        computed = made["computed"] = rank_factorize_mod_p(HADAMARD_EXPONENTS, m)
        return (
            is_rank_factorization(HADAMARD_EXPONENTS, computed) and computed.rank == 4,
            f"canonical factorization re-multiplies, rank {computed.rank}",
        )

    step("fresh-factorization", "payload.computed_factorization", check_fresh)

    base_cert = base_spectrum_certificate()
    step(
        "base-set-spectral",
        "payload.base_spectrum",
        lambda: (verify_spectrum(base_cert), f"{len(base_cert.set)} points, denominator {m}"),
    )

    group = GroupSpec(m, base_cert.set.dimension)

    def check_divisibility():
        verdict = made["divisibility"] = decide_m_tile(base_cert.set, group, guard)
        ok = isinstance(verdict, NonTilingCertificate) and isinstance(
            verdict.reason, DivisibilityObstruction
        )
        if not ok:
            return False, "expected a divisibility obstruction"
        reason = verdict.reason
        return True, f"{reason.set_size} does not divide {reason.group_order}"

    step(
        "base-set-not-a-tile-divisibility",
        "payload.base_non_tiling_divisibility",
        check_divisibility,
    )

    def check_search():
        verdict = made["search"] = decide_m_tile(
            base_cert.set, group, guard, divisibility_shortcut=False
        )
        ok = isinstance(verdict, NonTilingCertificate) and isinstance(
            verdict.reason, ExhaustedSearch
        )
        if not ok:
            return False, "expected an exhausted exact-cover search"
        return True, f"search exhausted after {verdict.reason.nodes} nodes"

    step("base-set-not-a-tile-exhaustive", "payload.base_non_tiling_search", check_search)

    def check_composed():
        # compose_spectral verifies the base and the cube, and raises if
        # either fails; the product lemma makes the composed rows a spectrum.
        cube = cube_spectrum(n, base_cert.set.dimension, guard)
        composed = made["composed"] = compose_spectral(base_cert, cube)
        return True, (
            "product of the base spectrum and the cube spectrum, both verified: "
            f"{len(composed.set)} points, denominator {m * n}"
        )

    step("composed-set-spectral", "payload.composed_spectrum", check_composed)

    def check_obstructions():
        # Arithmetic, since the base set lies in [0, 3)^4; the verdict is reused.
        verdict = made["divisibility"]
        rep = made["obstructions"] = _obstruction_report(base_cert.set, m, n, verdict)
        ok = not rep.size_divides and rep.asymptotic_claim is not None
        return ok, (
            f"{rep.extension_size} does not divide {rep.extended_group_order}; "
            f"mod-{m} reduction multiplicity {rep.reduction_multiplicity}; "
            "asymptotic non-tiling recorded as a cited claim"
        )

    step("extension-obstructions", "payload.obstructions", check_obstructions)

    envelope = None
    if all(s.passed for s in steps):
        record = CounterexampleRecord(
            side_count=n,
            phase_exponents=phase,
            rank=made["rank"],
            published_factorization=published,
            computed_factorization=made["computed"],
            base_spectrum=base_cert,
            base_non_tiling_divisibility=made["divisibility"],
            base_non_tiling_search=made["search"],
            composed_spectrum=made["composed"],
            obstructions=made["obstructions"],
        )
        envelope = CertificateEnvelope(SCHEMA_VERSION, "counterexample", record, _provenance(n))
    return PipelineReport(side_count=n, steps=tuple(steps), envelope=envelope)
