"""Canonical JSON serialization of certificates, with verification on parse.

Envelope layout (schema version "1")::

    {
      "schema_version": "1",
      "kind": "<spectrum|tiling|non-tiling|composition|lift|independence-chain|counterexample>",
      "payload": { ... kind-specific record ... },
      "provenance": [{"operation": "...", "inputs": ["...", ...]}, ...]
    }

Every integer anywhere in the payload is encoded as a canonical decimal
string so arbitrary-precision values survive any JSON implementation.
Object keys are sorted and arrays keep the canonical orders the producing
operations define, so serializing the same envelope twice yields identical
bytes.

Parsing re-checks everything checkable without a search: spectrum and tiling
payloads are re-verified outright, compositions, lifts and independence
chains are recomputed and compared, and the counterexample bundle has each
component re-checked.  The one thing a static file cannot prove is an
exhausted-search node count; such certificates parse but carry a
"replay-required" trust marker (inside composite records an exhausted search
is corroborating evidence only - the load-bearing claims are re-checked).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Union

from . import spectral, tiling
from .modlinalg import IntMatrix, RankFactorization, is_rank_factorization, rank_mod_p
from .spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    composed_spectrum_rows,
    cube_spectrum,
    is_log_hadamard,
    verify_spectrum,
)
from .tiling import (
    ASYMPTOTIC_NON_TILING_CLAIM,
    DivisibilityObstruction,
    DuplicateResidues,
    ExhaustedSearch,
    ExtensionObstructionReport,
    IndependenceChain,
    NonTilingCertificate,
    TilingCertificate,
    build_extension,
    verify_tiling,
)

__all__ = [
    "SCHEMA_VERSION",
    "CertificateError",
    "MalformedCertificate",
    "SchemaVersionError",
    "InvariantViolation",
    "ProvenanceEntry",
    "CompositionRecord",
    "LiftRecord",
    "CounterexampleRecord",
    "CertificateEnvelope",
    "serialize",
    "parse",
    "verify_envelope",
    "trust_marker",
]

SCHEMA_VERSION = "1"


class CertificateError(ValueError):
    """Base class for certificate serialization and validation failures."""


class MalformedCertificate(CertificateError):
    """The input is not structurally a certificate envelope."""


class SchemaVersionError(CertificateError):
    """The envelope declares a schema version this code does not speak."""


class InvariantViolation(CertificateError):
    """The envelope is well-formed but its claims do not re-check."""


@dataclass(frozen=True)
class ProvenanceEntry:
    operation: str
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.operation:
            raise ValueError("provenance operation must be nonempty")
        object.__setattr__(self, "inputs", tuple(str(x) for x in self.inputs))


@dataclass(frozen=True)
class CompositionRecord:
    """Two certificates and their verified composition T + mS."""

    certificate_type: str  # "spectrum" or "tiling"
    left: SpectrumCertificate | TilingCertificate
    right: SpectrumCertificate | TilingCertificate
    result: SpectrumCertificate | TilingCertificate

    def __post_init__(self) -> None:
        expected = {"spectrum": SpectrumCertificate, "tiling": TilingCertificate}
        cls = expected.get(self.certificate_type)
        if cls is None:
            raise ValueError(f"unknown composition type {self.certificate_type!r}")
        for part in (self.left, self.right, self.result):
            if not isinstance(part, cls):
                raise ValueError(f"composition parts must be {cls.__name__}")


@dataclass(frozen=True)
class LiftRecord:
    """A certificate pulled back through an integer linear map."""

    certificate_type: str
    transform: IntMatrix
    base: SpectrumCertificate | TilingCertificate
    result: SpectrumCertificate | TilingCertificate

    def __post_init__(self) -> None:
        expected = {"spectrum": SpectrumCertificate, "tiling": TilingCertificate}
        cls = expected.get(self.certificate_type)
        if cls is None:
            raise ValueError(f"unknown lift type {self.certificate_type!r}")
        for part in (self.base, self.result):
            if not isinstance(part, cls):
                raise ValueError(f"lift parts must be {cls.__name__}")


@dataclass(frozen=True)
class CounterexampleRecord:
    """The full evidence bundle for the spectral-but-not-a-tile construction.

    A six-point set in Z^4 certified 3-spectral but not a 3-tile, extended by
    a cube into a 3n-spectral set whose finite non-tiling obstructions are
    attached.
    """

    side_count: int
    phase_exponents: PhaseMatrix
    rank: int
    published_factorization: RankFactorization
    computed_factorization: RankFactorization
    base_spectrum: SpectrumCertificate
    base_non_tiling_divisibility: NonTilingCertificate
    base_non_tiling_search: NonTilingCertificate
    composed_spectrum: SpectrumCertificate
    obstructions: ExtensionObstructionReport


PayloadType = Union[
    SpectrumCertificate,
    TilingCertificate,
    NonTilingCertificate,
    CompositionRecord,
    LiftRecord,
    IndependenceChain,
    CounterexampleRecord,
]

_KIND_PAYLOAD: dict[str, type] = {
    "spectrum": SpectrumCertificate,
    "tiling": TilingCertificate,
    "non-tiling": NonTilingCertificate,
    "composition": CompositionRecord,
    "lift": LiftRecord,
    "independence-chain": IndependenceChain,
    "counterexample": CounterexampleRecord,
}


@dataclass(frozen=True)
class CertificateEnvelope:
    schema_version: str
    kind: str
    payload: PayloadType
    provenance: tuple[ProvenanceEntry, ...]

    def __post_init__(self) -> None:
        cls = _KIND_PAYLOAD.get(self.kind)
        if cls is None:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if not isinstance(self.payload, cls):
            raise ValueError(f"kind {self.kind!r} requires a {cls.__name__} payload")
        if not self.provenance:
            raise ValueError("provenance must be nonempty")


# ---------------------------------------------------------------------------
# encoding


def _enc_int(x: int) -> str:
    return str(int(x))


def _enc_point(p: tuple[int, ...]) -> list[str]:
    return [_enc_int(c) for c in p]


def _enc_group(g: GroupSpec) -> dict:
    return {"modulus": _enc_int(g.modulus), "dimension": _enc_int(g.dimension)}


def _enc_point_set(ps: PointSet) -> dict:
    return {
        "dimension": _enc_int(ps.dimension),
        "points": [_enc_point(p) for p in ps.points],
    }


def _enc_matrix(m: IntMatrix) -> dict:
    return {
        "rows": _enc_int(m.rows),
        "cols": _enc_int(m.cols),
        "entries": [_enc_int(x) for x in m.entries],
    }


def _enc_phase(pm: PhaseMatrix) -> dict:
    return {"denominator": _enc_int(pm.denominator), "numerators": _enc_matrix(pm.numerators)}


def _enc_spectrum_cert(c: SpectrumCertificate) -> dict:
    return {
        "group": _enc_group(c.group),
        "set": _enc_point_set(c.set),
        "spectrum": _enc_phase(c.spectrum),
    }


def _enc_tiling_cert(c: TilingCertificate) -> dict:
    return {
        "group": _enc_group(c.group),
        "set": _enc_point_set(c.set),
        "complement": _enc_point_set(c.complement),
    }


def _enc_reason(reason: tiling.NonTilingReason) -> dict:
    if isinstance(reason, DivisibilityObstruction):
        return {
            "kind": "divisibility",
            "set_size": _enc_int(reason.set_size),
            "group_order": _enc_int(reason.group_order),
        }
    if isinstance(reason, DuplicateResidues):
        return {
            "kind": "duplicate-residues",
            "first": _enc_point(reason.first),
            "second": _enc_point(reason.second),
        }
    return {"kind": "exhausted-search", "nodes": _enc_int(reason.nodes)}


def _enc_non_tiling_cert(c: NonTilingCertificate) -> dict:
    return {
        "group": _enc_group(c.group),
        "set": _enc_point_set(c.set),
        "reason": _enc_reason(c.reason),
    }


def _enc_factorization(f: RankFactorization) -> dict:
    return {
        "modulus": _enc_int(f.modulus),
        "rank": _enc_int(f.rank),
        "left": _enc_matrix(f.left),
        "right": _enc_matrix(f.right),
    }


def _enc_either_cert(c: SpectrumCertificate | TilingCertificate) -> dict:
    if isinstance(c, SpectrumCertificate):
        return _enc_spectrum_cert(c)
    return _enc_tiling_cert(c)


def _enc_composition(rec: CompositionRecord) -> dict:
    return {
        "certificate_type": rec.certificate_type,
        "left": _enc_either_cert(rec.left),
        "right": _enc_either_cert(rec.right),
        "result": _enc_either_cert(rec.result),
    }


def _enc_lift(rec: LiftRecord) -> dict:
    return {
        "certificate_type": rec.certificate_type,
        "transform": _enc_matrix(rec.transform),
        "base": _enc_either_cert(rec.base),
        "result": _enc_either_cert(rec.result),
    }


def _enc_chain(rec: IndependenceChain) -> dict:
    return {
        "selected_rows": [_enc_int(r) for r in rec.selected_rows],
        "determinant": _enc_int(rec.determinant),
        "modulus": _enc_int(rec.modulus),
        "row_transform": _enc_matrix(rec.row_transform),
        "one_dimensional": _enc_tiling_cert(rec.one_dimensional),
        "projected": _enc_tiling_cert(rec.projected),
        "final": _enc_tiling_cert(rec.final),
    }


def _enc_verdict(v: TilingCertificate | NonTilingCertificate) -> dict:
    if isinstance(v, TilingCertificate):
        return {"verdict": "tiling", "certificate": _enc_tiling_cert(v)}
    return {"verdict": "non-tiling", "certificate": _enc_non_tiling_cert(v)}


def _enc_obstructions(rep: ExtensionObstructionReport) -> dict:
    return {
        "modulus": _enc_int(rep.modulus),
        "side_count": _enc_int(rep.side_count),
        "dimension": _enc_int(rep.dimension),
        "base_size": _enc_int(rep.base_size),
        "extension_size": _enc_int(rep.extension_size),
        "extended_group_order": _enc_int(rep.extended_group_order),
        "size_divides": rep.size_divides,
        "reduction_uniform": rep.reduction_uniform,
        "reduction_multiplicity": (
            None if rep.reduction_multiplicity is None else _enc_int(rep.reduction_multiplicity)
        ),
        "base_verdict": _enc_verdict(rep.base_verdict),
        "asymptotic_claim": rep.asymptotic_claim,
    }


def _enc_counterexample(rec: CounterexampleRecord) -> dict:
    return {
        "side_count": _enc_int(rec.side_count),
        "phase_exponents": _enc_phase(rec.phase_exponents),
        "rank": _enc_int(rec.rank),
        "published_factorization": _enc_factorization(rec.published_factorization),
        "computed_factorization": _enc_factorization(rec.computed_factorization),
        "base_spectrum": _enc_spectrum_cert(rec.base_spectrum),
        "base_non_tiling_divisibility": _enc_non_tiling_cert(rec.base_non_tiling_divisibility),
        "base_non_tiling_search": _enc_non_tiling_cert(rec.base_non_tiling_search),
        "composed_spectrum": _enc_spectrum_cert(rec.composed_spectrum),
        "obstructions": _enc_obstructions(rec.obstructions),
    }


_ENCODERS: dict[str, Callable[[Any], dict]] = {
    "spectrum": _enc_spectrum_cert,
    "tiling": _enc_tiling_cert,
    "non-tiling": _enc_non_tiling_cert,
    "composition": _enc_composition,
    "lift": _enc_lift,
    "independence-chain": _enc_chain,
    "counterexample": _enc_counterexample,
}


def serialize(envelope: CertificateEnvelope) -> bytes:
    """Canonical bytes for an envelope: sorted keys, decimal-string integers."""
    doc = {
        "schema_version": envelope.schema_version,
        "kind": envelope.kind,
        "payload": _ENCODERS[envelope.kind](envelope.payload),
        "provenance": [
            {"operation": p.operation, "inputs": list(p.inputs)}
            for p in envelope.provenance
        ],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# decoding


def _fail(msg: str) -> MalformedCertificate:
    return MalformedCertificate(msg)


def _expect_dict(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise _fail(f"{what} must be an object")
    return obj


def _expect_list(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise _fail(f"{what} must be an array")
    return obj


def _take(d: dict, key: str, what: str) -> Any:
    if key not in d:
        raise _fail(f"{what} is missing field {key!r}")
    return d[key]


def _no_extras(d: dict, allowed: set[str], what: str) -> None:
    extras = set(d) - allowed
    if extras:
        raise _fail(f"{what} has unknown fields {sorted(extras)}")


def _dec_int(obj: Any, what: str) -> int:
    if not isinstance(obj, str):
        raise _fail(f"{what} must be a decimal string")
    try:
        value = int(obj)
    except ValueError:
        raise _fail(f"{what} is not a decimal integer: {obj!r}") from None
    if str(value) != obj:
        raise _fail(f"{what} is not canonical decimal: {obj!r}")
    return value


def _dec_bool(obj: Any, what: str) -> bool:
    if not isinstance(obj, bool):
        raise _fail(f"{what} must be a boolean")
    return obj


def _dec_str(obj: Any, what: str) -> str:
    if not isinstance(obj, str):
        raise _fail(f"{what} must be a string")
    return obj


def _dec_point(obj: Any, what: str) -> tuple[int, ...]:
    return tuple(_dec_int(c, f"{what} coordinate") for c in _expect_list(obj, what))


def _build(factory: Callable[[], Any], what: str) -> Any:
    # Domain constructors enforce their own invariants; surface violations
    # under the certificate error hierarchy.
    try:
        return factory()
    except CertificateError:
        raise
    except ValueError as exc:
        raise InvariantViolation(f"{what}: {exc}") from exc


def _dec_group(obj: Any, what: str) -> GroupSpec:
    d = _expect_dict(obj, what)
    _no_extras(d, {"modulus", "dimension"}, what)
    modulus = _dec_int(_take(d, "modulus", what), f"{what}.modulus")
    dimension = _dec_int(_take(d, "dimension", what), f"{what}.dimension")
    return _build(lambda: GroupSpec(modulus, dimension), what)


def _dec_point_set(obj: Any, what: str) -> PointSet:
    d = _expect_dict(obj, what)
    _no_extras(d, {"dimension", "points"}, what)
    dimension = _dec_int(_take(d, "dimension", what), f"{what}.dimension")
    points = tuple(
        _dec_point(p, f"{what}.points[{i}]")
        for i, p in enumerate(_expect_list(_take(d, "points", what), f"{what}.points"))
    )
    return _build(lambda: PointSet(dimension, points), what)


def _dec_matrix(obj: Any, what: str) -> IntMatrix:
    d = _expect_dict(obj, what)
    _no_extras(d, {"rows", "cols", "entries"}, what)
    rows = _dec_int(_take(d, "rows", what), f"{what}.rows")
    cols = _dec_int(_take(d, "cols", what), f"{what}.cols")
    entries = tuple(
        _dec_int(x, f"{what}.entries[{i}]")
        for i, x in enumerate(_expect_list(_take(d, "entries", what), f"{what}.entries"))
    )
    return _build(lambda: IntMatrix(rows, cols, entries), what)


def _dec_phase(obj: Any, what: str) -> PhaseMatrix:
    d = _expect_dict(obj, what)
    _no_extras(d, {"denominator", "numerators"}, what)
    denominator = _dec_int(_take(d, "denominator", what), f"{what}.denominator")
    numerators = _dec_matrix(_take(d, "numerators", what), f"{what}.numerators")
    return _build(lambda: PhaseMatrix(numerators, denominator), what)


def _dec_spectrum_cert(obj: Any, what: str) -> SpectrumCertificate:
    d = _expect_dict(obj, what)
    _no_extras(d, {"group", "set", "spectrum"}, what)
    group = _dec_group(_take(d, "group", what), f"{what}.group")
    point_set = _dec_point_set(_take(d, "set", what), f"{what}.set")
    phase = _dec_phase(_take(d, "spectrum", what), f"{what}.spectrum")
    return _build(lambda: SpectrumCertificate(group, point_set, phase), what)


def _dec_tiling_cert(obj: Any, what: str) -> TilingCertificate:
    d = _expect_dict(obj, what)
    _no_extras(d, {"group", "set", "complement"}, what)
    group = _dec_group(_take(d, "group", what), f"{what}.group")
    point_set = _dec_point_set(_take(d, "set", what), f"{what}.set")
    complement = _dec_point_set(_take(d, "complement", what), f"{what}.complement")
    return _build(lambda: TilingCertificate(group, point_set, complement), what)


def _dec_reason(obj: Any, what: str) -> tiling.NonTilingReason:
    d = _expect_dict(obj, what)
    kind = _dec_str(_take(d, "kind", what), f"{what}.kind")
    if kind == "divisibility":
        _no_extras(d, {"kind", "set_size", "group_order"}, what)
        set_size = _dec_int(_take(d, "set_size", what), f"{what}.set_size")
        group_order = _dec_int(_take(d, "group_order", what), f"{what}.group_order")
        return _build(lambda: DivisibilityObstruction(set_size, group_order), what)
    if kind == "duplicate-residues":
        _no_extras(d, {"kind", "first", "second"}, what)
        first = _dec_point(_take(d, "first", what), f"{what}.first")
        second = _dec_point(_take(d, "second", what), f"{what}.second")
        return _build(lambda: DuplicateResidues(first, second), what)
    if kind == "exhausted-search":
        _no_extras(d, {"kind", "nodes"}, what)
        nodes = _dec_int(_take(d, "nodes", what), f"{what}.nodes")
        return _build(lambda: ExhaustedSearch(nodes), what)
    raise _fail(f"{what}.kind is unknown: {kind!r}")


def _dec_non_tiling_cert(obj: Any, what: str) -> NonTilingCertificate:
    d = _expect_dict(obj, what)
    _no_extras(d, {"group", "set", "reason"}, what)
    group = _dec_group(_take(d, "group", what), f"{what}.group")
    point_set = _dec_point_set(_take(d, "set", what), f"{what}.set")
    reason = _dec_reason(_take(d, "reason", what), f"{what}.reason")
    return _build(lambda: NonTilingCertificate(group, point_set, reason), what)


def _dec_factorization(obj: Any, what: str) -> RankFactorization:
    d = _expect_dict(obj, what)
    _no_extras(d, {"modulus", "rank", "left", "right"}, what)
    modulus = _dec_int(_take(d, "modulus", what), f"{what}.modulus")
    rank = _dec_int(_take(d, "rank", what), f"{what}.rank")
    left = _dec_matrix(_take(d, "left", what), f"{what}.left")
    right = _dec_matrix(_take(d, "right", what), f"{what}.right")
    return _build(
        lambda: RankFactorization(modulus=modulus, left=left, right=right, rank=rank), what
    )


def _dec_either_cert(
    obj: Any, certificate_type: str, what: str
) -> SpectrumCertificate | TilingCertificate:
    if certificate_type == "spectrum":
        return _dec_spectrum_cert(obj, what)
    if certificate_type == "tiling":
        return _dec_tiling_cert(obj, what)
    raise _fail(f"{what} has unknown certificate_type {certificate_type!r}")


def _dec_composition(obj: Any, what: str) -> CompositionRecord:
    d = _expect_dict(obj, what)
    _no_extras(d, {"certificate_type", "left", "right", "result"}, what)
    ctype = _dec_str(_take(d, "certificate_type", what), f"{what}.certificate_type")
    left = _dec_either_cert(_take(d, "left", what), ctype, f"{what}.left")
    right = _dec_either_cert(_take(d, "right", what), ctype, f"{what}.right")
    result = _dec_either_cert(_take(d, "result", what), ctype, f"{what}.result")
    return _build(lambda: CompositionRecord(ctype, left, right, result), what)


def _dec_lift(obj: Any, what: str) -> LiftRecord:
    d = _expect_dict(obj, what)
    _no_extras(d, {"certificate_type", "transform", "base", "result"}, what)
    ctype = _dec_str(_take(d, "certificate_type", what), f"{what}.certificate_type")
    transform = _dec_matrix(_take(d, "transform", what), f"{what}.transform")
    base = _dec_either_cert(_take(d, "base", what), ctype, f"{what}.base")
    result = _dec_either_cert(_take(d, "result", what), ctype, f"{what}.result")
    return _build(lambda: LiftRecord(ctype, transform, base, result), what)


def _dec_chain(obj: Any, what: str) -> IndependenceChain:
    d = _expect_dict(obj, what)
    _no_extras(
        d,
        {
            "selected_rows",
            "determinant",
            "modulus",
            "row_transform",
            "one_dimensional",
            "projected",
            "final",
        },
        what,
    )
    selected = tuple(
        _dec_int(x, f"{what}.selected_rows[{i}]")
        for i, x in enumerate(
            _expect_list(_take(d, "selected_rows", what), f"{what}.selected_rows")
        )
    )
    determinant = _dec_int(_take(d, "determinant", what), f"{what}.determinant")
    modulus = _dec_int(_take(d, "modulus", what), f"{what}.modulus")
    row_transform = _dec_matrix(_take(d, "row_transform", what), f"{what}.row_transform")
    one_dim = _dec_tiling_cert(_take(d, "one_dimensional", what), f"{what}.one_dimensional")
    projected = _dec_tiling_cert(_take(d, "projected", what), f"{what}.projected")
    final = _dec_tiling_cert(_take(d, "final", what), f"{what}.final")
    return _build(
        lambda: IndependenceChain(
            selected_rows=selected,
            determinant=determinant,
            modulus=modulus,
            row_transform=row_transform,
            one_dimensional=one_dim,
            projected=projected,
            final=final,
        ),
        what,
    )


def _dec_verdict(obj: Any, what: str) -> TilingCertificate | NonTilingCertificate:
    d = _expect_dict(obj, what)
    _no_extras(d, {"verdict", "certificate"}, what)
    verdict = _dec_str(_take(d, "verdict", what), f"{what}.verdict")
    if verdict == "tiling":
        return _dec_tiling_cert(_take(d, "certificate", what), f"{what}.certificate")
    if verdict == "non-tiling":
        return _dec_non_tiling_cert(_take(d, "certificate", what), f"{what}.certificate")
    raise _fail(f"{what}.verdict is unknown: {verdict!r}")


def _dec_obstructions(obj: Any, what: str) -> ExtensionObstructionReport:
    d = _expect_dict(obj, what)
    _no_extras(
        d,
        {
            "modulus",
            "side_count",
            "dimension",
            "base_size",
            "extension_size",
            "extended_group_order",
            "size_divides",
            "reduction_uniform",
            "reduction_multiplicity",
            "base_verdict",
            "asymptotic_claim",
        },
        what,
    )
    multiplicity_raw = _take(d, "reduction_multiplicity", what)
    claim_raw = _take(d, "asymptotic_claim", what)
    if claim_raw is not None and not isinstance(claim_raw, str):
        raise _fail(f"{what}.asymptotic_claim must be a string or null")
    return _build(
        lambda: ExtensionObstructionReport(
            modulus=_dec_int(_take(d, "modulus", what), f"{what}.modulus"),
            side_count=_dec_int(_take(d, "side_count", what), f"{what}.side_count"),
            dimension=_dec_int(_take(d, "dimension", what), f"{what}.dimension"),
            base_size=_dec_int(_take(d, "base_size", what), f"{what}.base_size"),
            extension_size=_dec_int(
                _take(d, "extension_size", what), f"{what}.extension_size"
            ),
            extended_group_order=_dec_int(
                _take(d, "extended_group_order", what), f"{what}.extended_group_order"
            ),
            size_divides=_dec_bool(_take(d, "size_divides", what), f"{what}.size_divides"),
            reduction_uniform=_dec_bool(
                _take(d, "reduction_uniform", what), f"{what}.reduction_uniform"
            ),
            reduction_multiplicity=(
                None
                if multiplicity_raw is None
                else _dec_int(multiplicity_raw, f"{what}.reduction_multiplicity")
            ),
            base_verdict=_dec_verdict(_take(d, "base_verdict", what), f"{what}.base_verdict"),
            asymptotic_claim=claim_raw,
        ),
        what,
    )


def _dec_counterexample(obj: Any, what: str) -> CounterexampleRecord:
    d = _expect_dict(obj, what)
    _no_extras(
        d,
        {
            "side_count",
            "phase_exponents",
            "rank",
            "published_factorization",
            "computed_factorization",
            "base_spectrum",
            "base_non_tiling_divisibility",
            "base_non_tiling_search",
            "composed_spectrum",
            "obstructions",
        },
        what,
    )
    return _build(
        lambda: CounterexampleRecord(
            side_count=_dec_int(_take(d, "side_count", what), f"{what}.side_count"),
            phase_exponents=_dec_phase(
                _take(d, "phase_exponents", what), f"{what}.phase_exponents"
            ),
            rank=_dec_int(_take(d, "rank", what), f"{what}.rank"),
            published_factorization=_dec_factorization(
                _take(d, "published_factorization", what), f"{what}.published_factorization"
            ),
            computed_factorization=_dec_factorization(
                _take(d, "computed_factorization", what), f"{what}.computed_factorization"
            ),
            base_spectrum=_dec_spectrum_cert(
                _take(d, "base_spectrum", what), f"{what}.base_spectrum"
            ),
            base_non_tiling_divisibility=_dec_non_tiling_cert(
                _take(d, "base_non_tiling_divisibility", what),
                f"{what}.base_non_tiling_divisibility",
            ),
            base_non_tiling_search=_dec_non_tiling_cert(
                _take(d, "base_non_tiling_search", what), f"{what}.base_non_tiling_search"
            ),
            composed_spectrum=_dec_spectrum_cert(
                _take(d, "composed_spectrum", what), f"{what}.composed_spectrum"
            ),
            obstructions=_dec_obstructions(
                _take(d, "obstructions", what), f"{what}.obstructions"
            ),
        ),
        what,
    )


_DECODERS: dict[str, Callable[[Any, str], PayloadType]] = {
    "spectrum": _dec_spectrum_cert,
    "tiling": _dec_tiling_cert,
    "non-tiling": _dec_non_tiling_cert,
    "composition": _dec_composition,
    "lift": _dec_lift,
    "independence-chain": _dec_chain,
    "counterexample": _dec_counterexample,
}


def parse(data: bytes | str) -> CertificateEnvelope:
    """Decode and verify an envelope; untrusted input never parses silently."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedCertificate(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"not valid JSON: {exc}") from exc
    d = _expect_dict(doc, "envelope")
    _no_extras(d, {"schema_version", "kind", "payload", "provenance"}, "envelope")
    version = _dec_str(_take(d, "schema_version", "envelope"), "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"schema version {version!r} is not supported (expected {SCHEMA_VERSION!r})"
        )
    kind = _dec_str(_take(d, "kind", "envelope"), "kind")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise MalformedCertificate(f"unknown certificate kind {kind!r}")
    payload = decoder(_take(d, "payload", "envelope"), "payload")
    prov_raw = _expect_list(_take(d, "provenance", "envelope"), "provenance")
    if not prov_raw:
        raise MalformedCertificate("provenance must be nonempty")
    provenance = []
    for i, entry in enumerate(prov_raw):
        e = _expect_dict(entry, f"provenance[{i}]")
        _no_extras(e, {"operation", "inputs"}, f"provenance[{i}]")
        operation = _dec_str(_take(e, "operation", f"provenance[{i}]"), "operation")
        inputs = tuple(
            _dec_str(x, f"provenance[{i}].inputs")
            for x in _expect_list(_take(e, "inputs", f"provenance[{i}]"), "inputs")
        )
        provenance.append(ProvenanceEntry(operation, inputs))
    envelope = _build(
        lambda: CertificateEnvelope(version, kind, payload, tuple(provenance)), "envelope"
    )
    verify_envelope(envelope)
    return envelope


# ---------------------------------------------------------------------------
# verification


def _require(condition: bool, msg: str) -> None:
    if not condition:
        raise InvariantViolation(msg)


def _verify_composition(rec: CompositionRecord) -> None:
    if rec.certificate_type == "spectrum":
        recomputed = spectral.compose_spectral(rec.left, rec.right)
    else:
        recomputed = tiling.compose_tile(rec.left, rec.right)
    _require(recomputed == rec.result, "composition result does not recompute")


def _verify_lift(rec: LiftRecord) -> None:
    if rec.certificate_type == "spectrum":
        recomputed = spectral.lift_spectrum(rec.result.set, rec.transform, rec.base)
    else:
        recomputed = tiling.lift_tile(rec.result.set, rec.transform, rec.base)
    _require(recomputed == rec.result, "lift result does not recompute")


def _verify_chain(rec: IndependenceChain) -> None:
    recomputed = tiling.independent_tile(rec.final.set)
    _require(recomputed == rec, "independence chain does not recompute")


def _verify_counterexample(rec: CounterexampleRecord) -> None:
    _require(rec.side_count >= 1, "side count must be at least 1")
    phase = rec.phase_exponents
    p = phase.denominator
    n = rec.side_count
    _require(is_log_hadamard(phase), "phase exponent matrix is not log-Hadamard")
    _require(
        rank_mod_p(phase.numerators, p) == rec.rank,
        "recorded rank does not recompute",
    )
    for name, fact in (
        ("published", rec.published_factorization),
        ("computed", rec.computed_factorization),
    ):
        _require(fact.modulus == p, f"{name} factorization modulus mismatch")
        _require(fact.rank == rec.rank, f"{name} factorization rank mismatch")
        _require(
            is_rank_factorization(phase.numerators, fact),
            f"{name} factorization does not re-multiply to the phase matrix",
        )

    base = rec.base_spectrum
    right = rec.published_factorization.right
    _require(base.group.modulus == p, "base spectrum group modulus mismatch")
    _require(base.group.dimension == right.rows, "base spectrum dimension mismatch")
    _require(
        base.set.points == tuple(right.column(j) for j in range(right.cols)),
        "base spectrum set is not the right factor's columns",
    )
    _require(
        base.spectrum.numerators == rec.published_factorization.left,
        "base spectrum numerators are not the left factor",
    )
    _require(verify_spectrum(base), "base spectrum fails verification")

    for name, cert in (
        ("divisibility", rec.base_non_tiling_divisibility),
        ("search", rec.base_non_tiling_search),
    ):
        _require(cert.group == base.group, f"base non-tiling ({name}) group mismatch")
        _require(cert.set == base.set, f"base non-tiling ({name}) set mismatch")
    _require(
        isinstance(rec.base_non_tiling_divisibility.reason, DivisibilityObstruction),
        "divisibility certificate carries the wrong reason",
    )
    _require(
        isinstance(rec.base_non_tiling_search.reason, ExhaustedSearch),
        "search certificate carries the wrong reason",
    )

    composed = rec.composed_spectrum
    dimension = base.set.dimension
    # Cheap size checks first: they bound the recomputation below by the
    # envelope's own size, whatever side count it claims.
    _require(composed.group.modulus == p * n, "composed spectrum modulus mismatch")
    _require(
        len(composed.set) == len(base.set) * n**dimension,
        "composed set size is not the cube extension's size",
    )
    extension = build_extension(base.set, p, n)
    _require(
        composed.set.points == extension.points,
        "composed set is not the cube extension of the base set",
    )
    cube = cube_spectrum(n, dimension)
    _require(
        composed.spectrum.numerators
        == composed_spectrum_rows(base.spectrum.numerators, cube.spectrum.numerators, p, n),
        "composed spectrum rows do not recompute from the base and cube spectra",
    )
    _require(verify_spectrum(composed), "composed spectrum fails verification")

    rep = rec.obstructions
    _require(rep.modulus == p and rep.side_count == n, "obstruction parameters mismatch")
    _require(rep.dimension == base.set.dimension, "obstruction dimension mismatch")
    _require(rep.base_size == len(base.set), "obstruction base size mismatch")
    _require(rep.extension_size == len(extension), "obstruction extension size mismatch")
    _require(
        rep.extended_group_order == (p * n) ** rep.dimension,
        "obstruction group order mismatch",
    )
    _require(
        rep.size_divides == (rep.extended_group_order % rep.extension_size == 0),
        "divisibility flag does not recompute",
    )
    multiplicity = tiling._reduction_multiplicity(extension, p, base.set)
    _require(
        rep.reduction_multiplicity == multiplicity
        and rep.reduction_uniform == (multiplicity is not None),
        "mod-reduction evidence does not recompute",
    )
    _require(
        rep.base_verdict == rec.base_non_tiling_divisibility,
        "obstruction verdict disagrees with the divisibility certificate",
    )
    _require(
        rep.asymptotic_claim == ASYMPTOTIC_NON_TILING_CLAIM,
        "asymptotic claim marker missing or altered",
    )


def verify_envelope(envelope: CertificateEnvelope) -> None:
    """Re-check an envelope's claims; raises InvariantViolation on failure.

    Exhausted-search node counts are the one claim that cannot be re-checked
    statically; see trust_marker.
    """
    from .guard import GuardExceeded

    kind = envelope.kind
    payload = envelope.payload
    try:
        if kind == "spectrum":
            _require(verify_spectrum(payload), "spectrum certificate fails verification")
        elif kind == "tiling":
            _require(verify_tiling(payload), "tiling certificate fails verification")
        elif kind == "non-tiling":
            pass  # reasons are re-validated structurally on construction
        elif kind == "composition":
            _verify_composition(payload)
        elif kind == "lift":
            _verify_lift(payload)
        elif kind == "independence-chain":
            _verify_chain(payload)
        elif kind == "counterexample":
            _verify_counterexample(payload)
        else:  # pragma: no cover - envelope construction rejects unknown kinds
            raise InvariantViolation(f"unknown kind {kind!r}")
    except (CertificateError, GuardExceeded):
        raise
    except ValueError as exc:
        # Recomputation helpers reject inconsistent inputs with ValueError;
        # for a stored envelope that is a failed re-check, not a usage error.
        raise InvariantViolation(str(exc)) from exc


def trust_marker(envelope: CertificateEnvelope) -> str:
    """"verified" when every claim re-checks statically; "replay-required"
    when the envelope's own verdict rests on an exhausted search."""
    if envelope.kind == "non-tiling" and isinstance(envelope.payload.reason, ExhaustedSearch):
        return "replay-required"
    return "verified"
