"""Canonical JSON serialization of certificates, with verification on parse.

Envelope layout (schema version "1")::

    {
      "schema_version": "1",
      "kind": "<spectrum|tiling|non-tiling|composition|lift|independence-chain|counterexample>",
      "payload": { ... kind-specific record ... },
      "provenance": [{"operation": "...", "inputs": ["...", ...]}, ...]
    }

One table per record type defines its wire fields: the record's JSON keys are
exactly its dataclass field names, each mapped to a value codec, and that
table drives encoding, decoding and the check for unknown or missing keys.
One more table maps each envelope kind to its payload type, codec and
verifier, so a new record kind is its field table, one entry there and a
verifier.

Every integer anywhere in the payload is encoded as a canonical decimal
string so arbitrary-precision values survive any JSON implementation.
Integers in [-256, 256], nearly all of those in a certificate, are encoded
and decoded by lookup in two tables filled on the first serialize or parse,
one C-level map per array.  A miss (a larger integer, or anything that is
not a canonical decimal string) sends the array through the per-item path,
which converts with int() and str() and, for a fault, names its index.
Object keys are sorted and arrays keep the canonical orders the producing
operations define, so serializing the same envelope twice yields identical
bytes.

Parsing re-checks everything checkable without a search: spectrum and tiling
payloads are re-verified outright.  The counterexample bundle is checked
from its three premises: the phase matrix must be log-Hadamard, its two rank
factorizations mod p must re-multiply to it, and the side count must be
positive.  The published factorization then fixes the group, the base set,
the rank, the base spectrum and both base non-tiling certificates, and each
stored field is compared once with the value derived for it; the one claim
taken as stored there is the exhausted search's node count.  A derived
certificate (a composition's or lift's result, the bundle's composed
spectrum) must have the group and set size its construction produces; only
then is the construction run and its output compared, so a tampered one
costs no more than the envelope lists.  The construction does the rest of
the checking, since every construction checks its inputs and never its
output: a composition verifies its two parts and its lemma proves the
product, and a lift verifies its base and its lemma proves the pullback.
An independence chain stores the premises of the pullback lemma, not the
tiling of Z_M^d they imply: parse recomputes the selected block's
determinant, maps each point to Z_M and verifies the one-dimensional
tiling, which is O(k*d + k^3 + M) work and never walks Z_M^d.  The one
thing a static file cannot prove is an exhausted-search node count; such
certificates parse but carry a "replay-required" trust marker (inside
composite records an exhausted search is corroborating evidence only - the
load-bearing claims are re-checked).
tiling.replay_search re-runs such a search and compares its node count.

Provenance entries describe how a file was made; they are free text and are
not checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Union

from . import spectral, tiling
from .guard import GuardExceeded, check_power_guard
from .modlinalg import (
    IntMatrix,
    RankFactorization,
    _det_bareiss,
    rank_mod_p,
)
from .spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    cube_spectrum,
    is_log_hadamard,
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


def _check_parts(record: str, certificate_type: str, *parts: object) -> None:
    codec = _PARTS.get(certificate_type)
    if codec is None:
        raise ValueError(f"unknown {record} type {certificate_type!r}")
    if not all(isinstance(part, codec.make) for part in parts):
        raise ValueError(f"{record} parts must be {codec.make.__name__}")


@dataclass(frozen=True)
class CompositionRecord:
    """Two certificates and their verified composition T + mS."""

    certificate_type: str  # "spectrum" or "tiling"
    left: SpectrumCertificate | TilingCertificate
    right: SpectrumCertificate | TilingCertificate
    result: SpectrumCertificate | TilingCertificate

    def __post_init__(self) -> None:
        _check_parts("composition", self.certificate_type, self.left, self.right, self.result)


@dataclass(frozen=True)
class LiftRecord:
    """A certificate pulled back through an integer linear map."""

    certificate_type: str
    transform: IntMatrix
    base: SpectrumCertificate | TilingCertificate
    result: SpectrumCertificate | TilingCertificate

    def __post_init__(self) -> None:
        _check_parts("lift", self.certificate_type, self.base, self.result)


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


@dataclass(frozen=True)
class CertificateEnvelope:
    schema_version: str
    kind: str
    payload: PayloadType
    provenance: tuple[ProvenanceEntry, ...]

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"schema version {self.schema_version!r} is not supported "
                f"(expected {SCHEMA_VERSION!r})"
            )
        entry = _KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if not isinstance(self.payload, entry.payload):
            raise ValueError(f"kind {self.kind!r} requires a {entry.payload.__name__} payload")
        if not self.provenance:
            raise ValueError("provenance must be nonempty")


# ---------------------------------------------------------------------------
# value codecs
#
# A codec has encode(value) -> JSON value and decode(JSON value) -> value.
# Decoders raise _Bad and name no path on success; the records and arrays an
# error passes through add their key or index to it on the way out.


class _Bad(Exception):
    """A decoding error, located by the records and arrays it leaves."""

    def __init__(self, msg: str, error: type[CertificateError] = MalformedCertificate) -> None:
        super().__init__(msg)
        self.msg = msg
        self.error = error
        self.path: list[str] = []  # innermost step first

    def at(self, step: str) -> _Bad:
        self.path.append(step)
        return self

    def located(self) -> CertificateError:
        where = "".join(reversed(self.path)).lstrip(".") or "envelope"
        return self.error(f"{where}: {self.msg}")


class _Codec(NamedTuple):
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


# Canonical decimal strings of the ints in [-_SMALL, _SMALL] and back.  They
# are filled on the first serialize or parse, not at import, so a process
# that imports the package and never touches a certificate holds no table.
_SMALL = 256
_FROM_STR: dict[str, int] = {}
_TO_STR: dict[int, str] = {}
# What a table lookup raises on a miss: KeyError for a value outside the
# table (an int out of range, a non-canonical string, a JSON number) and
# TypeError for an unhashable one (an array or object).
_MISS = (KeyError, TypeError)


def _fill_tables() -> None:
    if not _TO_STR:
        _TO_STR.update((i, str(i)) for i in range(-_SMALL, _SMALL + 1))
        _FROM_STR.update((text, i) for i, text in _TO_STR.items())


def _enc_int(x: Any) -> str:
    try:
        return _TO_STR[x]
    except _MISS:
        return str(int(x))


def _dec_int(obj: Any) -> int:
    try:
        return _FROM_STR[obj]  # every key is str(i), so a hit is canonical
    except _MISS:
        pass
    if isinstance(obj, str):
        try:
            value = int(obj)
        except ValueError:
            pass
        else:
            if str(value) == obj:
                return value
    raise _Bad(f"must be a canonical decimal string, got {obj!r}")


def _check(cls: type, what: str) -> Callable[[Any], Any]:
    def decode(obj: Any) -> Any:
        if not isinstance(obj, cls):
            raise _Bad(f"must be {what}")
        return obj

    return decode


def _optional(codec: _Codec) -> _Codec:
    return _Codec(
        lambda value: None if value is None else codec.encode(value),
        lambda obj: None if obj is None else codec.decode(obj),
    )


def _list_of(item: _Codec, bulk: _Codec | None = None) -> _Codec:
    """An array of item values, mapped over in one C-level pass each way.

    The pass maps ``bulk``, when given, or else ``item``.  Any miss in it
    (_Bad, or a lookup's KeyError or TypeError) sends the whole array back
    through ``item`` one value at a time, which returns the value or raises
    _Bad located at the index that fails.
    """
    fast = bulk or item

    def encode(values: Any) -> list:
        try:
            return list(map(fast.encode, values))
        except _MISS:
            return list(map(item.encode, values))

    def decode(obj: Any) -> tuple:
        if not isinstance(obj, list):
            raise _Bad("must be an array")
        try:
            return tuple(map(fast.decode, obj))
        except (_Bad, *_MISS):
            pass
        out: list = []
        try:
            for x in obj:
                out.append(item.decode(x))
        except _Bad as exc:
            raise exc.at(f"[{len(out)}]")
        return tuple(out)

    return _Codec(encode, decode)


_INT = _Codec(_enc_int, _dec_int)
_BOOL = _Codec(bool, _check(bool, "a boolean"))
_STR = _Codec(str, _check(str, "a string"))
_INTS = _list_of(_INT, _Codec(_TO_STR.__getitem__, _FROM_STR.__getitem__))
_POINTS = _list_of(_INTS)


def _keys(obj: Any, keys: frozenset[str]) -> None:
    if not isinstance(obj, dict):
        raise _Bad("must be an object")
    if obj.keys() != keys:
        missing = keys - obj.keys()
        if missing:
            raise _Bad(f"is missing fields {sorted(missing)}")
        raise _Bad(f"has unknown fields {sorted(obj.keys() - keys)}")


def _field(obj: dict, key: str, decode: Callable[[Any], Any]) -> Any:
    try:
        return decode(obj[key])
    except _Bad as exc:
        raise exc.at(f".{key}")


class _Record:
    """A dataclass as a JSON object whose keys are exactly its field names.

    ``make`` builds the value from the decoded fields; its ValueError means
    the fields are well-formed but inconsistent, an InvariantViolation.
    """

    def __init__(self, make: Callable[..., Any], **fields: Any) -> None:
        self.make = make
        self.fields = tuple(fields.items())
        self.keys = frozenset(fields)

    def encode(self, value: Any) -> dict:
        return {name: codec.encode(getattr(value, name)) for name, codec in self.fields}

    def decode(self, obj: Any) -> Any:
        _keys(obj, self.keys)
        values = {}
        try:
            for name, codec in self.fields:
                values[name] = codec.decode(obj[name])
        except _Bad as exc:
            raise exc.at(f".{name}")
        try:
            return self.make(**values)
        except ValueError as exc:
            raise _Bad(str(exc), InvariantViolation) from exc


def _variant(variants: dict[str, Any], value: Any) -> str:
    """The name of the variant whose record builds values of this type."""
    return next(name for name, codec in variants.items() if codec.make is type(value))


def _pick(variants: dict[str, Any], obj: Any) -> Any:
    name = _STR.decode(obj)
    if name not in variants:
        raise _Bad(f"is unknown: {name!r}")
    return variants[name]


class _Tagged:
    """A tag key inside the object picks the codec of its other keys.

    The tag is read from the value by ``tag_of``, or else from its type.
    """

    def __init__(
        self, tag: str, variants: dict[str, Any], tag_of: Callable[[Any], str] | None = None
    ) -> None:
        self.tag = tag
        self.variants = variants
        self.tag_of = tag_of or partial(_variant, variants)

    def encode(self, value: Any) -> dict:
        name = self.tag_of(value)
        return {self.tag: name, **self.variants[name].encode(value)}

    def decode(self, obj: Any) -> Any:
        if not isinstance(obj, dict):
            raise _Bad("must be an object")
        if self.tag not in obj:
            raise _Bad(f"is missing fields {[self.tag]}")
        codec = _field(obj, self.tag, partial(_pick, self.variants))
        return codec.decode({k: v for k, v in obj.items() if k != self.tag})


class _Wrapped:
    """``{tag: name, body: value}``: the name picks the codec of the value."""

    def __init__(self, tag: str, body: str, variants: dict[str, Any]) -> None:
        self.tag = tag
        self.body = body
        self.variants = variants
        self.keys = frozenset((tag, body))

    def encode(self, value: Any) -> dict:
        name = _variant(self.variants, value)
        return {self.tag: name, self.body: self.variants[name].encode(value)}

    def decode(self, obj: Any) -> Any:
        _keys(obj, self.keys)
        codec = _field(obj, self.tag, partial(_pick, self.variants))
        return _field(obj, self.body, codec.decode)


# ---------------------------------------------------------------------------
# record tables

_GROUP = _Record(GroupSpec, modulus=_INT, dimension=_INT)
_POINT_SET = _Record(PointSet, dimension=_INT, points=_POINTS)
_MATRIX = _Record(IntMatrix, rows=_INT, cols=_INT, entries=_INTS)
_PHASE = _Record(PhaseMatrix, numerators=_MATRIX, denominator=_INT)
_SPECTRUM = _Record(SpectrumCertificate, group=_GROUP, set=_POINT_SET, spectrum=_PHASE)
_TILING = _Record(TilingCertificate, group=_GROUP, set=_POINT_SET, complement=_POINT_SET)
_REASON = _Tagged(
    "kind",
    {
        "divisibility": _Record(DivisibilityObstruction, set_size=_INT, group_order=_INT),
        "duplicate-residues": _Record(DuplicateResidues, first=_INTS, second=_INTS),
        "exhausted-search": _Record(ExhaustedSearch, nodes=_INT),
    },
)
_NON_TILING = _Record(NonTilingCertificate, group=_GROUP, set=_POINT_SET, reason=_REASON)
_FACTORIZATION = _Record(RankFactorization, modulus=_INT, left=_MATRIX, right=_MATRIX, rank=_INT)
_PARTS = {"spectrum": _SPECTRUM, "tiling": _TILING}
_COMPOSITION = _Tagged(
    "certificate_type",
    {
        name: _Record(partial(CompositionRecord, name), left=part, right=part, result=part)
        for name, part in _PARTS.items()
    },
    attrgetter("certificate_type"),
)
_LIFT = _Tagged(
    "certificate_type",
    {
        name: _Record(partial(LiftRecord, name), transform=_MATRIX, base=part, result=part)
        for name, part in _PARTS.items()
    },
    attrgetter("certificate_type"),
)
_CHAIN = _Record(
    IndependenceChain,
    set=_POINT_SET,
    selected_rows=_INTS,
    determinant=_INT,
    modulus=_INT,
    row_transform=_MATRIX,
    one_dimensional=_TILING,
)
_OBSTRUCTIONS = _Record(
    ExtensionObstructionReport,
    modulus=_INT,
    side_count=_INT,
    dimension=_INT,
    base_size=_INT,
    extension_size=_INT,
    extended_group_order=_INT,
    size_divides=_BOOL,
    reduction_uniform=_BOOL,
    reduction_multiplicity=_optional(_INT),
    base_verdict=_Wrapped(
        "verdict", "certificate", {"tiling": _TILING, "non-tiling": _NON_TILING}
    ),
    asymptotic_claim=_optional(_STR),
)
_COUNTEREXAMPLE = _Record(
    CounterexampleRecord,
    side_count=_INT,
    phase_exponents=_PHASE,
    rank=_INT,
    published_factorization=_FACTORIZATION,
    computed_factorization=_FACTORIZATION,
    base_spectrum=_SPECTRUM,
    base_non_tiling_divisibility=_NON_TILING,
    base_non_tiling_search=_NON_TILING,
    composed_spectrum=_SPECTRUM,
    obstructions=_OBSTRUCTIONS,
)
_PROVENANCE = _list_of(_Record(ProvenanceEntry, operation=_STR, inputs=_list_of(_STR)))


# ---------------------------------------------------------------------------
# verification


def _require(condition: bool, msg: str) -> None:
    if not condition:
        raise InvariantViolation(msg)


def _verify_spectrum(cert: SpectrumCertificate) -> None:
    _require(verify_spectrum(cert), "spectrum certificate fails verification")


def _verify_tiling(cert: TilingCertificate) -> None:
    _require(verify_tiling(cert), "tiling certificate fails verification")


def _verify_non_tiling(cert: NonTilingCertificate) -> None:
    """Reasons are re-validated structurally on construction."""


_COMPOSE = {"spectrum": spectral.compose_spectral, "tiling": tiling.compose_tile}
_LIFT_BACK = {"spectrum": spectral.lift_spectrum, "tiling": tiling.lift_tile}


def _recompute(what: str, result: Any, group: GroupSpec, size: int, construct: Callable) -> None:
    """Pin a derived certificate's group and set size, then recompute it.

    Only once both equal the construction's does the construction run and
    its output get compared with the result.  The construction does the
    verifying, of its inputs and never of its output: a composition checks
    its two parts and proves the product by its lemma, and a lift checks its
    base and proves the pullback by its lemma.  A tiling's sizes multiply to
    its group order, so a tiling construction then builds no more cells,
    and a spectral one checks no more points, than the result lists.
    """
    for field in ("modulus", "dimension"):
        _require(getattr(result.group, field) == getattr(group, field), f"{what} {field} mismatch")
    _require(len(result.set) == size, f"{what} set size is not the construction's")
    _require(construct() == result, f"{what} result does not recompute")


def _verify_composition(rec: CompositionRecord) -> None:
    """Pin the result, then compose: the construction verifies both parts."""
    left, right = rec.left, rec.right
    _recompute(
        "composition",
        rec.result,
        GroupSpec(left.group.modulus * right.group.modulus, left.group.dimension),
        len(left.set) * len(right.set),
        partial(_COMPOSE[rec.certificate_type], left, right),
    )


def _verify_lift(rec: LiftRecord) -> None:
    """Pin the result, then lift: the construction verifies the base."""
    base, points = rec.base, rec.result.set
    _recompute(
        "lift",
        rec.result,
        GroupSpec(base.group.modulus, points.dimension),
        len(base.set),
        partial(_LIFT_BACK[rec.certificate_type], points, rec.transform, base),
    )


def _verify_chain(rec: IndependenceChain) -> None:
    """Check the premises of the pullback lemma (see tiling.lift_tile).

    The work is O(k*d + k^3 + M): the selected block's determinant, phi on
    each point and the tiling of Z_M.  No lift is recomputed, and Z_M^d is
    not walked; the guard admits Z_M^d only so that reading the
    chain's on-demand tiling, final, later stays within it.
    """
    points = rec.set.points
    k, d = len(points), rec.set.dimension
    rows = rec.selected_rows
    _require(
        len(rows) == k
        and all(0 <= r < d for r in rows)
        and all(a < b for a, b in zip(rows, rows[1:])),
        "selected rows must be k strictly increasing indices in [0, d)",
    )
    block = [[p[r] for p in points] for r in rows]
    _require(
        _det_bareiss(block) == rec.determinant,
        "determinant does not recompute from the selected rows",
    )
    # M = k * |det| comes from the envelope's coordinates, and M**d can have
    # millions of digits: it is computed only when the guard can admit it.
    m = rec.modulus
    check_power_guard(m, d)
    weights = rec.row_transform
    _require(weights.rows == 1 and weights.cols == k, "row transform must be 1 x k")
    images = [sum(w * p[r] for w, r in zip(weights.entries, rows)) % m for p in points]
    one = rec.one_dimensional
    _require(one.group == GroupSpec(m, 1), "one-dimensional tiling is not of Z_M")
    _require(
        images == [p[0] % m for p in one.set.points],
        "row transform does not map the set onto the one-dimensional tiling's set",
    )
    # A tiling's set has distinct residues, so this also makes phi injective
    # on the set.
    _verify_tiling(one)


def _verify_counterexample(rec: CounterexampleRecord) -> None:
    """Check the bundle's three premises, derive the rest, compare once.

    The premises are the phase matrix, which must be log-Hadamard, its two
    rank factorizations mod p = its denominator, which must re-multiply to
    it with its rank, and the side count n.  With the rank matched, the
    product alone shows both factors have it (see is_rank_factorization).
    The published factorization then fixes every other field: the group
    Z_p^r with r its inner dimension, the base set (the right factor's
    columns), the base spectrum (the left factor's rows over p) and both
    base non-tiling certificates (the group and base set with their stored
    reasons, whose kinds are checked first; constructing one pins a
    divisibility reason's sizes).
    Each stored field must equal its derived value.  The composed spectrum
    is pinned and recomputed, its construction verifying the base and the
    cube.  The obstruction report is derived by arithmetic (the lemma in
    tiling._obstruction_report) and compared field by field.  The one
    claim taken as stored is the exhausted search's node count.
    """
    _require(rec.side_count >= 1, "side count must be at least 1")
    phase = rec.phase_exponents
    p = phase.denominator
    n = rec.side_count
    # It builds its cyclotomic decision, and so checks the bound, before it
    # allocates anything by the denominator.
    _require(is_log_hadamard(phase), "phase exponent matrix is not log-Hadamard")
    rank = rank_mod_p(phase.numerators, p)
    for name, fact in (
        ("published", rec.published_factorization),
        ("computed", rec.computed_factorization),
    ):
        _require(fact.modulus == p, f"{name} factorization modulus mismatch")
        _require(fact.rank == rank, f"{name} factorization rank mismatch")
        _require(
            fact.product_mod_p() == phase.numerators,
            f"{name} factorization does not re-multiply to the phase matrix",
        )

    left, right = rec.published_factorization.left, rec.published_factorization.right
    group = GroupSpec(p, right.rows)
    base_set = PointSet(right.rows, tuple(right.column(j) for j in range(right.cols)))
    base = SpectrumCertificate(group, base_set, PhaseMatrix(left, p))
    derived = {"rank": rank, "base_spectrum": base}
    for name, kind in (("divisibility", DivisibilityObstruction), ("search", ExhaustedSearch)):
        field, what = f"base_non_tiling_{name}", f"base non tiling {name}"
        reason = getattr(rec, field).reason
        _require(isinstance(reason, kind), f"{what} carries the wrong reason")
        try:
            derived[field] = NonTilingCertificate(group, base_set, reason)
        except ValueError as exc:
            raise InvariantViolation(f"{what} does not recompute: {exc}") from exc
    for field, value in derived.items():
        _require(getattr(rec, field) == value, f"{field.replace('_', ' ')} does not recompute")

    # The pinned group and set size bound the recomputation by the
    # envelope's own size, whatever side count it claims.  compose_spectral
    # verifies both the base and the cube it is given.
    d = group.dimension
    _recompute(
        "composed",
        rec.composed_spectrum,
        GroupSpec(p * n, d),
        len(base_set) * n**d,
        lambda: spectral.compose_spectral(base, cube_spectrum(n, d)),
    )
    # The base set lies in [0, p), as RankFactorization keeps it: the lemma holds.
    expected = tiling._obstruction_report(base_set, p, n, rec.base_non_tiling_divisibility)
    for field in fields(ExtensionObstructionReport):
        _require(
            getattr(rec.obstructions, field.name) == getattr(expected, field.name),
            f"obstruction {field.name.replace('_', ' ')} does not recompute",
        )


class _Kind(NamedTuple):
    payload: type
    codec: Any
    verify: Callable[[Any], None]


_KINDS: dict[str, _Kind] = {
    "spectrum": _Kind(SpectrumCertificate, _SPECTRUM, _verify_spectrum),
    "tiling": _Kind(TilingCertificate, _TILING, _verify_tiling),
    "non-tiling": _Kind(NonTilingCertificate, _NON_TILING, _verify_non_tiling),
    "composition": _Kind(CompositionRecord, _COMPOSITION, _verify_composition),
    "lift": _Kind(LiftRecord, _LIFT, _verify_lift),
    "independence-chain": _Kind(IndependenceChain, _CHAIN, _verify_chain),
    "counterexample": _Kind(CounterexampleRecord, _COUNTEREXAMPLE, _verify_counterexample),
}


# ---------------------------------------------------------------------------
# envelopes

_ENVELOPE_KEYS = frozenset(("schema_version", "kind", "payload", "provenance"))


def serialize(envelope: CertificateEnvelope) -> bytes:
    """Canonical bytes for an envelope: sorted keys, decimal-string integers."""
    _fill_tables()
    doc = {
        "schema_version": envelope.schema_version,
        "kind": envelope.kind,
        "payload": _KINDS[envelope.kind].codec.encode(envelope.payload),
        "provenance": _PROVENANCE.encode(envelope.provenance),
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def parse(data: bytes | str) -> CertificateEnvelope:
    """Decode and verify an envelope; untrusted input never parses silently."""
    _fill_tables()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedCertificate(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        # Nesting deeper than the interpreter's recursion limit raises RecursionError.
        raise MalformedCertificate(f"not valid JSON: {exc}") from exc
    try:
        # The version comes first: another version may have other fields.
        if isinstance(doc, dict) and "schema_version" in doc:
            version = _field(doc, "schema_version", _STR.decode)
            if version != SCHEMA_VERSION:
                raise SchemaVersionError(
                    f"schema version {version!r} is not supported (expected {SCHEMA_VERSION!r})"
                )
        _keys(doc, _ENVELOPE_KEYS)
        kind = _field(doc, "kind", partial(_pick, _KINDS))
        payload = _field(doc, "payload", kind.codec.decode)
        provenance = _field(doc, "provenance", _PROVENANCE.decode)
        if not provenance:
            raise _Bad("must be nonempty").at(".provenance")
    except _Bad as exc:
        raise exc.located() from None
    envelope = CertificateEnvelope(SCHEMA_VERSION, doc["kind"], payload, provenance)
    # The JSON tree and text are garbage now; free them before the
    # recomputation in verify_envelope builds its own copy of the payload.
    del data, doc
    verify_envelope(envelope)
    return envelope


def verify_envelope(envelope: CertificateEnvelope) -> None:
    """Re-check an envelope's claims; raises InvariantViolation on failure.

    Exhausted-search node counts are the one claim that cannot be re-checked
    statically; see trust_marker.
    """
    try:
        _KINDS[envelope.kind].verify(envelope.payload)
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
