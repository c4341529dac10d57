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
one C-level map per array; a set of six points or more is encoded in one
map over all their coordinates.  A miss (a larger integer, or anything that
is not a canonical decimal string) sends the array through the per-item
path, which converts with int() and str() and, for a fault, names its index.
Object keys are sorted and arrays keep the canonical orders the producing
operations define, so serializing the same envelope twice yields identical
bytes, through one json.JSONEncoder that every serialize shares.

Parsing re-checks everything checkable without a search: spectrum and tiling
payloads are re-verified outright.  The counterexample bundle is checked
by one ordered sequence of named checks, the same that
counterexample.run_counterexample runs as its pipeline steps: the phase
matrix must be log-Hadamard with rank 4 mod p, its denominator, its two rank
factorizations mod p must re-multiply to it with that rank, and the side
count must be positive.  The published factorization then fixes the base
spectrum and both base non-tiling certificates, which with the side count
fix the composed spectrum and the obstruction report; each stored field is
compared once with the value a check derives for it, and the one claim
taken as stored is the exhausted search's node count.

parse decodes only the premises.  A field that verification derives from
them (the bundle's rank, base spectrum, composed spectrum and obstruction
report, a composition's or lift's result, a chain's one-dimensional tiling)
stays JSON until its check derives it; the stored JSON is then compared
with the canonical encoding of the derivation, and if they are equal the
derivation is the payload's value.  Only a stored field that differs is
decoded, so a malformed one raises MalformedCertificate at its path, and
then checked as an object: a tampered one raises InvariantViolation.  A
derived field is read only when its check runs, after the checks of its
premises, so a malformed one is reported only if they pass: a tampered
premise raises its own InvariantViolation first, and a construction beyond
the guard raises GuardExceeded before its result is decoded.  Until then
the payload that verify_envelope checks holds a _Claim in each derived
field; parse then puts the values they settled in their places.  An
envelope built in memory is read the same way, through a claim of each
derived field's canonical encoding, so verify_envelope checks exactly
what parse checks of its serialization.

A derived certificate (a composition's or lift's result, the bundle's
composed spectrum) must have the group and set size its construction
produces, read from the stored JSON; only then is the construction run
and its output compared, so a tampered one costs no more than the
envelope lists.  The construction does the rest of the checking, since
every construction checks its inputs and never its output: a composition
verifies its two parts and its lemma proves the product, and a lift
verifies its base and its lemma proves the pullback.  The bundle's base
is proven (see _published), its cube by construction: neither is checked again.

An independence chain stores the premises of the pullback lemma, not the
tiling of Z_M^d they imply: parse recomputes the selected block's
determinant and maps each point to Z_M.  When the images are the
progression {|det| * i}, the stored one-dimensional tiling is compared in
one C-level == with the progression's encoding, kept per k and |det| (see
_verify_chain); any other is verified, O(M) more.  Neither walks Z_M^d.

The one thing a static file cannot prove is an exhausted-search node
count; such certificates parse but carry a "replay-required" trust marker
(inside composite records an exhausted search is corroborating evidence
only - the load-bearing claims are re-checked).  tiling.replay_search
re-decides the set by the search's rule and compares the certificates.
A search reason's kind names its rule: "exhausted-search" is the lex rule,
which every file written before the rooted rule means by it, and
"rooted-search" the rooted rule (see tiling._exact_cover); the replay runs
the rule its kind names.

Provenance entries describe how a file was made; they are free text and are
not checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter, lt
from typing import Any, Callable, NamedTuple

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


def _check_parts(record: str, certificate_type: str, *parts: object, result: object) -> None:
    codec = _PARTS.get(certificate_type)
    if codec is None:
        raise ValueError(f"unknown {record} type {certificate_type!r}")
    # Verification holds the result as a _Claim until it settles it.
    if not all(isinstance(part, codec.make) for part in parts) or not isinstance(
        result, (codec.make, _Claim)
    ):
        raise ValueError(f"{record} parts must be {codec.make.__name__}")


@dataclass(frozen=True)
class CompositionRecord:
    """Two certificates and their verified composition T + mS."""

    certificate_type: str  # "spectrum" or "tiling"
    left: SpectrumCertificate | TilingCertificate
    right: SpectrumCertificate | TilingCertificate
    result: SpectrumCertificate | TilingCertificate

    def __post_init__(self) -> None:
        _check_parts(
            "composition", self.certificate_type, self.left, self.right, result=self.result
        )


@dataclass(frozen=True)
class LiftRecord:
    """A certificate pulled back through an integer linear map."""

    certificate_type: str
    transform: IntMatrix
    base: SpectrumCertificate | TilingCertificate
    result: SpectrumCertificate | TilingCertificate

    def __post_init__(self) -> None:
        _check_parts("lift", self.certificate_type, self.base, result=self.result)


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


@dataclass(frozen=True)
class CertificateEnvelope:
    schema_version: str
    kind: str
    payload: (
        SpectrumCertificate
        | TilingCertificate
        | NonTilingCertificate
        | CompositionRecord
        | LiftRecord
        | IndependenceChain
        | CounterexampleRecord
    )
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


def _enc_points(points: Any) -> list:
    """A PointSet's points through the table, or on a miss through _POINT_LIST.
    From six points on, one C-level pass over all coordinates, cut back into
    points of the first point's length, which they all share, saves more
    than it costs to set up; fewer are looked up one point at a time."""
    try:
        if len(points) < 6:
            return [list(map(_TO_STR.__getitem__, p)) for p in points]
        flat = map(_TO_STR.__getitem__, chain.from_iterable(points))
        return list(map(list, zip(*[flat] * len(points[0]))))
    except _MISS:
        return _POINT_LIST.encode(points)


_INT = _Codec(_enc_int, _dec_int)
_BOOL = _Codec(bool, _check(bool, "a boolean"))
_STR = _Codec(str, _check(str, "a string"))
_INTS = _list_of(_INT, _Codec(_TO_STR.__getitem__, _FROM_STR.__getitem__))
_POINT_LIST = _list_of(_INTS)
_POINTS = _Codec(_enc_points, _POINT_LIST.decode)
_STRINGS = (_INT, _STR, _INTS, _POINTS)  # each encodes to strings or arrays of them


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


class _Derived(NamedTuple):
    """A payload field that verification derives from the premises: a
    _Record encodes it by codec and decodes it to a _Claim."""

    codec: Any


def _encodes(codec: Any, value: Any, obj: Any) -> bool:
    """Whether obj is the canonical encoding of value.

    A string equals only a string, so a record whose leaves are all strings
    (``exact``), as a certificate's are, is compared whole, in C, with its
    encoding, no larger than obj (see _pin) or the derivation.  Another is
    compared field by field, each leaf's type too: == takes a JSON 0 for false.
    """
    if type(codec) is _Record and not codec.exact:
        if type(obj) is not dict or obj.keys() != codec.keys:
            return False
        for name, item in codec.fields:
            if not _encodes(item, getattr(value, name), obj[name]):
                return False
        return True
    canonical = codec.encode(value)
    return type(obj) is type(canonical) and obj == canonical


class _Claim:
    """A derived payload field as the envelope stores it, still JSON.

    parse passes it to the payload's constructor in the field's place, as
    _claimed does for an in-memory field's canonical encoding, and
    verification settles it against the field's derivation (see _settle):
    ``value`` is then the field's value, which parse puts in its place.
    It is decoded only when it differs from the derivation.
    """

    __slots__ = ("obj", "codec", "name", "value")

    def __init__(self, obj: Any, codec: Any, name: str) -> None:
        self.obj, self.codec, self.name = obj, codec, name

    def encodes(self, value: Any) -> bool:
        self.value = value  # decode replaces it if the two differ
        return _encodes(self.codec, value, self.obj)

    def decode(self) -> Any:
        """The stored value; a fault raises located at payload.<name>."""
        try:
            self.value = self.codec.decode(self.obj)
        except _Bad as exc:
            raise exc.at(f".{self.name}").at(".payload").located() from None
        return self.value

    def shape(self) -> tuple[GroupSpec, int] | None:
        """The group and set size the stored certificate claims, read
        without decoding its points; None if they are not readable so."""
        try:
            points = self.obj["set"]["points"]
            if type(points) is list:
                return _GROUP.decode(self.obj["group"]), len(points)
        except (_Bad, *_MISS):
            pass
        return None

    def premise(self, key: str) -> Any:
        """The stored record's field key, a premise, decoded alone; a fault
        in it raises as decoding the whole claim does."""
        try:
            return self.codec.codecs[key].decode(self.obj[key])
        except (_Bad, *_MISS):
            return getattr(self.decode(), key)


class _Record:
    """A dataclass as a JSON object whose keys are exactly its field names.

    ``make`` builds the value from the decoded fields; its ValueError means
    the fields are well-formed but inconsistent, an InvariantViolation.  A
    _Derived field is passed to ``make`` as a _Claim; only payload records
    have them, so a claim's path is payload.<name>.
    """

    def __init__(self, make: Callable[..., Any], **fields: Any) -> None:
        self.make = make
        self.keys = frozenset(fields)
        self.codecs = {
            name: codec.codec if type(codec) is _Derived else codec
            for name, codec in fields.items()
        }
        self.fields = tuple(self.codecs.items())
        self.exact = all(getattr(c, "exact", c in _STRINGS) for c in self.codecs.values())
        self.derived = tuple(name for name, codec in fields.items() if type(codec) is _Derived)
        self.decoders = tuple(
            (name, partial(_Claim, codec=codec.codec, name=name))
            if type(codec) is _Derived
            else (name, codec.decode)
            for name, codec in fields.items()
        )

    def encode(self, value: Any) -> dict:
        return {name: codec.encode(getattr(value, name)) for name, codec in self.fields}

    def decode(self, obj: Any) -> Any:
        _keys(obj, self.keys)
        values = {}
        try:
            for name, decode in self.decoders:
                values[name] = decode(obj[name])
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
    """A tag key inside the object picks the codec of its other keys; the
    tag is read from the value by ``tag_of``."""

    def __init__(self, tag: str, variants: dict[str, Any], tag_of: Callable[[Any], str]) -> None:
        self.tag = tag
        self.variants = variants
        self.tag_of = tag_of

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
# An exhausted search's rule is its reason's kind: "exhausted-search" is the
# lex rule, as every schema-1 file written before the rooted rule meant it.
_SEARCH_KINDS = {"lex": "exhausted-search", "rooted": "rooted-search"}
_REASONS = {
    "divisibility": _Record(DivisibilityObstruction, set_size=_INT, group_order=_INT),
    "duplicate-residues": _Record(DuplicateResidues, first=_INTS, second=_INTS),
    **{
        kind: _Record(partial(ExhaustedSearch, rule=rule), nodes=_INT)
        for rule, kind in _SEARCH_KINDS.items()
    },
}


def _reason_kind(reason: Any) -> str:
    if type(reason) is ExhaustedSearch:
        return _SEARCH_KINDS[reason.rule]
    return _variant(_REASONS, reason)


_REASON = _Tagged("kind", _REASONS, _reason_kind)
_NON_TILING = _Record(NonTilingCertificate, group=_GROUP, set=_POINT_SET, reason=_REASON)
_FACTORIZATION = _Record(RankFactorization, modulus=_INT, left=_MATRIX, right=_MATRIX, rank=_INT)
_PARTS = {"spectrum": _SPECTRUM, "tiling": _TILING}
_COMPOSITION = _Tagged(
    "certificate_type",
    {
        name: _Record(
            partial(CompositionRecord, name), left=part, right=part, result=_Derived(part)
        )
        for name, part in _PARTS.items()
    },
    attrgetter("certificate_type"),
)
_LIFT = _Tagged(
    "certificate_type",
    {
        name: _Record(
            partial(LiftRecord, name), transform=_MATRIX, base=part, result=_Derived(part)
        )
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
    one_dimensional=_Derived(_TILING),
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
    rank=_Derived(_INT),
    published_factorization=_FACTORIZATION,
    computed_factorization=_FACTORIZATION,
    base_spectrum=_Derived(_SPECTRUM),
    base_non_tiling_divisibility=_NON_TILING,
    base_non_tiling_search=_NON_TILING,
    composed_spectrum=_Derived(_SPECTRUM),
    obstructions=_Derived(_OBSTRUCTIONS),
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
    # The sizes multiply to the order, which a small envelope can make huge.
    check_power_guard(cert.group.modulus, cert.group.dimension)
    _require(verify_tiling(cert), "tiling certificate fails verification")


def _verify_non_tiling(cert: NonTilingCertificate) -> None:
    """Reasons are re-validated structurally on construction."""


def _settle(stored: _Claim, derived: Any, differs: Callable[[Any], None]) -> Any:
    """The value of a derived field: its derivation, if the stored value is
    that, else the stored value once ``differs(stored)`` accepts it.

    The claim is compared as JSON with the derivation's canonical encoding
    and decoded only if they differ, so a malformed one raises
    MalformedCertificate at its path.  differs raises InvariantViolation to
    refuse.  derived is None when the premises fix no value, and then the
    stored value always goes to it.
    """
    if derived is not None and stored.encodes(derived):
        return derived
    value = stored.decode()
    if value != derived:
        differs(value)
    return value


def _refuse(msg: str) -> Callable[[Any], None]:
    """A differs for _settle that accepts no value but the derivation."""
    return lambda stored: _require(False, msg)


_COMPOSE = {"spectrum": spectral.compose_spectral, "tiling": tiling.compose_tile}
_LIFT_BACK = {"spectrum": spectral.lift_spectrum, "tiling": tiling.lift_tile}


def _pin(what: str, result: _Claim, group: GroupSpec, size: int) -> None:
    """Before a construction runs, its result must have the group and set
    size it produces.  A tiling's sizes multiply to its group order, so a
    tiling construction then builds no more cells, and a spectral one
    checks no more points, than the result lists.  The claim is read for them
    undecoded; only a mismatch decodes it, so a malformed one raises as
    such first."""
    if result.shape() == (group, size):
        return
    cert = result.decode()
    for field in ("modulus", "dimension"):
        _require(getattr(cert.group, field) == getattr(group, field), f"{what} {field} mismatch")
    _require(len(cert.set) == size, f"{what} set size is not the construction's")


def _recompute(what: str, result: _Claim, group: GroupSpec, size: int, construct: Callable) -> None:
    """Pin a derived certificate, then recompute and settle it.  The
    construction verifies its inputs and never its output, which its lemma
    proves."""
    _pin(what, result, group, size)
    _settle(result, construct(), _refuse(f"{what} result does not recompute"))


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
    base = rec.base
    # The points lifted are the result's set, the one premise inside it.
    points = rec.result.premise("set")
    _recompute(
        "lift",
        rec.result,
        GroupSpec(base.group.modulus, points.dimension),
        len(base.set),
        partial(_LIFT_BACK[rec.certificate_type], points, rec.transform, base),
    )


def _verify_chain(rec: IndependenceChain) -> None:
    """Check the premises of the pullback lemma (see tiling.lift_tile).

    The selected block's determinant must recompute, and phi must map the
    points onto a tiling of Z_M.  The progression lemma makes that tiling
    arithmetic when phi maps the i-th point to |det| * i: the progression
    {|det| * i : i < k} tiles Z_M, M = k * |det|, with complement
    [0, |det|), since division with remainder writes each x in Z_M as
    |det| * i + s for exactly one i < k and s < |det|.  That tiling, the one
    independent_tile stores, is settled by one == on its encoding, with no
    coverage check; any other stored tiling of Z_M is verified.  The work is
    O(k*d + k^3), and O(M) for a progression not kept or another tiling: no
    lift is recomputed, and Z_M^d is not walked; the guard admits Z_M^d
    only so that reading the chain's on-demand tiling, final, stays in it.
    """
    points = rec.set.points
    k, d = len(points), rec.set.dimension
    rows = rec.selected_rows
    _require(
        len(rows) == k and 0 <= rows[0] and rows[-1] < d and all(map(lt, rows, rows[1:])),
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
    step = abs(rec.determinant)
    claim, progression = rec.one_dimensional, None
    if images == list(range(0, m, step)):
        progression, canonical = (_progression if m <= _SMALL else _progression.__wrapped__)(k, step)
        if claim.obj == canonical:  # exact, as a tiling's encoding is (see _encodes)
            claim.value = progression
            return
    _settle(claim, progression, partial(_one_dimensional, m, images))


@lru_cache(maxsize=64)
def _progression(k: int, step: int) -> tuple[TilingCertificate, dict]:
    """tiling._progression(k, step) and its canonical encoding, which is only
    compared: k and |det| fix both, kept for a Z_M the int table covers."""
    progression = tiling._progression(k, step)
    return progression, _TILING.encode(progression)


def _one_dimensional(m: int, images: list[int], one: TilingCertificate) -> None:
    """A stored tiling of Z_M other than the progression's: phi must map
    the set onto its set, in order, and it must tile."""
    _require(one.group == GroupSpec(m, 1), "one-dimensional tiling is not of Z_M")
    _require(
        images == [p[0] % m for p in one.set.points],
        "row transform does not map the set onto the one-dimensional tiling's set",
    )
    # A tiling's set has distinct residues, so this also makes phi injective
    # on the set.
    _verify_tiling(one)


class _Facts(dict):
    """A counterexample's fields by name, as its checks take and derive them.

    A premise (the side count, the phase matrix, both factorizations, both
    base non-tiling certificates) is ``given[name]()``, taken in the check
    that checks it: a stored bundle's field, or the pipeline's construction,
    which so runs inside that check.  A derived field, one the premises fix,
    is settled once, when it is derived, against the ``claimed`` bundle's
    _Claim, if there is one.
    """

    def __init__(
        self,
        given: dict[str, Callable[[], Any]],
        claimed: CounterexampleRecord | None = None,
        guard: int | None = None,
    ) -> None:
        super().__init__()
        self.given, self.claimed, self.guard = given, claimed, guard

    def premise(self, name: str) -> Any:
        value = self[name] = self.given[name]()
        return value

    def derive(self, name: str, value: Any, differs: Callable[[Any], None] | None = None) -> Any:
        """Settle the claimed field against value (see _settle); by default
        nothing but value is accepted."""
        if self.claimed is not None:
            value = _settle(
                getattr(self.claimed, name),
                value,
                differs or _refuse(f"{name.replace('_', ' ')} does not recompute"),
            )
        self[name] = value
        return value

    def record(self) -> CounterexampleRecord:
        return CounterexampleRecord(**{f.name: self[f.name] for f in fields(CounterexampleRecord)})


def _log_hadamard(facts: _Facts) -> str:
    phase = facts.premise("phase_exponents")
    # It builds its cyclotomic decision, and so checks the bound, before it
    # allocates anything by the denominator.
    _require(is_log_hadamard(phase), "phase exponent matrix is not log-Hadamard")
    k = phase.numerators.rows
    return f"all {k * (k - 1) // 2} row pairs vanish exactly"


def _rank(facts: _Facts) -> str:
    phase = facts["phase_exponents"]
    p = phase.denominator
    rank = facts.derive("rank", rank_mod_p(phase.numerators, p))
    _require(rank == 4, f"rank {rank} mod {p}, where the construction needs 4")
    return f"rank {rank} mod {p}"


def _factorization(facts: _Facts, name: str) -> RankFactorization:
    """With the rank matched, the product alone shows both factors have it:
    rank(L @ R) <= min(rank L, rank R) <= r (see RankFactorization)."""
    fact, phase = facts.premise(f"{name}_factorization"), facts["phase_exponents"]
    _require(fact.modulus == phase.denominator, f"{name} factorization modulus mismatch")
    _require(fact.rank == facts["rank"], f"{name} factorization rank mismatch")
    _require(
        fact.product_mod_p() == phase.numerators,
        f"{name} factorization does not re-multiply to the phase matrix",
    )
    return fact


def _published(facts: _Facts) -> str:
    """The published factorization fixes the base spectrum: the group Z_p^r,
    the right factor's columns as its set and the left factor's rows over p.
    With step 1 this proves it a spectrum: L @ R = H mod p makes the pair sum
    of rows L_i and L_i' over the points R_j the sum over j of
    zeta_p^(H_ij - H_i'j), the phase matrix's row inner product, which is 0."""
    fact = _factorization(facts, "published")
    p, right = fact.modulus, fact.right
    base_set = PointSet(right.rows, tuple(right.column(j) for j in range(right.cols)))
    group = GroupSpec(p, right.rows)
    facts.derive("base_spectrum", SpectrumCertificate(group, base_set, PhaseMatrix(fact.left, p)))
    return f"left @ right re-multiplies to the phase matrix mod {p}"


def _computed(facts: _Facts) -> str:
    return f"computed factorization re-multiplies, rank {_factorization(facts, 'computed').rank}"


def _non_tiling(name: str, kind: type, detail: str) -> Callable[[_Facts], str]:
    """The check of a base non-tiling certificate: the base group and set
    with its reason, whose kind is checked first; building the certificate
    pins a divisibility reason's sizes."""
    field, what = f"base_non_tiling_{name}", f"base non tiling {name}"

    def check(facts: _Facts) -> str:
        stored = facts.premise(field)
        reason = getattr(stored, "reason", None)
        _require(isinstance(reason, kind), f"{what} carries the wrong reason")
        base = facts["base_spectrum"]
        try:
            derived = NonTilingCertificate(base.group, base.set, reason)
        except ValueError as exc:
            raise InvariantViolation(f"{what} does not recompute: {exc}") from exc
        _require(stored == derived, f"{what} does not recompute")
        return detail.format(reason)

    return check


def _composed(facts: _Facts) -> str:
    n = facts.premise("side_count")
    _require(n >= 1, "side count must be at least 1")
    base = facts["base_spectrum"]
    p, d = base.group.modulus, base.group.dimension
    if facts.claimed is not None:
        # The pinned group and set size bound the recomputation by the
        # envelope's own size, whatever side count it claims.
        _pin("composed", facts.claimed.composed_spectrum, GroupSpec(p * n, d), len(base.set) * n**d)
    # The base is proven (see _published), the cube by construction.
    cube = cube_spectrum(n, d, facts.guard)
    composed = facts.derive("composed_spectrum", spectral._product(base, cube))
    return (
        "product lemma on the base spectrum (steps 1 and 3) and the cube (by construction): "
        f"{len(composed.set)} points, denominator {p * n}"
    )


def _obstructions(facts: _Facts) -> str:
    """The report by arithmetic (the lemma in tiling._obstruction_report)
    with the divisibility certificate as its base verdict.  A stored report
    is compared field by field, so a refusal names the first that differs."""
    base, n = facts["base_spectrum"], facts["side_count"]
    p = base.group.modulus
    # The base set lies in [0, p), as RankFactorization keeps it: the lemma holds.
    rep = tiling._obstruction_report(base.set, p, n, facts["base_non_tiling_divisibility"])
    facts.derive("obstructions", rep, partial(_first_difference, rep))
    _require(not rep.size_divides, "the extension's size divides its group order")
    return (
        f"{rep.extension_size} does not divide {rep.extended_group_order}; "
        f"mod-{p} reduction multiplicity {rep.reduction_multiplicity}; "
        "asymptotic non-tiling recorded as a cited claim"
    )


def _first_difference(rep: ExtensionObstructionReport, stored: ExtensionObstructionReport) -> None:
    for field in fields(rep):
        _require(
            getattr(stored, field.name) == getattr(rep, field.name),
            f"obstruction {field.name.replace('_', ' ')} does not recompute",
        )


# The counterexample's checks in order: step name, payload field, check.  A
# check returns its detail or raises InvariantViolation.  parse runs them on
# a stored bundle; counterexample.run_counterexample runs them on the
# premises it builds, one timed pipeline step each.
_COUNTEREXAMPLE_CHECKS: tuple[tuple[str, str, Callable[[_Facts], str]], ...] = (
    ("phase-matrix-log-hadamard", "payload.phase_exponents", _log_hadamard),
    ("rank-mod-3", "payload.rank", _rank),
    ("published-factorization", "payload.published_factorization", _published),
    ("fresh-factorization", "payload.computed_factorization", _computed),
    (
        "base-set-not-a-tile-divisibility",
        "payload.base_non_tiling_divisibility",
        _non_tiling(
            "divisibility", DivisibilityObstruction, "{0.set_size} does not divide {0.group_order}"
        ),
    ),
    (
        "base-set-not-a-tile-exhaustive",
        "payload.base_non_tiling_search",
        # The node count is the one claim taken as stored (see trust_marker).
        _non_tiling("search", ExhaustedSearch, "search exhausted after {0.nodes} nodes"),
    ),
    ("composed-set-spectral", "payload.composed_spectrum", _composed),
    ("extension-obstructions", "payload.obstructions", _obstructions),
)


def _verify_counterexample(rec: CounterexampleRecord) -> None:
    """Run the counterexample's checks with the stored fields as premises."""
    facts = _Facts({f.name: partial(getattr, rec, f.name) for f in fields(rec)}, rec)
    for _, _, check in _COUNTEREXAMPLE_CHECKS:
        check(facts)


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
# One encoder for every serialize; the codec builds each tree fresh, with no cycles.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def serialize(envelope: CertificateEnvelope) -> bytes:
    """Canonical bytes for an envelope: sorted keys, decimal-string integers."""
    _fill_tables()
    doc = {
        "schema_version": envelope.schema_version,
        "kind": envelope.kind,
        "payload": _KINDS[envelope.kind].codec.encode(envelope.payload),
        "provenance": _PROVENANCE.encode(envelope.provenance),
    }
    return (_JSON.encode(doc) + "\n").encode("utf-8")


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
    # The JSON text and tree are garbage now, but for the derived fields'
    # JSON, which their claims hold until verification settles them.
    del data, doc
    verify_envelope(envelope)
    # Each claim now holds the value verification settled for it.  No caller
    # has seen the payload yet: finish it in place, as __post_init__ would.
    for name, value in vars(payload).items():
        if type(value) is _Claim:
            object.__setattr__(payload, name, value.value)
    return envelope


def verify_envelope(envelope: CertificateEnvelope) -> None:
    """Re-check an envelope's claims; raises InvariantViolation on failure.

    An envelope built in memory is checked exactly as parse checks its
    serialization (see _claimed).  Exhausted-search node counts are the one
    claim that cannot be re-checked statically; see trust_marker.
    """
    kind = _KINDS[envelope.kind]
    try:
        kind.verify(_claimed(kind.codec, envelope.payload))
    except (CertificateError, GuardExceeded):
        raise
    except ValueError as exc:
        # Recomputation helpers reject inconsistent inputs with ValueError;
        # for a stored envelope that is a failed re-check, not a usage error.
        raise InvariantViolation(str(exc)) from exc


def _claimed(codec: Any, payload: Any) -> Any:
    """The payload as verification reads it, each derived field a _Claim:
    parse's as it is, and one built in memory copied with a claim of each
    derived field's canonical encoding, so it is checked as its
    serialization is."""
    if type(codec) is _Tagged:
        codec = codec.variants[codec.tag_of(payload)]
    claims = {}
    for name in codec.derived:
        value = getattr(payload, name)
        if type(value) is not _Claim:
            _fill_tables()
            field = codec.codecs[name]
            claims[name] = _Claim(field.encode(value), field, name)
    return replace(payload, **claims) if claims else payload


def trust_marker(envelope: CertificateEnvelope) -> str:
    """"verified" when every claim re-checks statically; "replay-required"
    when the envelope's own verdict rests on an exhausted search."""
    if envelope.kind == "non-tiling" and isinstance(envelope.payload.reason, ExhaustedSearch):
        return "replay-required"
    return "verified"
