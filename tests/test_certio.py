import json
import random
import re
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from chain_oracle import two_stage_lift
from spectratile import certio, guard, spectral, tiling
from spectratile.certio import (
    CertificateEnvelope,
    CertificateError,
    CompositionRecord,
    InvariantViolation,
    LiftRecord,
    MalformedCertificate,
    ProvenanceEntry,
    SchemaVersionError,
    parse,
    serialize,
    trust_marker,
)
from spectratile.counterexample import run_counterexample
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    cube_spectrum,
    find_spectrum,
    lift_spectrum,
)
from spectratile.tiling import (
    DivisibilityObstruction,
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    independent_tile,
    lift_tile,
    replay_search,
)

PROV = (ProvenanceEntry("test", ("inline",)),)


def envelope(kind, payload):
    return CertificateEnvelope(certio.SCHEMA_VERSION, kind, payload, PROV)


def line_set(*values):
    return PointSet(1, tuple((v,) for v in values))


@pytest.fixture(scope="module")
def samples():
    spectrum = find_spectrum(line_set(0, 1), 2)
    tiling_cert = decide_m_tile(line_set(0, 1), GroupSpec(4, 1))
    divisibility = decide_m_tile(line_set(0, 1, 2), GroupSpec(4, 1))
    exhausted = decide_m_tile(
        line_set(0, 1, 3), GroupSpec(6, 1), divisibility_shortcut=False
    )
    rooted = decide_m_tile(line_set(0, 2, 4, 7), GroupSpec(12, 1))
    composition_t = CompositionRecord(
        "tiling", tiling_cert, tiling_cert, compose_tile(tiling_cert, tiling_cert)
    )
    composition_s = CompositionRecord(
        "spectrum", spectrum, spectrum, compose_spectral(spectrum, spectrum)
    )
    base = cube_spectrum(2, 1)
    transform = IntMatrix.from_rows([[1, 0]])
    diag = PointSet(2, ((0, 0), (1, 1)))
    lift_s = LiftRecord("spectrum", transform, base, lift_spectrum(diag, transform, base))
    pair = PointSet(2, ((0, 0), (1, 0)))
    lift_t = LiftRecord(
        "tiling", transform, tiling_cert.__class__(
            GroupSpec(2, 1), line_set(0, 1), line_set(0)
        ),
        lift_tile(pair, transform, tiling_cert.__class__(
            GroupSpec(2, 1), line_set(0, 1), line_set(0)
        )),
    )
    chain = independent_tile(PointSet(2, ((1, 0), (0, 1))))
    counterexample = run_counterexample(1).envelope
    assert counterexample is not None
    assert isinstance(divisibility.reason, DivisibilityObstruction)
    assert isinstance(exhausted.reason, ExhaustedSearch)
    assert rooted.reason == ExhaustedSearch(5, rule="rooted")
    return {
        "spectrum": envelope("spectrum", spectrum),
        "tiling": envelope("tiling", tiling_cert),
        "non-tiling-divisibility": envelope("non-tiling", divisibility),
        "non-tiling-exhausted": envelope("non-tiling", exhausted),
        "non-tiling-rooted": envelope("non-tiling", rooted),
        "composition-tiling": envelope("composition", composition_t),
        "composition-spectrum": envelope("composition", composition_s),
        "lift-spectrum": envelope("lift", lift_s),
        "lift-tiling": envelope("lift", lift_t),
        "independence-chain": envelope("independence-chain", chain),
        "counterexample": counterexample,
    }


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "spectrum",
            "tiling",
            "non-tiling-divisibility",
            "non-tiling-exhausted",
            "non-tiling-rooted",
            "composition-tiling",
            "composition-spectrum",
            "lift-spectrum",
            "lift-tiling",
            "independence-chain",
            "counterexample",
        ],
    )
    def test_parse_serialize_identity(self, samples, name):
        env = samples[name]
        data = serialize(env)
        parsed = parse(data)
        assert parsed == env
        assert serialize(parsed) == data

    def test_serialization_is_deterministic(self, samples):
        env = samples["counterexample"]
        assert serialize(env) == serialize(env)

    def test_bytes_are_canonical_json(self, samples):
        doc = json.loads(serialize(samples["tiling"]))
        assert doc["schema_version"] == "1"
        assert doc["kind"] == "tiling"
        # integers are decimal strings throughout
        assert doc["payload"]["group"]["modulus"] == "4"
        assert doc["payload"]["set"]["points"][0] == ["0"]


class TestTrustMarker:
    def test_verified_kinds(self, samples):
        for name in ("spectrum", "tiling", "non-tiling-divisibility", "counterexample"):
            assert trust_marker(samples[name]) == "verified"

    def test_exhausted_search_requires_replay(self, samples):
        assert trust_marker(samples["non-tiling-exhausted"]) == "replay-required"
        assert trust_marker(samples["non-tiling-rooted"]) == "replay-required"


def _mutate(env, path, value):
    doc = json.loads(serialize(env))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc).encode()


class TestParseRejections:
    def test_truncated_input(self, samples):
        data = serialize(samples["tiling"])
        with pytest.raises(MalformedCertificate):
            parse(data[: len(data) // 2])

    def test_not_json(self):
        with pytest.raises(MalformedCertificate):
            parse(b"\xff\xfe")
        with pytest.raises(MalformedCertificate):
            parse("just text")

    def test_unknown_kind(self, samples):
        with pytest.raises(MalformedCertificate):
            parse(_mutate(samples["tiling"], ["kind"], "mystery"))

    def test_schema_version_mismatch(self, samples):
        with pytest.raises(SchemaVersionError):
            parse(_mutate(samples["tiling"], ["schema_version"], "2"))

    def test_schema_version_mismatch_with_other_fields(self, samples):
        # Another version may have other fields; it is refused for its version.
        doc = json.loads(serialize(samples["tiling"]))
        doc["schema_version"] = "2"
        del doc["provenance"]
        with pytest.raises(SchemaVersionError):
            parse(json.dumps(doc).encode())
        doc["signature"] = "x"
        with pytest.raises(SchemaVersionError):
            parse(json.dumps(doc).encode())
        del doc["schema_version"]
        with pytest.raises(MalformedCertificate, match="missing"):
            parse(json.dumps(doc).encode())

    def test_size_product_violation(self, samples):
        # Drop a complement point: |set| * |complement| no longer matches m^d.
        doc = json.loads(serialize(samples["tiling"]))
        doc["payload"]["complement"]["points"].pop()
        with pytest.raises(InvariantViolation):
            parse(json.dumps(doc).encode())

    def test_tampered_spectrum_fails_verification(self, samples):
        with pytest.raises(InvariantViolation):
            parse(
                _mutate(
                    samples["spectrum"],
                    ["payload", "spectrum", "numerators", "entries", 1],
                    "0",
                )
            )

    def test_tampered_tiling_fails_verification(self, samples):
        with pytest.raises(InvariantViolation):
            parse(
                _mutate(
                    samples["tiling"], ["payload", "complement", "points", 1], ["1"]
                )
            )

    def test_divisibility_reason_must_hold(self, samples):
        # Claiming 2 does not divide 4 is rejected structurally.
        doc = json.loads(serialize(samples["non-tiling-divisibility"]))
        doc["payload"]["reason"]["set_size"] = "2"
        with pytest.raises(InvariantViolation):
            parse(json.dumps(doc).encode())

    def test_composition_result_must_recompute(self, samples):
        with pytest.raises(InvariantViolation):
            parse(
                _mutate(
                    samples["composition-tiling"],
                    ["payload", "result", "complement", "points", 0],
                    ["1"],
                )
            )

    def test_lift_result_must_recompute(self, samples):
        with pytest.raises(InvariantViolation):
            parse(
                _mutate(
                    samples["lift-spectrum"],
                    ["payload", "result", "spectrum", "numerators", "entries", 2],
                    "0",
                )
            )

    def test_chain_must_recompute(self, samples):
        with pytest.raises(InvariantViolation):
            parse(_mutate(samples["independence-chain"], ["payload", "determinant"], "-1"))

    def test_counterexample_rank_must_recompute(self, samples):
        with pytest.raises(InvariantViolation):
            parse(_mutate(samples["counterexample"], ["payload", "rank"], "3"))

    def test_counterexample_claim_must_be_untouched(self, samples):
        with pytest.raises(InvariantViolation):
            parse(
                _mutate(
                    samples["counterexample"],
                    ["payload", "obstructions", "asymptotic_claim"],
                    "all fine, trust me",
                )
            )

    def test_non_canonical_integer_rejected(self, samples):
        with pytest.raises(MalformedCertificate):
            parse(_mutate(samples["tiling"], ["payload", "group", "modulus"], "04"))
        with pytest.raises(MalformedCertificate):
            parse(_mutate(samples["tiling"], ["payload", "group", "modulus"], 4))

    def test_extra_field_rejected(self, samples):
        doc = json.loads(serialize(samples["tiling"]))
        doc["payload"]["comment"] = "sneaky"
        with pytest.raises(MalformedCertificate):
            parse(json.dumps(doc).encode())

    def test_empty_provenance_rejected(self, samples):
        doc = json.loads(serialize(samples["tiling"]))
        doc["provenance"] = []
        with pytest.raises(MalformedCertificate):
            parse(json.dumps(doc).encode())

    def test_wrong_payload_type_for_kind(self, samples):
        doc = json.loads(serialize(samples["tiling"]))
        doc["kind"] = "spectrum"
        with pytest.raises(MalformedCertificate):
            parse(json.dumps(doc).encode())


class TestEnvelopeConstruction:
    def test_unknown_kind_rejected(self, samples):
        with pytest.raises(ValueError):
            CertificateEnvelope("1", "mystery", samples["tiling"].payload, PROV)

    def test_payload_kind_mismatch_rejected(self, samples):
        with pytest.raises(ValueError):
            CertificateEnvelope("1", "spectrum", samples["tiling"].payload, PROV)

    def test_empty_provenance_rejected(self, samples):
        with pytest.raises(ValueError):
            CertificateEnvelope("1", "tiling", samples["tiling"].payload, ())

    def test_unsupported_schema_version_rejected(self, samples):
        with pytest.raises(ValueError):
            CertificateEnvelope("2", "tiling", samples["tiling"].payload, PROV)


class TestHostileCounterexample:
    def test_inflated_side_count_rejected_before_building_the_extension(self, monkeypatch):
        """The cube is the first thing parse builds for a bundle (the
        extension is the composed set), so the pins must fire before it."""

        class CubeBuilt(Exception):
            pass

        def refuse(*args, **kwargs):
            raise CubeBuilt("cube_spectrum ran before the cheap size checks")

        golden = Path(__file__).resolve().parent / "data" / "counterexample_n2.json"
        doc = json.loads(golden.read_bytes())
        doc["payload"]["side_count"] = "16"
        monkeypatch.setattr(certio, "cube_spectrum", refuse)
        with pytest.raises(CertificateError, match="modulus mismatch"):
            parse(json.dumps(doc).encode())
        # With the composed modulus inflated to match, the set size still gives it away.
        composed = doc["payload"]["composed_spectrum"]
        composed["group"]["modulus"] = composed["spectrum"]["denominator"] = "48"
        with pytest.raises(CertificateError, match="composed set size"):
            parse(json.dumps(doc).encode())

    @pytest.mark.parametrize("name", ["published", "computed"])
    def test_factorization_that_does_not_remultiply_is_refused(self, name):
        # A zero column of the right factor made nonzero: modulus and rank
        # still match the phase matrix's, so only the product gives it away.
        path = ("payload", f"{name}_factorization", "right", "entries", 0)
        with pytest.raises(InvariantViolation, match=f"{name} factorization does not re-multiply"):
            parse(_edit(GOLDEN.read_bytes(), path, "1"))

    @pytest.mark.parametrize("denominator", [10**20, 10**6])
    def test_phase_denominator_past_the_cyclotomic_bound_refused_before_allocating(
        self, denominator
    ):
        """The log-Hadamard check builds its decision, and so checks the
        cyclotomic bound, before it allocates anything by the denominator."""
        doc = json.loads(GOLDEN.read_bytes())
        doc["payload"]["phase_exponents"]["denominator"] = str(denominator)
        data = json.dumps(doc).encode()
        tracemalloc.start()
        try:
            with pytest.raises(CertificateError, match="index must lie"):
                parse(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestHostileSpectrum:
    def test_modulus_beyond_the_cyclotomic_bound_rejected_at_once(self, rng):
        # About 10 KB of JSON; the transform over Z_100000 would need gigabytes.
        m, k = 10**5, 448
        points = PointSet(1, tuple((x,) for x in range(k)))
        rows = IntMatrix(k, 1, tuple(rng.sample(range(m), k)))
        cert = SpectrumCertificate(GroupSpec(m, 1), points, PhaseMatrix(rows, m))
        data = serialize(envelope("spectrum", cert))
        with pytest.raises(CertificateError, match="index must lie"):
            parse(data)


TWO_LINE = TilingCertificate(GroupSpec(2, 1), line_set(0), line_set(0, 1))


class TestHostileGroupOrder:
    """Envelopes over Z_m^d with a 4000-digit m and d = 2000, whose order
    m**d has millions of digits: each is refused, or replayed, without
    computing that power."""

    MODULUS = "9" * 4000
    DIMENSION = 2000

    @pytest.fixture(autouse=True)
    def bounded_orders(self, monkeypatch):
        order = GroupSpec.order

        def bounded(group):
            if group.modulus.bit_length() * group.dimension > 10**6:
                raise AssertionError("computed the order of a huge group")
            return order(group)

        monkeypatch.setattr(GroupSpec, "order", bounded)

    def _doc(self, kind, npoints, **payload):
        d = self.DIMENSION
        points = {
            "dimension": str(d),
            "points": [[str(int(i == j)) for j in range(d)] for i in range(npoints)],
        }
        payload["group"] = {"modulus": self.MODULUS, "dimension": str(d)}
        payload["set"] = points
        if kind == "tiling":
            payload["complement"] = points
        return self._raw(kind, payload)

    @staticmethod
    def _raw(kind, payload):
        provenance = [{"operation": "test", "inputs": []}]
        doc = {"schema_version": "1", "kind": kind, "payload": payload, "provenance": provenance}
        return json.dumps(doc)

    def test_tiling(self):
        with pytest.raises(InvariantViolation, match="multiply to the group order"):
            parse(self._doc("tiling", 1))

    def test_divisibility(self):
        reason = {"kind": "divisibility", "set_size": "2", "group_order": "3"}
        with pytest.raises(InvariantViolation, match="group order disagrees"):
            parse(self._doc("non-tiling", 2, reason=reason))

    def test_chain_with_a_huge_modulus(self):
        # M = |det| is a 4000-digit number; computing M**d takes about 10 s.
        d = self.DIMENSION
        point = [self.MODULUS] + ["0"] * (d - 1)
        payload = {
            "set": {"dimension": str(d), "points": [point]},
            "selected_rows": ["0"],
            "determinant": self.MODULUS,
            "modulus": self.MODULUS,
            "row_transform": {"rows": "1", "cols": "1", "entries": ["0"]},
            "one_dimensional": json.loads(serialize(envelope("tiling", TWO_LINE)))["payload"],
        }
        start = time.perf_counter()
        with pytest.raises(guard.GuardExceeded):
            parse(self._raw("independence-chain", payload))
        assert time.perf_counter() - start < 1.0

    def test_exhausted_search_replay(self):
        reason = {"kind": "exhausted-search", "nodes": "5"}
        env = parse(self._doc("non-tiling", 2, reason=reason))
        assert trust_marker(env) == "replay-required"
        with pytest.raises(guard.GuardExceeded):
            replay_search(env.payload)


@pytest.fixture
def verified(monkeypatch):
    """Every certificate verify_spectrum is called on or whose tiling
    coverage is checked (by verify_tiling or lift_tile), in order."""
    calls = []
    for module, name in (
        (certio, "verify_spectrum"),
        (spectral, "verify_spectrum"),
        (tiling, "_coverage"),
    ):
        original = getattr(module, name)

        def recording(cert, original=original):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(module, name, recording)
    return calls


class TestParseVerifiesEachCertificateOnce:
    @pytest.mark.parametrize("name", ["composition-tiling", "composition-spectrum"])
    def test_composition(self, samples, verified, name):
        """The construction verifies both parts, once each, and never the
        product, which its lemma proves.  parse leaves the parts to it, so
        the public constructions keep their bad-input ValueError with one
        code path and no flag."""
        record = parse(serialize(samples[name])).payload
        assert verified == [record.left, record.right]

    @pytest.mark.parametrize("name", ["lift-tiling", "lift-spectrum"])
    def test_lift(self, samples, verified, name):
        """The construction verifies the base, and the pullback lemma proves
        the result, which is never verified."""
        record = parse(serialize(samples[name])).payload
        assert verified == [record.base]


GOLDEN = Path(__file__).resolve().parent / "data" / "counterexample_n2.json"
WALKED = [
    "golden-n2",
    "spectrum",
    "tiling",
    "non-tiling-divisibility",
    "non-tiling-exhausted",
    "non-tiling-rooted",
    "composition-tiling",
    "composition-spectrum",
    "lift-spectrum",
    "lift-tiling",
    "independence-chain",
    "counterexample",
]
NON_CANONICAL = {
    "leading-zero": lambda s: "-0" + s[1:] if s.startswith("-") else "0" + s,
    "plus-sign": lambda s: "+" + s,
    "json-number": int,
}
_DELETE = object()


def _nodes(node, path=()):
    """Every (path, value) of a decoded JSON document, parents first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _cases(doc, probe):
    """(path, new value) for each edit one probe makes to a document."""
    for path, value in _nodes(doc):
        if probe == "extra-key" and isinstance(value, dict):
            yield path + ("unexpected",), "0"
        elif probe == "missing-key" and isinstance(value, dict):
            for key in value:
                yield path + (key,), _DELETE
        elif (
            probe in NON_CANONICAL
            and path[:1] == ("payload",)
            and isinstance(value, str)
            and re.fullmatch(r"-?[0-9]+", value)
        ):
            yield path, NON_CANONICAL[probe](value)


def _edit(data, path, new):
    doc = json.loads(data)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if new is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return json.dumps(doc).encode()


class TestShapeWalk:
    """Every object of every envelope rejects an unknown key and each missing
    key, and every integer leaf rejects non-canonical forms, all as
    MalformedCertificate."""

    @pytest.mark.parametrize("probe", ["extra-key", "missing-key", *NON_CANONICAL])
    @pytest.mark.parametrize("name", WALKED)
    def test_shape_errors_are_malformed(self, samples, name, probe):
        data = GOLDEN.read_bytes() if name == "golden-n2" else serialize(samples[name])
        cases = list(_cases(json.loads(data), probe))
        assert cases
        accepted = []
        for path, new in cases:
            try:
                parse(_edit(data, path, new))
            except MalformedCertificate:
                continue
            except CertificateError as exc:
                accepted.append((path, repr(exc)))
            else:
                accepted.append((path, "parsed"))
        assert accepted == []

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 1.0, True, None, ["1"]])
    @pytest.mark.parametrize(
        "path",
        [
            ("payload", "base_spectrum", "set", "points", 0, 0),
            ("payload", "base_spectrum", "spectrum", "numerators", "entries", 0),
            ("payload", "rank"),
            ("payload", "composed_spectrum", "set", "points", 95, 3),
            ("payload", "obstructions", "base_size"),
        ],
    )
    def test_non_string_integers_are_malformed(self, path, value):
        # JSON reads Infinity and NaN as floats, which int() cannot take.
        with pytest.raises(MalformedCertificate):
            parse(_edit(GOLDEN.read_bytes(), path, value))


class TestRecomputationBoundedByTheClaim:
    """A chain or lift envelope is recomputed over at most the group order
    its own result claims; the cells each guard check admits are recorded."""

    @pytest.fixture
    def admitted(self, monkeypatch):
        calls = []
        check_guard = guard.check_guard

        def recording(cells, limit=None):
            try:
                check_guard(cells, limit)
            except guard.GuardExceeded:
                calls.append((cells, False))
                raise
            calls.append((cells, True))

        monkeypatch.setattr(guard, "check_guard", recording)
        return calls

    def test_tampered_chain_rejected_within_its_claimed_order(self, admitted):
        chain = independent_tile(PointSet(2, ((1, 0), (0, 1))))
        assert len(chain.final.set) * len(chain.final.complement) == 4
        doc = json.loads(serialize(envelope("independence-chain", chain)))
        # det 1000, so an honest chain for this set would be over Z_2000^2:
        # 4,000,000 cells.
        doc["payload"]["set"]["points"] = [["1", "0"], ["0", "1000"]]
        with pytest.raises(InvariantViolation):
            parse(json.dumps(doc))
        assert max(cells for cells, ok in admitted if ok) <= 4
        assert max(cells for cells, _ in admitted) <= 4

    def test_tampered_lift_rejected_within_its_claimed_order(self, admitted):
        transform = IntMatrix.from_rows([[1, 0]])
        wide_base = TilingCertificate(
            GroupSpec(50, 1), line_set(0, 1), line_set(*range(0, 50, 2))
        )
        claimed = TilingCertificate(
            GroupSpec(2, 2), PointSet(2, ((0, 0), (1, 0))), PointSet(2, ((0, 0), (0, 1)))
        )
        record = LiftRecord("tiling", transform, wide_base, claimed)
        with pytest.raises(InvariantViolation):
            parse(serialize(envelope("lift", record)))
        assert max((cells for cells, _ in admitted), default=0) <= 4

    def test_honest_chain_over_the_configured_guard_is_refused(self, monkeypatch, samples):
        data = serialize(samples["independence-chain"])
        monkeypatch.setenv("SPECTRATILE_GUARD", "3")
        with pytest.raises(guard.GuardExceeded):
            parse(data)
        monkeypatch.setenv("SPECTRATILE_GUARD", "4")
        assert parse(data) == samples["independence-chain"]


def _refused_quickly(data):
    start = time.perf_counter()
    with pytest.raises(InvariantViolation):
        parse(data)
    assert time.perf_counter() - start < 1.0


class TestDerivedCertificatesPinnedFirst:
    """A composition's or lift's result is checked against the group and set
    size its construction produces before the construction runs, so a
    tampered result costs no more than the envelope lists, and the configured
    guard is applied by the construction itself."""

    def test_tiling_composition_of_large_groups(self):
        # About 16 KB; composing would build the 1,000,000 cells of Z_1000000.
        big = TilingCertificate(GroupSpec(1000, 1), line_set(0), line_set(*range(1000)))
        small = decide_m_tile(line_set(0, 1), GroupSpec(4, 1))
        record = CompositionRecord("tiling", big, big, small)
        _refused_quickly(serialize(envelope("composition", record)))

    def test_spectrum_composition_of_large_sets(self):
        # About 1.6 KB; composing would verify a 1600-point spectrum.
        cube = cube_spectrum(40, 1)
        small = find_spectrum(line_set(0, 1), 2)
        record = CompositionRecord("spectrum", cube, cube, small)
        _refused_quickly(serialize(envelope("composition", record)))

    def test_lift_over_another_modulus_refused_before_any_guard_check(self, monkeypatch):
        calls = []
        check_guard = guard.check_guard

        def recording(*args):
            calls.append(args)
            check_guard(*args)

        monkeypatch.setattr(guard, "check_guard", recording)
        base = TilingCertificate(GroupSpec(4, 1), line_set(0, 1), line_set(0, 2))
        claimed = TilingCertificate(
            GroupSpec(2, 2), PointSet(2, ((0, 0), (1, 0))), PointSet(2, ((0, 0), (0, 1)))
        )
        record = LiftRecord("tiling", IntMatrix.from_rows([[1, 0]]), base, claimed)
        with pytest.raises(InvariantViolation, match="lift modulus mismatch"):
            parse(serialize(envelope("lift", record)))
        assert calls == []

    @pytest.mark.parametrize("name, cells", [("lift-tiling", 4), ("composition-tiling", 16)])
    def test_honest_result_over_the_configured_guard_is_refused(
        self, monkeypatch, samples, name, cells
    ):
        data = serialize(samples[name])
        monkeypatch.setenv("SPECTRATILE_GUARD", str(cells - 1))
        with pytest.raises(guard.GuardExceeded):
            parse(data)
        monkeypatch.setenv("SPECTRATILE_GUARD", str(cells))
        assert parse(data) == samples[name]


CHAIN_GOLDEN = GOLDEN.parent / "independence_chain.json"
CHAIN_SET = PointSet(3, ((2, 0, 1), (0, 3, 0)))


class TestChainPremises:
    """An independence chain stores the premises of the pullback lemma, and
    parse checks them without recomputing either lift."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("selected_rows",), ["1", "0"]),
            (("selected_rows",), ["0", "3"]),
            (("determinant",), "-6"),
            (("modulus",), "24"),
            (("row_transform", "entries", 1), "1"),
            (("row_transform", "entries", 1), "4"),  # not injective
            (("one_dimensional", "set", "points", 1, 0), "7"),
            (("one_dimensional", "complement", "points", 0, 0), "7"),
            (("set", "points", 0, 1), "1"),
            # A true tiling of Z_24 by the same progression, not of Z_M.
            (
                ("one_dimensional",),
                certio._TILING.encode(
                    TilingCertificate(
                        GroupSpec(24, 1), line_set(0, 6), line_set(*range(6), *range(12, 18))
                    )
                ),
            ),
        ],
    )
    def test_each_stored_field_is_checked(self, path, value):
        data = CHAIN_GOLDEN.read_bytes()
        parse(data)
        with pytest.raises(InvariantViolation):
            parse(_edit(data, ("payload",) + path, value))

    def test_an_unselected_coordinate_is_free(self):
        # phi reads only the selected rows, so the premises still hold and
        # the chain's set still tiles.
        data = _edit(CHAIN_GOLDEN.read_bytes(), ("payload", "set", "points", 0, 2), "5")
        chain = parse(data).payload
        assert chain.set.points[0] == (2, 0, 5)
        assert tiling.verify_tiling(chain.final)

    def test_old_shape_is_malformed(self):
        chain = independent_tile(CHAIN_SET)
        doc = json.loads(serialize(envelope("independence-chain", chain)))
        projected, final = two_stage_lift(chain)
        del doc["payload"]["set"]
        doc["payload"]["projected"] = certio._TILING.encode(projected)
        doc["payload"]["final"] = certio._TILING.encode(final)
        with pytest.raises(MalformedCertificate):
            parse(json.dumps(doc))

    def test_on_demand_tilings_match_the_public_lift(self):
        # The tier-1 draw rule: d in {2, 3}, k <= d, coordinates in [-3, 3],
        # guard 200,000; dependent and oversized draws are skipped.
        rng = random.Random(69)
        checked = 0
        while checked < 30:
            d = rng.choice([2, 3])
            k = rng.randint(1, min(d, 3))
            points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
            if len(set(points)) != k:
                continue
            try:
                chain = independent_tile(PointSet(d, tuple(points)), guard=200_000)
            except ValueError:  # a dependent draw, or GuardExceeded
                continue
            _, lifted = two_stage_lift(chain)
            assert chain.final == lifted
            assert parse(serialize(envelope("independence-chain", chain))).payload == chain
            checked += 1

    def test_no_lift_is_built_to_certify_or_parse(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lift_tile called")

        monkeypatch.setattr(tiling, "lift_tile", refuse)
        chain = independent_tile(CHAIN_SET)
        data = serialize(envelope("independence-chain", chain))
        assert parse(data).payload == chain
        with pytest.raises(AssertionError):
            chain.final

    def test_golden_chain(self):
        data = CHAIN_GOLDEN.read_bytes()
        env = parse(data)
        assert trust_marker(env) == "verified"
        assert serialize(env) == data
        assert env.payload == independent_tile(CHAIN_SET)


class TestDerivedFieldsSettledAsJson:
    """parse compares a derived field's stored JSON with the canonical
    encoding of its derivation and keeps the derivation; only a stored
    field that differs is decoded, and checked as before."""

    def test_the_composed_set_is_built_once(self, monkeypatch):
        # One product build, whose value the payload keeps: the stored
        # composed spectrum is never decoded.
        built = []
        product = spectral._product

        def counting(*parts):
            built.append(product(*parts))
            return built[-1]

        monkeypatch.setattr(spectral, "_product", counting)
        env = parse(GOLDEN.read_bytes())
        assert len(env.payload.composed_spectrum.set) == 96
        assert len(built) == 1 and built[0] is env.payload.composed_spectrum

    def test_the_golden_chain_runs_no_coverage_check(self, monkeypatch):
        def refuse(cert):
            raise AssertionError("tiling._coverage called")

        monkeypatch.setattr(tiling, "_coverage", refuse)
        assert parse(CHAIN_GOLDEN.read_bytes()).payload == independent_tile(CHAIN_SET)

    def test_a_valid_non_canonical_complement_is_verified(self, monkeypatch):
        # {0, 6} + {0, 7, 2, 9, 4, 11} is Z_12 too, but not [0, |det|).
        complement = [[str(c)] for c in (0, 7, 2, 9, 4, 11)]
        path = ("payload", "one_dimensional", "complement", "points")
        data = _edit(CHAIN_GOLDEN.read_bytes(), path, complement)
        covered = []
        coverage = tiling._coverage

        def recording(cert):
            covered.append(cert)
            return coverage(cert)

        monkeypatch.setattr(tiling, "_coverage", recording)
        chain = parse(data).payload
        assert chain.one_dimensional.complement.points == ((0,), (7,), (2,), (9,), (4,), (11,))
        assert covered == [chain.one_dimensional]
        assert parse(serialize(envelope("independence-chain", chain))).payload == chain

    @pytest.mark.parametrize(
        "golden, path, value, message",
        [
            (
                GOLDEN,
                ("payload", "composed_spectrum", "set", "points", 5, 1),
                "01",
                "payload.composed_spectrum.set.points[5][1]: "
                "must be a canonical decimal string, got '01'",
            ),
            (
                GOLDEN,
                ("payload", "composed_spectrum", "spectrum", "numerators", "entries", 7),
                "+1",
                "payload.composed_spectrum.spectrum.numerators.entries[7]: "
                "must be a canonical decimal string, got '+1'",
            ),
            # == takes 0 for false: the report's booleans are compared by type too.
            (
                GOLDEN,
                ("payload", "obstructions", "size_divides"),
                0,
                "payload.obstructions.size_divides: must be a boolean",
            ),
            (
                CHAIN_GOLDEN,
                ("payload", "one_dimensional", "set", "points", 1, 0),
                "06",
                "payload.one_dimensional.set.points[1][0]: "
                "must be a canonical decimal string, got '06'",
            ),
        ],
    )
    def test_a_malformed_derived_field_is_located(self, golden, path, value, message):
        with pytest.raises(MalformedCertificate) as info:
            parse(_edit(golden.read_bytes(), path, value))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name, path, value",
        [
            ("lift-spectrum", ("result", "spectrum", "numerators", "entries", 2), "0"),
            ("lift-tiling", ("result", "complement", "points", 0), ["0", "3"]),
        ],
    )
    def test_a_one_entry_change_in_a_lift_result_is_refused(self, samples, name, path, value):
        data = serialize(samples[name])
        with pytest.raises(InvariantViolation, match="^lift result does not recompute$"):
            parse(_edit(data, ("payload",) + path, value))

    def test_a_tampered_premise_is_reported_before_a_malformed_derived_field(self):
        data = _edit(
            GOLDEN.read_bytes(), ("payload", "composed_spectrum", "set", "points", 5, 1), "01"
        )
        data = _edit(data, ("payload", "phase_exponents", "numerators", "entries", 0), "1")
        with pytest.raises(InvariantViolation, match="^phase exponent matrix is not log-Hadamard$"):
            parse(data)

    def test_a_construction_beyond_the_guard_is_refused_before_its_result_is_read(
        self, monkeypatch, samples
    ):
        path = ("payload", "result", "set", "points", 0, 0)
        data = _edit(serialize(samples["composition-tiling"]), path, "00")
        monkeypatch.setenv("SPECTRATILE_GUARD", "15")
        with pytest.raises(guard.GuardExceeded):
            parse(data)
        monkeypatch.setenv("SPECTRATILE_GUARD", "16")
        with pytest.raises(MalformedCertificate, match=r"^payload\.result\.set\.points\[0\]\[0\]"):
            parse(data)


class TestParseFreesItsInput:
    def test_json_tree_is_released_before_reverification(self, monkeypatch, samples):
        class Tree(dict):
            pass

        trees = []
        loads = certio.json.loads

        def tracked_loads(text):
            tree = Tree(loads(text))
            trees.append(weakref.ref(tree))
            return tree

        alive_at_verify = []
        verify = certio.verify_envelope

        def checking_verify(env):
            alive_at_verify.append(trees[-1]() is not None)
            verify(env)

        monkeypatch.setattr(certio.json, "loads", tracked_loads)
        monkeypatch.setattr(certio, "verify_envelope", checking_verify)
        assert parse(serialize(samples["independence-chain"])) == samples["independence-chain"]
        assert alive_at_verify == [False]


MUTANT_VALUES = ["100000000000000000000", "1000000", "-7", "0"]


def _integer_leaves(node, path=()):
    """The paths of the payload's integer leaves, probed at the ends of long lists.

    Every item of a list of at most 8 is a leaf's ancestor; of a longer list
    only the first and the last are, since its items share one codec and one
    check.  Every record field is walked.
    """
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _integer_leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            if len(node) <= 8 or i in (0, len(node) - 1):
                yield from _integer_leaves(child, path + (i,))
    elif isinstance(node, str) and re.fullmatch(r"-?[0-9]+", node) and path[:1] == ("payload",):
        yield path


class TestIntegerFieldMutants:
    """Each integer field of every envelope, set to a huge, a large, a
    negative or a zero value, either parses or is refused with
    CertificateError or GuardExceeded, within a wall-clock budget."""

    def test_large_prime_modulus_refused_quickly(self):
        """A prime modulus of 17 digits is decided without trial division,
        so the checker reaches its comparison with the phase denominator."""
        data = _edit(
            GOLDEN.read_bytes(),
            ("payload", "published_factorization", "modulus"),
            "10000000000000061",
        )
        start = time.perf_counter()
        with pytest.raises(InvariantViolation, match="published factorization modulus mismatch"):
            parse(data)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("name", [*WALKED, "golden-chain"])
    def test_each_mutant_parses_or_is_refused(self, samples, name):
        if name == "golden-n2":
            data = GOLDEN.read_bytes()
        elif name == "golden-chain":
            data = CHAIN_GOLDEN.read_bytes()
        else:
            data = serialize(samples[name])
        paths = list(_integer_leaves(json.loads(data)))
        assert paths
        escapes = []
        for path in paths:
            for value in MUTANT_VALUES:
                start = time.perf_counter()
                try:
                    parse(_edit(data, path, value))
                except (CertificateError, guard.GuardExceeded):
                    pass
                except Exception as exc:
                    escapes.append((path, value, repr(exc)))
                elapsed = time.perf_counter() - start
                if elapsed > 1.0:
                    escapes.append((path, value, f"took {elapsed:.2f} s"))
        assert escapes == []
