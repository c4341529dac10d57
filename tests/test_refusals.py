"""Refusals of bad input from outside, one test each.

Every refusal here is reached from a file or a command line: an envelope
that parse refuses with the error class and located message it names, or a
command that exits 2 with an error on stderr.
"""

import json

import pytest

from spectratile import certio
from spectratile.certio import InvariantViolation, MalformedCertificate, parse, serialize
from spectratile.cli import main
from spectratile.counterexample import run_counterexample
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    GroupSpec,
    PointSet,
    cube_spectrum,
    find_spectrum,
    format_point_set,
    lift_spectrum,
)
from spectratile.tiling import decide_m_tile

PROV = (certio.ProvenanceEntry("test", ("inline",)),)


def line_set(*values):
    return PointSet(1, tuple((v,) for v in values))


def document(kind, payload):
    """An envelope's decoded JSON, ready to tamper with."""
    env = certio.CertificateEnvelope(certio.SCHEMA_VERSION, kind, payload, PROV)
    return json.loads(serialize(env))


def refused(doc, error, message):
    with pytest.raises(error) as info:
        parse(json.dumps(doc))
    assert str(info.value) == message


@pytest.fixture(scope="module")
def tiling_doc():
    return document("tiling", decide_m_tile(line_set(0, 1), GroupSpec(4, 1)))


@pytest.fixture(scope="module")
def duplicate_doc():
    verdict = decide_m_tile(line_set(0, 1, 6), GroupSpec(6, 1))
    return document("non-tiling", verdict)


class TestEnvelopeRefusals:
    def test_group_not_an_object(self, tiling_doc):
        doc = json.loads(json.dumps(tiling_doc))
        doc["payload"]["group"] = []
        refused(doc, MalformedCertificate, "payload.group: must be an object")

    def test_reason_not_an_object(self, duplicate_doc):
        doc = json.loads(json.dumps(duplicate_doc))
        doc["payload"]["reason"] = 5
        refused(doc, MalformedCertificate, "payload.reason: must be an object")

    def test_boolean_field_given_as_string(self):
        doc = json.loads(serialize(run_counterexample(1).envelope))
        doc["payload"]["obstructions"]["size_divides"] = "yes"
        refused(doc, MalformedCertificate, "payload.obstructions.size_divides: must be a boolean")

    def test_empty_provenance_operation(self, tiling_doc):
        doc = json.loads(json.dumps(tiling_doc))
        doc["provenance"][0]["operation"] = ""
        refused(doc, InvariantViolation, "provenance[0]: provenance operation must be nonempty")

    def test_complement_of_another_dimension(self, tiling_doc):
        doc = json.loads(json.dumps(tiling_doc))
        doc["payload"]["complement"] = {"dimension": "2", "points": [["0", "0"], ["2", "0"]]}
        refused(doc, InvariantViolation, "payload: complement dimension does not match the group")

    def test_duplicate_residues_points_equal(self, duplicate_doc):
        doc = json.loads(json.dumps(duplicate_doc))
        reason = doc["payload"]["reason"]
        assert reason == {"kind": "duplicate-residues", "first": ["0"], "second": ["6"]}
        doc["payload"]["reason"]["second"] = ["0"]
        refused(doc, InvariantViolation, "payload.reason: colliding points must be distinct")

    def test_duplicate_residues_point_outside_the_set(self, duplicate_doc):
        doc = json.loads(json.dumps(duplicate_doc))
        doc["payload"]["reason"]["second"] = ["12"]
        refused(doc, InvariantViolation, "payload: colliding points must belong to the set")

    def test_spectrum_width_not_the_dimension(self):
        doc = document("spectrum", find_spectrum(line_set(0, 1), 2))
        numerators = doc["payload"]["spectrum"]["numerators"]
        assert numerators == {"rows": "2", "cols": "1", "entries": ["0", "1"]}
        doc["payload"]["spectrum"]["numerators"] = {
            "rows": "2", "cols": "2", "entries": ["0", "0", "1", "0"]
        }
        refused(doc, InvariantViolation, "payload: spectrum row width must equal the dimension")

    def test_spectrum_lift_through_a_transform_of_the_wrong_width(self):
        base = cube_spectrum(2, 1)
        transform = IntMatrix.from_rows([[1, 0]])
        points = PointSet(2, ((0, 0), (1, 1)))
        record = certio.LiftRecord(
            "spectrum", transform, base, lift_spectrum(points, transform, base)
        )
        doc = document("lift", record)
        doc["payload"]["transform"] = {"rows": "1", "cols": "3", "entries": ["1", "0", "0"]}
        refused(doc, InvariantViolation, "transform width must equal the set dimension")


@pytest.fixture
def write(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def usage_error(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestCommandRefusals:
    """Each bad input exits 2 and names its fault on stderr."""

    def test_matrix_with_no_rows(self, write, capsys):
        matrix = write("empty.txt", "0 3\n")
        usage_error(capsys, ["matrix", "rank", "--matrix", matrix, "-p", "3"],
                    "matrix needs at least one row")

    def test_denominator_line_with_two_values(self, write, capsys):
        points = write("pair.txt", format_point_set(PointSet(2, ((0, 0), (1, 0)))))
        spectrum = write("spectrum.txt", "2 2\n0 0\n1 0\ndenominator 3 4\n")
        usage_error(capsys, ["spectrum", "check", "--set", points, "--spectrum", spectrum],
                    "denominator line must be 'denominator m'")

    def test_hadamard_denominator_zero(self, write, capsys):
        matrix = write("h.txt", "2 2\n0 0\n0 1\n")
        usage_error(capsys, ["matrix", "hadamard", "--matrix", matrix, "-m", "0"],
                    "denominator must be positive, got 0")

    def test_compose_a_non_tiling_envelope(self, tmp_path, write, capsys):
        points = write("set.txt", format_point_set(line_set(0, 1, 3)))
        refusal = str(tmp_path / "refusal.json")
        assert main(["tile", "decide", "--set", points, "-m", "6", "--json", refusal]) == 1
        capsys.readouterr()
        usage_error(capsys, ["tile", "compose", refusal, refusal],
                    f"{refusal}: expected a tiling certificate, got kind 'non-tiling'")

    @pytest.mark.parametrize(
        "transform, message",
        [
            ("1 3\n1 0 0\n", "transform width must equal the set dimension"),
            ("2 2\n1 0\n0 1\n", "transform height must equal the base group dimension"),
        ],
        ids=["width", "height"],
    )
    def test_lift_through_a_transform_of_the_wrong_shape(
        self, tmp_path, write, capsys, transform, message
    ):
        step = write("step.txt", format_point_set(line_set(0, 1)))
        base = str(tmp_path / "step.json")
        assert main(["tile", "decide", "--set", step, "-m", "4", "--json", base]) == 0
        capsys.readouterr()
        points = write("pair.txt", format_point_set(PointSet(2, ((0, 0), (1, 0)))))
        matrix = write("phi.txt", transform)
        usage_error(capsys, ["tile", "lift", "--set", points, "--matrix", matrix, base], message)

    def test_guard_zero(self, write, capsys):
        points = write("set.txt", format_point_set(line_set(0, 1)))
        usage_error(capsys, ["tile", "decide", "--set", points, "-m", "4", "--guard", "0"],
                    "guard must be positive, got 0")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "SPECTRATILE_GUARD must be a decimal integer, got 'abc'"),
            ("0", "SPECTRATILE_GUARD must be positive, got 0"),
        ],
        ids=["letters", "zero"],
    )
    def test_guard_variable(self, write, capsys, monkeypatch, value, message):
        points = write("set.txt", format_point_set(line_set(0, 1)))
        monkeypatch.setenv("SPECTRATILE_GUARD", value)
        usage_error(capsys, ["tile", "decide", "--set", points, "-m", "4"], message)
