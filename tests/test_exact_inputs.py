"""Inputs are exact integers or they are refused: the constructors coerce with
operator.index, so a float, str or Fraction raises TypeError instead of being
truncated; and JSON nested past the recursion limit is a malformed
certificate, not a crash."""

from fractions import Fraction

import pytest

from spectratile import certio
from spectratile.cli import main
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import GroupSpec, PhaseMatrix, PointSet

# With 1.6, the point set {0, 1.6} once became {0, 1}, which the rows (0),
# (1) over 2 accept; GroupSpec(3.5, 2) once had the float order 12.25.
REJECTED = [1.6, 3.5, 2.0, "2", Fraction(2, 1)]


@pytest.mark.parametrize("value", REJECTED)
class TestNonIntegersRefused:
    def test_point_coordinate(self, value):
        with pytest.raises(TypeError):
            PointSet(1, ((0,), (value,)))

    def test_point_dimension(self, value):
        with pytest.raises(TypeError):
            PointSet(value, ((0, 1),))

    def test_matrix_entry(self, value):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, (value, 1))

    def test_matrix_shape(self, value):
        with pytest.raises(TypeError):
            IntMatrix(value, 1, (0, 1))
        with pytest.raises(TypeError):
            IntMatrix(1, value, (0, 1))

    def test_group_modulus(self, value):
        with pytest.raises(TypeError):
            GroupSpec(value, 2)

    def test_group_dimension(self, value):
        with pytest.raises(TypeError):
            GroupSpec(3, value)

    def test_phase_denominator(self, value):
        with pytest.raises(TypeError):
            PhaseMatrix(IntMatrix(1, 1, (0,)), value)


def test_integer_types_still_convert():
    class Small(int):
        pass

    group = GroupSpec(Small(3), True)
    assert (group.modulus, group.dimension) == (3, 1)
    assert type(group.modulus) is int and type(group.dimension) is int
    points = PointSet(2, [[True, Small(4)]])
    assert points.points == ((1, 4),)
    assert {type(c) for c in points.points[0]} == {int}
    matrix = IntMatrix(Small(1), True, [Small(7)])
    assert (matrix.rows, matrix.cols, matrix.entries) == (1, 1, (7,))
    assert {type(matrix.rows), type(matrix.cols), type(matrix.entries[0])} == {int}
    phase = PhaseMatrix(IntMatrix(1, 1, [False]), Small(5))
    assert phase.denominator == 5 and type(phase.denominator) is int


DEEP = b"[" * 100_000


def test_deep_nesting_is_malformed():
    with pytest.raises(certio.MalformedCertificate, match="not valid JSON"):
        certio.parse(DEEP)
    with pytest.raises(certio.MalformedCertificate, match="not valid JSON"):
        certio.parse('{"a":' * 100_000)


def test_cli_reports_deep_nesting_as_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(DEEP)
    assert main(["tile", "verify", str(path)]) == 2
    assert "error: not valid JSON" in capsys.readouterr().err
