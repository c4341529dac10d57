"""Inputs are exact integers or they are refused: the constructors coerce with
operator.index, so a float, str or Fraction raises TypeError instead of being
truncated; and JSON nested past the recursion limit is a malformed
certificate, not a crash."""

from dataclasses import replace
from fractions import Fraction

import pytest

from spectratile import certio
from spectratile.cli import main
from spectratile.modlinalg import IntMatrix, RankFactorization
from spectratile.spectral import GroupSpec, PhaseMatrix, PointSet
from spectratile.tiling import (
    DivisibilityObstruction,
    DuplicateResidues,
    ExhaustedSearch,
    independent_tile,
)

# With 1.6, the point set {0, 1.6} once became {0, 1}, which the rows (0),
# (1) over 2 accept; GroupSpec(3.5, 2) once had the float order 12.25;
# ExhaustedSearch(3.5) once serialized as "nodes":"3"; and
# DivisibilityObstruction(2.0, 3.0) once made NonTilingCertificate raise
# AttributeError.
REJECTED = [1.6, 3.5, 2.0, "2", Fraction(2, 1)]
ONE = IntMatrix(1, 1, (1,))


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

    def test_search_nodes(self, value):
        with pytest.raises(TypeError):
            ExhaustedSearch(value)

    def test_divisibility_sizes(self, value):
        with pytest.raises(TypeError):
            DivisibilityObstruction(value, 3)
        with pytest.raises(TypeError):
            DivisibilityObstruction(2, value)

    def test_duplicate_residues(self, value):
        with pytest.raises(TypeError):
            DuplicateResidues((value,), (7,))
        with pytest.raises(TypeError):
            DuplicateResidues((7,), (value,))

    def test_rank_factorization(self, value):
        with pytest.raises(TypeError):
            RankFactorization(value, ONE, ONE, 1)
        with pytest.raises(TypeError):
            RankFactorization(3, ONE, ONE, value)

    def test_chain_fields(self, value):
        chain = independent_tile(PointSet(2, ((1, 0), (0, 1))))
        for field in ("determinant", "modulus"):
            with pytest.raises(TypeError):
                replace(chain, **{field: value})
        with pytest.raises(TypeError):
            replace(chain, selected_rows=(0, value))


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
    nodes = ExhaustedSearch(Small(3)).nodes
    obstruction = DivisibilityObstruction(Small(2), Small(3))
    duplicate = DuplicateResidues((True,), [Small(3)])
    factorization = RankFactorization(Small(3), ONE, ONE, True)
    chain = replace(
        independent_tile(PointSet(2, ((1, 0), (0, 1)))),
        selected_rows=[False, True],
        determinant=Small(1),
        modulus=Small(2),
    )
    values = (
        nodes,
        obstruction.set_size,
        obstruction.group_order,
        *duplicate.first,
        *duplicate.second,
        factorization.modulus,
        factorization.rank,
        *chain.selected_rows,
        chain.determinant,
        chain.modulus,
    )
    assert values == (3, 2, 3, 1, 3, 3, 1, 0, 1, 1, 2)
    assert {type(v) for v in values} == {int}


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
