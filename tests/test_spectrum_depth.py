"""Spectrum search deeper than Python's recursion limit."""

import pytest

from spectratile.cli import main
from spectratile.spectral import cube_spectrum, find_spectrum, format_point_set


@pytest.mark.parametrize("n, d", [(10, 3), (32, 2)])
def test_cube_spectrum_found_at_a_thousand_rows(n, d):
    # Z(1_T) of a full cube is every nonzero character, so the search chooses
    # one row per point without backtracking: 1000 and 1024 rows deep.
    cube = cube_spectrum(n, d)
    assert find_spectrum(cube.set, n) == cube


def test_cli_finds_the_spectrum_of_a_1000_point_cube(tmp_path):
    path = tmp_path / "cube.txt"
    path.write_text(format_point_set(cube_spectrum(10, 3).set))
    assert main(["--quiet", "spectrum", "find", "--set", str(path), "-m", "10"]) == 0
