import itertools
import time

import pytest

from spectratile import certio, spectral, tiling
from spectratile import guard as guard_module
from spectratile.cli import main
from spectratile.guard import (
    GuardExceeded,
    check_guard,
    check_power_guard,
    power_in_reach,
    resolve_guard,
)
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    GroupSpec,
    PointSet,
    cube_spectrum,
    find_spectrum,
    format_point_set,
    fourier_zero_set,
)
from spectratile.tiling import (
    IndependenceChain,
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    independent_tile,
    lift_tile,
)

# 10**5000 has 5001 digits, past the 4300 digits str() converts.
HUGE = 5000


def two_points(d):
    return PointSet(d, ((0,) * d, (1,) + (0,) * (d - 1)))


class TestPowerInReach:
    def test_out_of_reach_means_larger(self):
        for m, d in itertools.product(range(1, 40), range(1, 7)):
            power = m**d
            for n in (0, 1, power // 2, power - 1, power, power + 1, 2 * power):
                if not power_in_reach(m, d, n):
                    assert power > n
                assert GroupSpec(m, d).has_order(n) == (power == n)

    def test_huge_order_is_never_computed(self, monkeypatch):
        def refuse(group):
            raise AssertionError("computed the order of a huge group")

        monkeypatch.setattr(GroupSpec, "order", refuse)
        group = GroupSpec(10**4000, 2000)
        assert not group.has_order(3)
        with pytest.raises(GuardExceeded, match=r"at least 2\*\*"):
            check_power_guard(group.modulus, group.dimension)


class TestSmallCountsNamedExactly:
    """A power of at most 1,024 bits is cheap to compute, so a refusal names
    it even when bit lengths alone would show that it exceeds the guard."""

    def test_check_power_guard(self):
        message = r"^enumeration of 81 cells exceeds the guard of 10$"
        with pytest.raises(GuardExceeded, match=message):
            check_power_guard(3, 4, 10)

    def test_verify_counterexample(self, capsys):
        assert main(["verify-counterexample", "-n", "2", "--guard", "10"]) == 2
        assert "error: enumeration of 81 cells exceeds the guard of 10\n" in capsys.readouterr().err


class TestHugeCountsRefusedAsGuardExceeded:
    """A refusal names a count too large for str() without converting it."""

    def test_decide_m_tile(self):
        with pytest.raises(GuardExceeded, match="exceeds the guard"):
            decide_m_tile(two_points(HUGE), GroupSpec(10, HUGE))

    def test_find_spectrum(self):
        with pytest.raises(GuardExceeded, match="exceeds the guard"):
            find_spectrum(two_points(HUGE), 10)

    def test_cube_spectrum(self):
        with pytest.raises(GuardExceeded, match="exceeds the guard"):
            cube_spectrum(10, HUGE)

    def test_tile_decide_reports_the_guard(self, tmp_path, capsys):
        set_file = tmp_path / "set.txt"
        set_file.write_text(format_point_set(two_points(HUGE)))
        assert main(["tile", "decide", "--set", str(set_file), "-m", "10"]) == 2
        assert "exceeds the guard of 10000000" in capsys.readouterr().err

    def test_chain_envelope_over_the_guard(self):
        # M = 2 and d = 15,000: 2**15000 has 4516 digits.
        d = 15_000
        chain = IndependenceChain(
            set=PointSet(d, ((2,) + (0,) * (d - 1),)),
            selected_rows=(0,),
            determinant=2,
            modulus=2,
            row_transform=IntMatrix(1, 1, (0,)),
            one_dimensional=TilingCertificate(
                GroupSpec(2, 1), PointSet(1, ((0,),)), PointSet(1, ((0,), (1,)))
            ),
        )
        envelope = certio.CertificateEnvelope(
            certio.SCHEMA_VERSION,
            "independence-chain",
            chain,
            (certio.ProvenanceEntry("test", ()),),
        )
        with pytest.raises(GuardExceeded):
            certio.parse(certio.serialize(envelope))


class TestIndependentTileGuard:
    """M = k * |det| comes from the coordinates, so M**d is refused by bit
    length before it is computed: at M = 10**3000 and d = 3000 computing it
    took 9.5 s."""

    D = 3000
    POINT = PointSet(D, ((10**3000,) + (0,) * (D - 1),))

    def test_refused_before_the_power(self):
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match=r"at least 2\*\*"):
            independent_tile(self.POINT)
        assert time.perf_counter() - start < 0.5

    def test_cli_exit_two(self, tmp_path, capsys):
        set_file = tmp_path / "set.txt"
        set_file.write_text(format_point_set(self.POINT))
        start = time.perf_counter()
        assert main(["tile", "independent", "--set", str(set_file)]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err.startswith("error:")


def _site_calls():
    """Each guarded site called with an order far over its guard, by name.

    At Z_(10**3000)^3000, computing the order alone takes about 10 s; a
    composition's order is bounded by the sizes of its parts, so it is
    refused by a guard of 15 instead.
    """
    d = 3000
    huge = 10**3000
    origin = PointSet(d, ((0,) * d,))
    z2 = TilingCertificate(GroupSpec(2, 1), PointSet(1, ((0,),)), PointSet(1, ((0,), (1,))))
    z4 = decide_m_tile(PointSet(1, ((0,), (1,))), GroupSpec(4, 1))
    return {
        "zero-set": lambda: fourier_zero_set(origin, huge),
        "find-spectrum-one-point": lambda: find_spectrum(origin, huge),
        "cube-spectrum": lambda: cube_spectrum(huge, d),
        "decide-m-tile": lambda: decide_m_tile(origin, GroupSpec(huge, d)),
        "compose-tile": lambda: compose_tile(z4, z4),
        "lift-tile": lambda: lift_tile(origin, IntMatrix(1, d, (0,) * d), z2, guard=10),
    }


class TestGuardBeforeTheOrder:
    """Every site that walks or builds a group checks the guard by bit length
    first, so a refused order is never computed."""

    @pytest.mark.parametrize("site", list(_site_calls()))
    def test_refused_without_the_order(self, monkeypatch, site):
        call = _site_calls()[site]  # the inputs are built with the real order()

        def refuse(group):
            raise AssertionError(f"computed the order of Z_m^{group.dimension}")

        monkeypatch.setattr(GroupSpec, "order", refuse)
        monkeypatch.setenv("SPECTRATILE_GUARD", "15")
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            call()
        assert time.perf_counter() - start < 0.5


class TestGuardValues:
    """SPECTRATILE_GUARD is read by the rule of --guard and the matrix files,
    -?[0-9]+ in ASCII digits, and an explicit guard must be an integer."""

    @pytest.mark.parametrize("value", ["1_0", " 12 ", "+20", "١٠", "1e3", ""])
    def test_variable_refused_like_the_option(self, monkeypatch, value):
        monkeypatch.setenv("SPECTRATILE_GUARD", value)
        with pytest.raises(ValueError, match="SPECTRATILE_GUARD must be a decimal integer"):
            resolve_guard()

    def test_cli_refuses_what_the_option_refuses(self, tmp_path, monkeypatch, capsys):
        set_file = tmp_path / "set.txt"
        set_file.write_text(format_point_set(two_points(1)))
        argv = ["tile", "decide", "--set", str(set_file), "-m", "4"]
        monkeypatch.setenv("SPECTRATILE_GUARD", "1_0")
        assert main(argv) == 2
        assert "SPECTRATILE_GUARD must be a decimal integer, got '1_0'" in capsys.readouterr().err
        monkeypatch.delenv("SPECTRATILE_GUARD")
        with pytest.raises(SystemExit):
            main(argv + ["--guard", "1_0"])

    @pytest.mark.parametrize("guard", [2.5, 100.0, "100"])
    def test_explicit_guard_must_be_an_integer(self, guard):
        with pytest.raises(TypeError):
            resolve_guard(guard)
        with pytest.raises(TypeError):
            decide_m_tile(two_points(2), GroupSpec(4, 2), guard)

    def test_explicit_guard_taken_by_index(self):
        class Cells:
            def __index__(self):
                return 81

        assert resolve_guard(Cells()) == 81
        assert decide_m_tile(two_points(4), GroupSpec(3, 4), Cells()).reason.set_size == 2


def _public_calls():
    """One public call per kind of guard site, each admitted by the guard."""
    square = PointSet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    return {
        "check_guard": lambda: check_guard(81),
        "check_power_guard": lambda: check_power_guard(3, 4),
        # 2**2000 has more than _EXACT_BITS bits, and this guard admits it.
        "check_power_guard-past-exact-bits": lambda: check_power_guard(2, 2000, 10**700),
        "find_spectrum": lambda: find_spectrum(square, 4),
        "find_spectrum-one-point": lambda: find_spectrum(PointSet(2, ((1, 2),)), 4),
        "fourier_zero_set": lambda: fourier_zero_set(square, 4),
        "decide_m_tile": lambda: decide_m_tile(square, GroupSpec(4, 2)),
        "independent_tile": lambda: independent_tile(PointSet(2, ((1, 0), (0, 2)))),
    }


class TestOneResolutionPerCall:
    """Each public call resolves the guard once, however many of its sites
    check it, and a refusal names the same counts as before."""

    @pytest.mark.parametrize("name", list(_public_calls()))
    def test_resolved_once(self, monkeypatch, name):
        resolved = []

        def counting(guard=None):
            resolved.append(guard)
            return resolve_guard(guard)

        for module in (guard_module, spectral, tiling):
            monkeypatch.setattr(module, "resolve_guard", counting)
        _public_calls()[name]()
        assert len(resolved) == 1

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: check_power_guard(3, 4, 80), "enumeration of 81 cells exceeds the guard of 80"),
            (
                lambda: check_power_guard(3, 1000, 80),
                "enumeration of at least 2**1000 cells exceeds the guard of 80",
            ),
            (
                lambda: find_spectrum(PointSet(2, ((0, 0), (1, 0))), 9, 80),
                "enumeration of 81 cells exceeds the guard of 80",
            ),
            (
                lambda: decide_m_tile(PointSet(2, ((0, 0), (1, 0), (2, 0))), GroupSpec(9, 2), 242),
                "enumeration of 243 cells exceeds the guard of 242",
            ),
        ],
    )
    def test_refusals_name_the_same_counts(self, call, message):
        with pytest.raises(GuardExceeded) as info:
            call()
        assert str(info.value) == message
