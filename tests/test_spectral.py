import cmath
import itertools

import pytest

from conftest import translated
from cyclotomic_oracle import is_spectral_pair_by_division
from spectratile import certio, spectral
from spectratile.cyclotomic import is_vanishing_sum
from spectratile.counterexample import (
    HADAMARD_EXPONENTS,
    SPECTRUM_ROWS,
    base_point_set,
    base_spectrum_certificate,
)
from spectratile.guard import GuardExceeded
from spectratile.modlinalg import IntMatrix, matmul_mod
from spectratile.spectral import (
    _dense_pays,
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    cube_spectrum,
    find_spectrum,
    format_phase_matrix,
    format_point_set,
    fourier_zero_set,
    is_log_hadamard,
    is_m_spectral,
    lift_spectrum,
    parse_phase_matrix,
    parse_point_set,
    verify_spectrum,
)


def dft_exponents(m: int) -> PhaseMatrix:
    rows = [[(i * j) % m for j in range(m)] for i in range(m)]
    return PhaseMatrix(IntMatrix.from_rows(rows), m)


def line_set(*values: int) -> PointSet:
    return PointSet(1, tuple((v,) for v in values))


def float_is_spectral(point_set: PointSet, rows, m: int) -> bool:
    # Independent oracle: evaluate every pair's exponential sum numerically.
    for a, b in itertools.combinations(rows, 2):
        total = 0j
        for t in point_set.points:
            phase = sum((ac - bc) * tc for ac, bc, tc in zip(a, b, t)) / m
            total += cmath.exp(2j * cmath.pi * phase)
        if abs(total) > 1e-9:
            return False
    return True


class TestTypes:
    def test_group_spec_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(0, 1)
        with pytest.raises(ValueError):
            GroupSpec(2, 0)
        assert GroupSpec(3, 4).order() == 81

    def test_point_set_validation(self):
        with pytest.raises(ValueError):
            PointSet(1, ())
        with pytest.raises(ValueError):
            PointSet(2, ((1,),))
        with pytest.raises(ValueError):
            PointSet(1, ((1,), (1,)))

    def test_point_set_columns_matrix(self):
        ps = PointSet(2, ((1, 2), (3, 4), (5, 6)))
        assert ps.to_columns_matrix().to_rows() == [[1, 3, 5], [2, 4, 6]]

    def test_phase_matrix_requires_reduced_entries(self):
        with pytest.raises(ValueError):
            PhaseMatrix(IntMatrix.from_rows([[3]]), 3)
        reduced = PhaseMatrix.reduce(IntMatrix.from_rows([[-1, 7]]), 3)
        assert reduced.numerators.to_rows() == [[2, 1]]

    def test_certificate_structural_checks(self):
        good = base_spectrum_certificate()
        with pytest.raises(ValueError):
            SpectrumCertificate(GroupSpec(2, 4), good.set, good.spectrum)
        with pytest.raises(ValueError):
            SpectrumCertificate(GroupSpec(3, 1), line_set(0), good.spectrum)


class TestIsLogHadamard:
    def test_fixture_over_three(self):
        assert is_log_hadamard(PhaseMatrix(HADAMARD_EXPONENTS, 3))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_dft_exponents(self, m):
        assert is_log_hadamard(dft_exponents(m))

    def test_identical_rows_rejected(self):
        assert not is_log_hadamard(PhaseMatrix(IntMatrix.zeros(2, 2), 2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_log_hadamard(PhaseMatrix(IntMatrix.zeros(2, 3), 2))

    def test_single_entry_is_hadamard(self):
        assert is_log_hadamard(PhaseMatrix(IntMatrix.zeros(1, 1), 5))

    def test_transpose_symmetry(self, rng):
        accepted = rejected = 0
        cases = [PhaseMatrix(HADAMARD_EXPONENTS, 3)] + [dft_exponents(m) for m in (2, 3, 4)]
        while len(cases) < 120:
            k = rng.randint(1, 4)
            m = rng.randint(1, 6)
            cases.append(
                PhaseMatrix(
                    IntMatrix(k, k, tuple(rng.randrange(m) for _ in range(k * k))), m
                )
            )
        for mat in cases:
            verdict = is_log_hadamard(mat)
            assert is_log_hadamard(mat.transpose()) == verdict
            accepted += verdict
            rejected += not verdict
        assert accepted and rejected  # both outcomes exercised


class TestIsMSpectral:
    def test_fixture_set_is_three_spectral(self):
        assert is_m_spectral(base_point_set(), PhaseMatrix(SPECTRUM_ROWS, 3))

    def test_singleton(self):
        assert is_m_spectral(line_set(0), PhaseMatrix(IntMatrix.zeros(1, 1), 1))

    def test_two_point_half_spectrum(self):
        spectrum = PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 2)
        assert is_m_spectral(line_set(0, 1), spectrum)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_m_spectral(line_set(0, 1), PhaseMatrix(IntMatrix.zeros(1, 1), 2))
        with pytest.raises(ValueError):
            is_m_spectral(
                PointSet(2, ((0, 0), (1, 1))), PhaseMatrix(IntMatrix.zeros(2, 1), 2)
            )


class TestFindSpectrum:
    def test_two_points_mod_two(self):
        cert = find_spectrum(line_set(0, 1), 2)
        assert cert is not None
        assert cert.spectrum.numerators.to_rows() == [[0], [1]]
        assert verify_spectrum(cert)

    def test_two_points_mod_three_has_none(self):
        # Independent derivation: exhaust all 9 ordered pairs numerically.
        for a, b in itertools.product(range(3), repeat=2):
            assert not float_is_spectral(line_set(0, 1), [(a,), (b,)], 3) or a == b
        assert find_spectrum(line_set(0, 1), 3) is None

    def test_fixture_set_mod_three(self):
        cert = find_spectrum(base_point_set(), 3)
        assert cert is not None
        assert verify_spectrum(cert)
        assert cert.spectrum.numerators.row(0) == (0, 0, 0, 0)

    def test_canonical_form(self):
        cert = find_spectrum(line_set(0, 1, 2, 3), 4)
        assert cert is not None
        rows = [cert.spectrum.numerators.row(i) for i in range(4)]
        assert rows[0] == (0,)
        assert rows == sorted(rows)

    def test_singleton_any_modulus(self):
        cert = find_spectrum(line_set(7), 5)
        assert cert is not None
        assert verify_spectrum(cert)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            find_spectrum(PointSet(8, ((0,) * 8,)), 10, guard=10**6)

    def test_matches_brute_force_on_small_lines(self):
        # Oracle equivalence at small scale; the acceptance suite runs it in full.
        for m in (2, 3, 4):
            for k in range(1, 4):
                for subset in itertools.combinations(range(m), k):
                    found = find_spectrum(line_set(*subset), m)
                    brute = any(
                        float_is_spectral(
                            line_set(*subset), [(r,) for r in rows], m
                        )
                        for rows in itertools.combinations(range(m), k)
                    )
                    assert (found is not None) == brute
                    if found is not None:
                        assert verify_spectrum(found)

    def test_one_group_and_one_guard_resolution_per_call(self, monkeypatch):
        built, resolved = [], []
        group_spec, resolve_guard = spectral.GroupSpec, spectral.resolve_guard

        def counting_group(*args):
            built.append(args)
            return group_spec(*args)

        def counting_resolve(guard=None):
            resolved.append(guard)
            return resolve_guard(guard)

        square = PointSet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
        expected = brute_force_spectrum(square, 4)
        monkeypatch.setattr(spectral, "GroupSpec", counting_group)
        monkeypatch.setattr(spectral, "resolve_guard", counting_resolve)
        cert = find_spectrum(square, 4)
        assert built == [(4, 2)]
        assert resolved == [None]
        assert cert.spectrum.numerators.to_rows() == [list(row) for row in expected]


class TestComposeSpectral:
    def test_trivial_group_is_neutral(self):
        trivial = SpectrumCertificate(
            GroupSpec(1, 1),
            line_set(0),
            PhaseMatrix(IntMatrix.zeros(1, 1), 1),
        )
        other = find_spectrum(line_set(0, 1), 2)
        composed = compose_spectral(trivial, other)
        assert composed.set == other.set
        assert composed.spectrum == other.spectrum
        assert composed.group == other.group

    def test_two_by_two_gives_four_point_dft(self):
        half = find_spectrum(line_set(0, 1), 2)
        composed = compose_spectral(half, half)
        assert set(composed.set.points) == {(0,), (1,), (2,), (3,)}
        assert composed.spectrum.denominator == 4
        rows = {composed.spectrum.numerators.row(i) for i in range(4)}
        assert rows == {(0,), (1,), (2,), (3,)}
        assert verify_spectrum(composed)

    def test_fixture_with_cube_is_six_spectral(self):
        composed = compose_spectral(base_spectrum_certificate(), cube_spectrum(2, 4))
        assert len(composed.set) == 96
        assert composed.group == GroupSpec(6, 4)
        assert verify_spectrum(composed)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_spectral(find_spectrum(line_set(0, 1), 2), cube_spectrum(2, 2))

    def test_collision_rejected(self):
        # T = {0, 2} is 2-spectral via {0, 1}/2, but 2 = 0 + 2*1 collides with S = {0, 1}.
        left = SpectrumCertificate(
            GroupSpec(2, 1),
            line_set(0, 2),
            PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 2),
        )
        with pytest.raises(ValueError):
            compose_spectral(left, find_spectrum(line_set(0, 1), 2))

    def test_invalid_input_rejected(self):
        bogus = SpectrumCertificate(
            GroupSpec(3, 1),
            line_set(0, 1),
            PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 3),
        )
        good = find_spectrum(line_set(0, 1), 2)
        with pytest.raises(ValueError):
            compose_spectral(bogus, good)
        with pytest.raises(ValueError):
            compose_spectral(good, bogus)


class TestLiftSpectrum:
    def test_identity_transform_keeps_spectrum(self):
        base = base_spectrum_certificate()
        lifted = lift_spectrum(base.set, IntMatrix.identity(4), base)
        assert lifted.spectrum == base.spectrum

    def test_projection_example(self):
        diag = PointSet(2, ((0, 0), (1, 1)))
        transform = IntMatrix.from_rows([[1, 0]])
        base = SpectrumCertificate(
            GroupSpec(2, 1),
            line_set(0, 1),
            PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 2),
        )
        lifted = lift_spectrum(diag, transform, base)
        assert lifted.spectrum.numerators.to_rows() == [[0, 0], [1, 0]]
        assert verify_spectrum(lifted)

    def test_fixture_arises_as_lift_of_big_system(self):
        # The 6x6 system: columns of (spectrum rows) @ (point columns) over the
        # integers form a 3-spectral set in Z^6 with the identity/3 spectrum;
        # lifting through the left factor recovers the fixture certificate.
        product = matmul_mod(SPECTRUM_ROWS, base_point_set().to_columns_matrix(), None)
        big_set = PointSet(6, tuple(product.column(j) for j in range(6)))
        big_cert = SpectrumCertificate(
            GroupSpec(3, 6), big_set, PhaseMatrix.reduce(IntMatrix.identity(6), 3)
        )
        assert verify_spectrum(big_cert)
        lifted = lift_spectrum(base_point_set(), SPECTRUM_ROWS, big_cert)
        assert lifted == base_spectrum_certificate()

    def test_mismatched_base_rejected(self):
        base = SpectrumCertificate(
            GroupSpec(2, 1),
            line_set(0, 1),
            PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 2),
        )
        with pytest.raises(ValueError):
            lift_spectrum(PointSet(2, ((0, 0), (0, 1))), IntMatrix.from_rows([[1, 0]]), base)

    def test_non_spectral_base_rejected(self):
        # {0, 1} with rows {0, 1}/3 is not orthogonal, and neither is a lift of it.
        bogus = SpectrumCertificate(
            GroupSpec(3, 1),
            line_set(0, 1),
            PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 3),
        )
        with pytest.raises(ValueError):
            lift_spectrum(line_set(0, 1), IntMatrix.identity(1), bogus)
        with pytest.raises(ValueError):
            lift_spectrum(PointSet(2, ((0, 0), (1, 1))), IntMatrix.from_rows([[1, 0]]), bogus)


class TestCubeSpectrum:
    def test_side_two_line(self):
        cert = cube_spectrum(2, 1)
        assert cert.set == line_set(0, 1)
        assert cert.spectrum.numerators.to_rows() == [[0], [1]]

    def test_side_three_line_is_dft(self):
        cert = cube_spectrum(3, 1)
        assert verify_spectrum(cert)
        assert len(cert.set) == 3

    def test_four_dimensional(self):
        cert = cube_spectrum(2, 4)
        assert len(cert.set) == 16
        assert verify_spectrum(cert)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            cube_spectrum(10, 8, guard=10**6)


class TestInvariants:
    def test_translation_invariance(self, rng):
        checked = 0
        while checked < 60:
            m = rng.randint(1, 5)
            d = rng.randint(1, 2)
            k = rng.randint(1, 3)
            points = set()
            while len(points) < k:
                points.add(tuple(rng.randint(-3, 3) for _ in range(d)))
            ps = PointSet(d, tuple(points))
            cert = find_spectrum(ps, m)
            offset = [rng.randint(-4, 4) for _ in range(d)]
            moved = translated(ps, offset)
            if cert is None:
                assert find_spectrum(moved, m) is None
            else:
                assert is_m_spectral(moved, cert.spectrum)
            checked += 1

    def test_spectrum_row_translation(self, rng):
        checked = 0
        while checked < 60:
            m = rng.randint(2, 5)
            k = rng.randint(1, min(3, m))
            subset = rng.sample(range(m), k)
            cert = find_spectrum(line_set(*subset), m)
            if cert is None:
                continue
            shift = rng.randrange(m)
            shifted = IntMatrix(
                k, 1, tuple((x + shift) % m for x in cert.spectrum.numerators.entries)
            )
            assert is_m_spectral(cert.set, PhaseMatrix(shifted, m))
            checked += 1

    def test_produced_certificates_reverify(self, rng):
        for _ in range(40):
            m = rng.randint(1, 6)
            k = rng.randint(1, min(3, m))
            cert = find_spectrum(line_set(*rng.sample(range(m), k)), m)
            if cert is not None:
                assert verify_spectrum(cert)


class TestTextFormats:
    def test_point_set_round_trip(self):
        ps = PointSet(2, ((0, -1), (2, 3)))
        assert parse_point_set(format_point_set(ps)) == ps
        assert format_point_set(ps) == "2 2\n0 -1\n2 3\n"

    def test_point_set_parse_errors(self):
        with pytest.raises(ValueError):
            parse_point_set("")
        with pytest.raises(ValueError):
            parse_point_set("2 1\n0\n")
        with pytest.raises(ValueError):
            parse_point_set("1 2\n0\n")

    def test_phase_matrix_round_trip(self):
        pm = PhaseMatrix(IntMatrix.from_rows([[0, 1], [2, 0]]), 3)
        text = format_phase_matrix(pm)
        assert text == "2 2\n0 1\n2 0\ndenominator 3\n"
        assert parse_phase_matrix(text) == pm

    def test_phase_matrix_parse_errors(self):
        with pytest.raises(ValueError):
            parse_phase_matrix("1 1\n0\n")
        with pytest.raises(ValueError):
            parse_phase_matrix("denominator 3\ndenominator 3\n1 1\n0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "1 1\n2\ndenominators 3\n",  # only the exact first field names the line
            "1 1\n2\ndenominator +3\n",
            "1 1\n2\ndenominator \u0663\n",
            "1 1\n2\ndenominator 1_0\n",
        ],
        ids=["denominators", "plus", "arabic-indic", "underscore"],
    )
    def test_phase_matrix_denominator_line_is_exact(self, text):
        with pytest.raises(ValueError):
            parse_phase_matrix(text)


def random_point_set(rng, d: int, k: int, low: int, high: int) -> PointSet:
    points: set[tuple[int, ...]] = set()
    while len(points) < k:
        points.add(tuple(rng.randint(low, high) for _ in range(d)))
    return PointSet(d, tuple(sorted(points)))


def brute_force_spectrum(point_set: PointSet, m: int) -> list[tuple[int, ...]] | None:
    # Lex-least canonical spectrum: row 0 is zero, the others strictly increase.
    k, d = len(point_set), point_set.dimension
    cells = list(GroupSpec(m, d).elements())
    for rest in itertools.combinations(cells[1:], k - 1):
        rows = [cells[0], *rest]
        numerators = IntMatrix(k, d, tuple(c for row in rows for c in row))
        if is_spectral_pair_by_division(point_set, PhaseMatrix(numerators, m)):
            return rows
    return None


class TestFourierZeroSet:
    def test_matches_each_character(self, rng, monkeypatch):
        cases = [(line_set(0, 1), 1), (PointSet(2, ((0, 0), (-3, 5), (4, -1))), 4)]
        while len(cases) < 80:
            d = rng.randint(1, 3)
            cases.append((random_point_set(rng, d, rng.randint(1, 8), -6, 6), rng.randint(1, 6)))
        # The route each zero set takes, as _zero_set calls it.
        routes = set()
        for name in ("_transform", "_pointwise"):
            original = getattr(spectral, name)

            def recording(*args, name=name, original=original):
                routes.add(name)
                return original(*args)

            monkeypatch.setattr(spectral, name, recording)
        colliding = 0
        for point_set, m in cases:
            mask = fourier_zero_set(point_set, m)
            assert mask >> m**point_set.dimension == 0
            for index, xi in enumerate(GroupSpec(m, point_set.dimension).elements()):
                exps = [sum(a * b for a, b in zip(xi, t)) for t in point_set.points]
                expected = is_vanishing_sum(m, exps)
                assert bool(mask >> index & 1) == expected
            colliding += len({tuple(c % m for c in p) for p in point_set.points}) < len(point_set)
        assert colliding  # points that collide mod m were exercised
        assert routes == {"_transform", "_pointwise"}  # both routes ran

    def test_pointwise_when_the_transform_exceeds_the_guard(self, rng):
        for _ in range(10):
            point_set = random_point_set(rng, 2, 9, -6, 6)
            m = rng.randint(2, 8)
            # m <= k, so the default guard transforms; a guard of m^d cells leaves
            # no room for the transform's m^(d+1) digits and decides pointwise.
            assert fourier_zero_set(point_set, m, guard=m**2) == fourier_zero_set(point_set, m)

    def test_fixture_zero_set(self):
        # Each nonzero spectrum row lies in Z(1_T), and 0 never does.
        mask = fourier_zero_set(base_point_set(), 3)
        assert not mask & 1
        for i in range(1, 6):
            index = sum(c * 3 ** (3 - a) for a, c in enumerate(SPECTRUM_ROWS.row(i)))
            assert mask >> index & 1

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            fourier_zero_set(PointSet(8, ((0,) * 8,)), 10, guard=10**6)


class TestZeroSetSpectralChecks:
    def test_is_m_spectral_matches_pairwise_reference(self, rng):
        seen = set()
        for trial in range(600):
            d = rng.randint(1, 3)
            m = rng.randint(1, 6)
            k = rng.randint(1, 9)
            point_set = random_point_set(rng, d, k, -5, 5)
            found = find_spectrum(point_set, m) if m**d <= 216 else None
            if found is not None and trial % 3:
                entries = list(found.spectrum.numerators.entries)
                if trial % 3 == 2:
                    entries[rng.randrange(len(entries))] = rng.randrange(m)
            else:
                entries = [rng.randrange(m) for _ in range(k * d)]
            spectrum = PhaseMatrix(IntMatrix(k, d, tuple(entries)), m)
            verdict = is_m_spectral(point_set, spectrum)
            assert verdict == is_spectral_pair_by_division(point_set, spectrum)
            seen.add((_dense_pays(k, m, d), verdict))
        # Both evaluation paths, each with both verdicts.
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_dense_path_on_composed_set(self):
        composed = compose_spectral(base_spectrum_certificate(), cube_spectrum(2, 4))
        assert _dense_pays(len(composed.set), 6, 4)
        assert is_m_spectral(composed.set, composed.spectrum)
        swapped = list(composed.spectrum.numerators.entries)
        swapped[4:8] = [(c + 1) % 6 for c in swapped[4:8]]
        broken = PhaseMatrix(IntMatrix(96, 4, tuple(swapped)), 6)
        assert not is_m_spectral(composed.set, broken)
        assert not is_spectral_pair_by_division(composed.set, broken)

    def test_repeated_rows_rejected_on_both_paths(self):
        for m, dense in ((2, True), (7, False)):
            assert _dense_pays(3, m, 1) == dense
            assert not is_m_spectral(line_set(0, 1, 2), PhaseMatrix(IntMatrix.zeros(3, 1), m))

    def test_small_sets_in_large_groups(self):
        # A singleton has no row pairs, whatever the modulus.
        for m in (20001, 10**5):
            cert = find_spectrum(line_set(7), m)
            assert cert is not None
            assert cert.spectrum.numerators == IntMatrix.zeros(1, 1)
            assert is_m_spectral(line_set(7), PhaseMatrix(IntMatrix.zeros(1, 1), m))
        # With two points a modulus beyond the cyclotomic bound fails before any
        # transform is built, as its first decision would.
        with pytest.raises(ValueError, match="index must lie"):
            find_spectrum(line_set(0, 1), 10**5)
        with pytest.raises(ValueError, match="index must lie"):
            is_m_spectral(line_set(0, 1), PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 20001))
        # A 2-point set in Z_40^3 and Z_1000^3 takes the pointwise path.
        pair = PointSet(3, ((0, 0, 0), (1, 0, 0)))
        cert = find_spectrum(pair, 40)
        assert cert is not None
        assert cert.spectrum.numerators == IntMatrix.from_rows([[0, 0, 0], [20, 0, 0]])
        assert not _dense_pays(2, 1000, 3)
        half = PhaseMatrix(IntMatrix.from_rows([[0, 0, 0], [500, 7, 999]]), 1000)
        assert is_m_spectral(pair, half)
        assert is_m_spectral(pair, half) == is_spectral_pair_by_division(pair, half)
        off = PhaseMatrix(IntMatrix.from_rows([[0, 0, 0], [499, 0, 0]]), 1000)
        assert not is_m_spectral(pair, off)

    def test_find_spectrum_is_brute_force_lex_least(self, rng):
        cases = [(line_set(0, 1, 2, 3), 4), (PointSet(2, ((0, 0), (1, 0), (0, 1), (1, 1))), 2)]
        while len(cases) < 60:
            d = rng.randint(1, 2)
            m = rng.randint(1, 4 if d == 2 else 8)
            cases.append((random_point_set(rng, d, rng.randint(1, 4), -4, 4), m))
        found = 0
        for point_set, m in cases:
            cert = find_spectrum(point_set, m)
            expected = brute_force_spectrum(point_set, m)
            if expected is None:
                assert cert is None
            else:
                assert cert is not None
                rows = [cert.spectrum.numerators.row(i) for i in range(len(point_set))]
                assert rows == expected
                found += 1
        assert 0 < found < len(cases)


class TestPointSetCoordinates:
    """Exact int tuples are kept as given; everything else is converted, and
    both give the same stored points."""

    def test_int_tuples_kept(self):
        points = ((1, -2), (3, 4))
        ps = PointSet(2, points)
        assert ps.points is points

    @pytest.mark.parametrize(
        "given",
        [
            ((True, 0), (0, 1)),
            [(1, 0), (0, 1)],
            ([1, 0], [0, 1]),
            ((1, 0), [0, 1]),
        ],
    )
    def test_conversion_matches_exact_ints(self, given):
        ps = PointSet(2, given)
        assert ps.points == ((1, 0), (0, 1))
        assert all(type(p) is tuple for p in ps.points)
        assert all(type(c) is int for p in ps.points for c in p)
        assert ps == PointSet(2, ((1, 0), (0, 1)))

    def test_int_subclass_converted(self):
        class Coordinate(int):
            pass

        ps = PointSet(1, ((Coordinate(3),),))
        assert type(ps.points[0][0]) is int

    def test_validation_unchanged_on_the_fast_path(self):
        with pytest.raises(ValueError):
            PointSet(2, ((1, 2), (1, 2)))
        with pytest.raises(ValueError):
            PointSet(2, ((1, 2), (1,)))
        with pytest.raises(ValueError):
            PointSet(2, ())


class TestPointwisePairsDecidedLazily:
    """The pointwise path walks the row pairs in order and decides each
    distinct difference once, stopping at the first that does not vanish."""

    @pytest.fixture
    def decided(self, monkeypatch):
        """Each (xi, verdict) that a _pointwise predicate is asked, in order:
        xi = later - row mod m for a pair, later itself without a row."""
        calls = []
        pointwise = spectral._pointwise

        def recording(points, decide):
            vanishes = pointwise(points, decide)

            def recorded(later, row=None):
                behind = row or (0,) * len(later)
                xi = tuple((a - b) % decide.modulus for a, b in zip(later, behind))
                calls.append((xi, vanishes(later, row)))
                return calls[-1][1]

            return recorded

        monkeypatch.setattr(spectral, "_pointwise", recording)
        return calls

    # {0, ..., 5} in Z_60 has the spectrum 10 * {0, ..., 5}: its differences
    # 10 * j, j not 0 mod 6, all vanish.
    POINTS = line_set(0, 1, 2, 3, 4, 5)

    def spectrum(self, *rows):
        return PhaseMatrix(IntMatrix.from_rows([[r] for r in rows]), 60)

    def test_accepted_spectrum_decides_each_distinct_difference_once(self, decided):
        assert not _dense_pays(6, 60, 1)
        assert is_m_spectral(self.POINTS, self.spectrum(0, 10, 20, 30, 40, 50))
        # 15 pairs, 5 distinct differences, first met on the pairs with row 0.
        assert decided == [((10 * j,), True) for j in range(1, 6)]

    def test_refusal_stops_at_the_first_failing_pair(self, decided):
        assert not is_m_spectral(self.POINTS, self.spectrum(0, 10, 20, 30, 40, 51))
        # Pairs (0, 10), ..., (0, 40) vanish; (0, 51) is the fifth pair and fails.
        assert decided == [((10 * j,), True) for j in range(1, 5)] + [((51,), False)]

    @pytest.fixture
    def hostile(self, rng):
        """2,000 points and 2,000 distinct sorted rows in Z_1000^2, as an envelope."""
        k, m = 2000, 1000
        points, rows = set(), set()
        while len(points) < k:
            points.add((rng.randrange(m), rng.randrange(m)))
        while len(rows) < k:
            rows.add((rng.randrange(m), rng.randrange(m)))
        rows = sorted(rows)
        spectrum = PhaseMatrix(IntMatrix.from_rows(rows), m)
        cert = SpectrumCertificate(GroupSpec(m, 2), PointSet(2, tuple(points)), spectrum)
        assert not _dense_pays(k, m, 2)
        envelope = certio.CertificateEnvelope(
            certio.SCHEMA_VERSION, "spectrum", cert, (certio.ProvenanceEntry("test", ()),)
        )
        return certio.serialize(envelope), rows

    def test_hostile_envelope_refused_after_one_decision(self, hostile, decided):
        """Deciding all k(k-1)/2 differences first took seconds and over 100 MB."""
        data, rows = hostile
        with pytest.raises(certio.InvariantViolation):
            certio.parse(data)
        first = tuple((b - a) % 1000 for a, b in zip(rows[0], rows[1]))
        assert decided == [(first, False)]

    def test_hostile_envelope_computes_exponents_of_two_rows(self, hostile, monkeypatch):
        """The first pair fails, so only its two rows' exponents l.t are
        computed, 2 * 2,000 dot products, not one vector per row."""
        data, rows = hostile
        computed = []
        exponents = spectral._exponents

        def recording(points, row):
            computed.append(row)
            return exponents(points, row)

        monkeypatch.setattr(spectral, "_exponents", recording)
        with pytest.raises(certio.InvariantViolation):
            certio.parse(data)
        assert sorted(computed) == rows[:2]
