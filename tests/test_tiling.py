import itertools
from collections import Counter

import pytest

from chain_oracle import two_stage_lift
from conftest import translated
import spectratile.tiling as tiling_module
from spectratile.counterexample import base_point_set
from spectratile.guard import GuardExceeded
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import GroupSpec, PointSet
from spectratile.tiling import (
    ASYMPTOTIC_NON_TILING_CLAIM,
    DivisibilityObstruction,
    DuplicateResidues,
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    extension_obstructions,
    independent_tile,
    lift_tile,
    replay_search,
    verify_tiling,
)


def line_set(*values: int) -> PointSet:
    return PointSet(1, tuple((v,) for v in values))


def line_cert(m: int, tile, complement) -> TilingCertificate:
    return TilingCertificate(GroupSpec(m, 1), line_set(*tile), line_set(*complement))


def brute_force_tiles(points: PointSet, m: int) -> bool:
    # Assumption-free oracle: try every subset of Z_m as a complement.
    residues = [tuple(c % m for c in p) for p in points.points]
    cells = list(itertools.product(range(m), repeat=points.dimension))
    for size in range(1, len(cells) + 1):
        if size * len(residues) != len(cells):
            continue
        for complement in itertools.combinations(cells, size):
            covered = set()
            ok = True
            for sigma in complement:
                for t in residues:
                    cell = tuple((s + c) % m for s, c in zip(sigma, t))
                    if cell in covered:
                        ok = False
                        break
                    covered.add(cell)
                if not ok:
                    break
            if ok and len(covered) == len(cells):
                return True
    return False


class TestVerifyTiling:
    def test_valid_two_point_tiling(self):
        assert verify_tiling(line_cert(4, (0, 1), (0, 2)))

    def test_double_cover_rejected(self):
        assert not verify_tiling(line_cert(4, (0, 1), (0, 1)))

    def test_cube_in_z6_to_the_4(self):
        cube = PointSet(4, tuple(itertools.product(range(2), repeat=4)))
        complement = PointSet(4, tuple(itertools.product((0, 2, 4), repeat=4)))
        cert = TilingCertificate(GroupSpec(6, 4), cube, complement)
        assert verify_tiling(cert)

    def test_size_product_mismatch_rejected_on_construction(self):
        with pytest.raises(ValueError):
            line_cert(4, (0, 1), (0,))


class TestDecideMTile:
    def test_fixture_set_divisibility_obstruction(self):
        verdict = decide_m_tile(base_point_set(), GroupSpec(3, 4))
        assert isinstance(verdict, NonTilingCertificate)
        assert verdict.reason == DivisibilityObstruction(6, 81)

    def test_fixture_set_exhaustive_search(self):
        verdict = decide_m_tile(
            base_point_set(), GroupSpec(3, 4), divisibility_shortcut=False
        )
        assert isinstance(verdict, NonTilingCertificate)
        assert isinstance(verdict.reason, ExhaustedSearch)
        assert verdict.reason.nodes > 1

    def test_two_points_tile_z4(self):
        verdict = decide_m_tile(line_set(0, 1), GroupSpec(4, 1))
        assert isinstance(verdict, TilingCertificate)
        assert verdict.complement == line_set(0, 2)
        assert verify_tiling(verdict)

    def test_even_pair_tiles_z4(self):
        verdict = decide_m_tile(line_set(0, 2), GroupSpec(4, 1))
        assert isinstance(verdict, TilingCertificate)
        assert verdict.complement == line_set(0, 1)

    def test_three_points_in_z6_matches_brute_force(self):
        points = line_set(0, 1, 3)
        verdict = decide_m_tile(points, GroupSpec(6, 1))
        expected = brute_force_tiles(points, 6)
        assert isinstance(verdict, TilingCertificate) == expected

    def test_duplicate_residues_detected_before_search(self):
        verdict = decide_m_tile(line_set(1, 5), GroupSpec(4, 1))
        assert isinstance(verdict, NonTilingCertificate)
        assert verdict.reason == DuplicateResidues((1,), (5,))

    def test_whole_group_tiles_with_singleton_complement(self):
        verdict = decide_m_tile(line_set(0, 1, 2), GroupSpec(3, 1))
        assert isinstance(verdict, TilingCertificate)
        assert len(verdict.complement) == 1

    def test_deterministic(self):
        a = decide_m_tile(line_set(0, 2), GroupSpec(8, 1))
        b = decide_m_tile(line_set(0, 2), GroupSpec(8, 1))
        assert a == b

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            decide_m_tile(PointSet(8, ((0,) * 8,)), GroupSpec(10, 8), guard=10**6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decide_m_tile(line_set(0), GroupSpec(2, 2))

    def test_matches_brute_force_small(self):
        for m in range(1, 7):
            for k in range(1, min(4, m) + 1):
                for subset in itertools.combinations(range(m), k):
                    points = line_set(*subset)
                    verdict = decide_m_tile(points, GroupSpec(m, 1))
                    assert isinstance(verdict, TilingCertificate) == brute_force_tiles(
                        points, m
                    )
                    if isinstance(verdict, TilingCertificate):
                        assert verify_tiling(verdict)


class TestComposeTile:
    def test_two_by_two(self):
        half = line_cert(2, (0, 1), (0,))
        composed = compose_tile(half, half)
        assert set(composed.set.points) == {(0,), (1,), (2,), (3,)}
        assert composed.complement == line_set(0)
        assert composed.group == GroupSpec(4, 1)

    def test_two_by_three(self):
        composed = compose_tile(line_cert(2, (0, 1), (0,)), line_cert(3, (0, 1, 2), (0,)))
        assert set(composed.set.points) == {(v,) for v in range(6)}
        assert verify_tiling(composed)

    def test_singleton_neutral(self):
        other = line_cert(4, (0, 1), (0, 2))
        composed = compose_tile(line_cert(1, (0,), (0,)), other)
        assert composed.set == other.set
        assert composed.complement == other.complement
        assert composed.group == other.group

    def test_invalid_input_rejected(self):
        broken = line_cert(4, (0, 1), (0, 1))
        with pytest.raises(ValueError):
            compose_tile(broken, line_cert(2, (0, 1), (0,)))

    def test_guard_refuses_before_anything_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a composed set past the guard")

        monkeypatch.setattr(tiling_module, "composed_set", refuse)
        monkeypatch.setenv("SPECTRATILE_GUARD", "100")
        twenty = line_cert(20, (0, 1), range(0, 20, 2))
        with pytest.raises(GuardExceeded):
            compose_tile(twenty, twenty)

    def test_random_compositions_verify(self, rng):
        certs_1d = []
        certs_2d = []
        while len(certs_1d) < 12 or len(certs_2d) < 12:
            m = rng.randint(1, 4)
            d = rng.choice([1, 2])
            k = rng.randint(1, 3)
            pool = list(itertools.product(range(m), repeat=d))
            if k > len(pool):
                continue
            verdict = decide_m_tile(
                PointSet(d, tuple(rng.sample(pool, k))), GroupSpec(m, d)
            )
            if isinstance(verdict, TilingCertificate):
                (certs_1d if d == 1 else certs_2d).append(verdict)
        for _ in range(100):
            pool = rng.choice([certs_1d, certs_2d])
            left, right = rng.choice(pool), rng.choice(pool)
            try:
                composed = compose_tile(left, right)
            except ValueError:
                continue  # collision in T + mS; legitimately rejected
            assert verify_tiling(composed)


class TestLiftTile:
    def test_identity_transform_keeps_complement_residues(self):
        base = line_cert(4, (0, 1), (0, 2))
        lifted = lift_tile(line_set(0, 1), IntMatrix.identity(1), base)
        assert lifted.complement == line_set(0, 2)

    def test_projection_example(self):
        plane_pair = PointSet(2, ((0, 0), (1, 0)))
        base = line_cert(2, (0, 1), (0,))
        lifted = lift_tile(plane_pair, IntMatrix.from_rows([[1, 0]]), base)
        assert lifted.complement == PointSet(2, ((0, 0), (0, 1)))
        assert verify_tiling(lifted)

    def test_duplicate_mapped_columns_rejected(self):
        base = line_cert(2, (0, 1), (0,))
        with pytest.raises(ValueError):
            lift_tile(PointSet(2, ((0, 0), (0, 1))), IntMatrix.from_rows([[1, 0]]), base)

    def test_mismatched_base_rejected(self):
        base = line_cert(2, (0, 1), (0,))
        with pytest.raises(ValueError):
            lift_tile(PointSet(2, ((1, 0), (0, 0))), IntMatrix.from_rows([[1, 0]]), base)

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            lift_tile(
                line_set(0, 1), IntMatrix.identity(1), line_cert(4, (0, 1), (0, 1))
            )

    def test_guard(self):
        base = line_cert(4, (0, 1), (0, 2))
        wide = PointSet(8, ((0,) * 8, (1,) + (0,) * 7))
        with pytest.raises(GuardExceeded):
            lift_tile(wide, IntMatrix.from_rows([[1] + [0] * 7]), base, guard=10**3)


class TestIndependentTile:
    def test_single_vector(self):
        chain = independent_tile(PointSet(2, ((3, 1),)))
        assert chain.modulus == 3
        assert verify_tiling(chain.final)

    def test_standard_basis_plane(self):
        chain = independent_tile(PointSet(2, ((1, 0), (0, 1))))
        assert abs(chain.determinant) == 1
        assert chain.modulus == 2
        assert verify_tiling(chain.final)
        assert chain.final.group == GroupSpec(2, 2)

    def test_sheared_basis(self):
        chain = independent_tile(PointSet(2, ((1, 0), (1, 1))))
        assert abs(chain.determinant) == 1
        assert chain.modulus == 2
        assert verify_tiling(chain.final)

    def test_all_chain_stages_verify(self):
        chain = independent_tile(PointSet(3, ((2, 0, 1), (0, 3, 0))))
        projected, lifted = two_stage_lift(chain)
        assert verify_tiling(chain.one_dimensional)
        assert verify_tiling(projected)
        assert verify_tiling(chain.final)
        assert chain.final == lifted
        assert chain.final.set == PointSet(3, ((2, 0, 1), (0, 3, 0)))

    def test_dependent_vectors_rejected(self):
        with pytest.raises(ValueError):
            independent_tile(PointSet(2, ((1, 1), (2, 2))))
        with pytest.raises(ValueError):
            independent_tile(PointSet(2, ((0, 0),)))

    def test_guard(self):
        dense = PointSet(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
        # det = 27, M = 81, 81^3 > 10^5
        with pytest.raises(GuardExceeded):
            independent_tile(dense, guard=10**5)

    def test_random_independent_sets_verify(self, rng):
        checked = 0
        while checked < 50:
            d = rng.choice([2, 3])
            k = rng.randint(1, min(d, 3))
            points = [
                tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)
            ]
            if len(set(points)) != k:
                continue
            try:
                # Modest guard keeps the admitted moduli small enough to
                # enumerate quickly; oversized draws are rejected explicitly.
                chain = independent_tile(PointSet(d, tuple(points)), guard=200_000)
            except GuardExceeded:
                continue
            except ValueError:
                continue  # dependent draw
            projected, lifted = two_stage_lift(chain)
            assert verify_tiling(chain.final)
            assert chain.final == lifted
            assert verify_tiling(projected)
            assert verify_tiling(chain.one_dimensional)
            checked += 1


def built_extension(point_set: PointSet, m: int, n: int) -> PointSet:
    """T + m*[0,n)^d, built point by point."""
    d = point_set.dimension
    return PointSet(
        d,
        tuple(
            tuple(c + m * s for c, s in zip(t, shift))
            for t in point_set.points
            for shift in itertools.product(range(n), repeat=d)
        ),
    )


class TestBuildExtension:
    """The report's numbers match the extension built here."""

    def test_fixture_extension_has_96_points(self):
        ext = built_extension(base_point_set(), 3, 2)
        assert len(ext) == 96 == extension_obstructions(base_point_set(), 3, 2).extension_size
        assert all(0 <= c < 6 for p in ext.points for c in p)

    def test_side_one_is_identity(self):
        ps = line_set(0, 1)
        assert built_extension(ps, 2, 1) == ps
        rep = extension_obstructions(ps, 2, 1)
        assert (rep.extension_size, rep.reduction_multiplicity) == (2, 1)

    def test_singleton_stretch(self):
        assert built_extension(line_set(0), 2, 3) == line_set(0, 2, 4)
        rep = extension_obstructions(line_set(0), 2, 3)
        assert (rep.extension_size, rep.extended_group_order) == (3, 6)
        assert rep.size_divides

    def test_rejects_points_outside_box(self):
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            extension_obstructions(line_set(0, 2), 2, 2)
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            extension_obstructions(line_set(-1), 2, 2)
        with pytest.raises(ValueError, match="modulus must be positive"):
            extension_obstructions(line_set(0), 0, 2)
        with pytest.raises(ValueError, match="side count must be positive"):
            extension_obstructions(line_set(0), 2, 0)


class TestCheckModReduction:
    """The report's mod-m reduction matches a count over the built extension."""

    @staticmethod
    def counted(point_set: PointSet, m: int, n: int) -> Counter:
        return Counter(
            tuple(c % m for c in p) for p in built_extension(point_set, m, n).points
        )

    def test_fixture_extension_multiplicity_sixteen(self):
        base = base_point_set()
        counts = self.counted(base, 3, 2)
        assert set(counts) == set(base.points) and set(counts.values()) == {16}
        rep = extension_obstructions(base, 3, 2)
        assert rep.reduction_uniform and rep.reduction_multiplicity == 16

    def test_identity_multiplicity_one(self):
        ps = base_point_set()
        assert set(self.counted(ps, 3, 1).values()) == {1}
        rep = extension_obstructions(ps, 3, 1)
        assert rep.reduction_uniform and rep.reduction_multiplicity == 1


class TestExtensionObstructions:
    def test_fixture_report(self):
        rep = extension_obstructions(base_point_set(), 3, 2)
        assert rep.extension_size == 96
        assert rep.extended_group_order == 1296
        assert not rep.size_divides
        assert rep.reduction_uniform and rep.reduction_multiplicity == 16
        assert isinstance(rep.base_verdict, NonTilingCertificate)
        assert rep.asymptotic_claim == ASYMPTOTIC_NON_TILING_CLAIM

    def test_trivial_singleton(self):
        rep = extension_obstructions(line_set(0), 1, 3)
        assert rep.size_divides
        assert isinstance(rep.base_verdict, TilingCertificate)
        assert rep.asymptotic_claim is None

    def test_huge_side_count_enumerates_nothing(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a group was enumerated")

        monkeypatch.setattr(GroupSpec, "elements", refuse)
        rep = extension_obstructions(base_point_set(), 3, 10**6)
        assert rep.extension_size == 6 * 10**24
        assert rep.reduction_multiplicity == 10**24
        assert not rep.size_divides

    def test_tiling_base_has_no_obstruction(self):
        rep = extension_obstructions(line_set(0, 1), 2, 2)
        assert rep.size_divides
        assert isinstance(rep.base_verdict, TilingCertificate)
        assert rep.asymptotic_claim is None


class TestInvariants:
    def test_translation_invariance(self, rng):
        for _ in range(60):
            m = rng.randint(1, 6)
            k = rng.randint(1, min(4, m))
            points = line_set(*rng.sample(range(m), k))
            offset = [rng.randint(-5, 5)]
            verdict = decide_m_tile(points, GroupSpec(m, 1))
            translated_verdict = decide_m_tile(translated(points, offset), GroupSpec(m, 1))
            assert isinstance(verdict, TilingCertificate) == isinstance(
                translated_verdict, TilingCertificate
            )

    def test_divisibility_reason_is_sound(self, rng):
        for _ in range(40):
            m = rng.randint(2, 8)
            k = rng.randint(2, min(4, m))
            points = line_set(*rng.sample(range(m), k))
            verdict = decide_m_tile(points, GroupSpec(m, 1))
            if isinstance(verdict, NonTilingCertificate) and isinstance(
                verdict.reason, DivisibilityObstruction
            ):
                assert verdict.reason.group_order % verdict.reason.set_size != 0

    def test_non_tiling_certificate_validation(self):
        with pytest.raises(ValueError):
            NonTilingCertificate(
                GroupSpec(4, 1), line_set(0, 1), DivisibilityObstruction(2, 4)
            )
        with pytest.raises(ValueError):
            NonTilingCertificate(
                GroupSpec(4, 1), line_set(0, 1), DuplicateResidues((0,), (1,))
            )
        with pytest.raises(ValueError):
            ExhaustedSearch(0)


def tuple_scan_lift(point_set: PointSet, transform: IntMatrix, base: TilingCertificate):
    # The full tuple-per-cell scan of Z_m^d that lift_tile replaced, kept
    # as an oracle: every cell whose image lands in the base complement.
    m = base.group.modulus
    targets = {tuple(c % m for c in p) for p in base.complement.points}
    return tuple(
        cell
        for cell in GroupSpec(m, point_set.dimension).elements()
        if tuple(
            sum(transform.at(i, j) * cell[j] for j in range(transform.cols)) % m
            for i in range(transform.rows)
        )
        in targets
    )


def tuple_set_tiles(cert: TilingCertificate) -> bool:
    # The set-of-tuples coverage count that verify_tiling replaced.
    m = cert.group.modulus
    if len(cert.set) * len(cert.complement) != cert.group.order():
        return False
    cells = {
        tuple((s + c) % m for s, c in zip(sigma, t))
        for sigma in cert.complement.points
        for t in cert.set.points
    }
    return len(cells) == cert.group.order()


def random_lift_case(rng, m: int, d1: int, d: int):
    """A random transform (negative entries allowed) and a set whose image
    tiles Z_m^d1, with the base tiling found by the exact-cover search."""
    while True:
        transform = IntMatrix(d1, d, tuple(rng.randint(-4, 4) for _ in range(d1 * d)))
        k = rng.choice([1, 2, 3, 4])
        points = {tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(k)}
        point_set = PointSet(d, tuple(sorted(points)))
        image = [
            tuple(sum(transform.at(i, j) * p[j] for j in range(d)) % m for i in range(d1))
            for p in point_set.points
        ]
        if len(set(image)) != len(image):
            continue
        base = decide_m_tile(PointSet(d1, tuple(image)), GroupSpec(m, d1))
        if isinstance(base, TilingCertificate):
            return point_set, transform, base


class TestPackedLiftAgainstTupleScan:
    @pytest.mark.parametrize(
        "m, d1, d",
        [(4, 2, 2), (6, 2, 3), (6, 1, 3), (4, 3, 2), (6, 2, 1), (9, 1, 1), (1, 2, 2)],
    )
    def test_random_transforms(self, rng, m, d1, d):
        for _ in range(6):
            point_set, transform, base = random_lift_case(rng, m, d1, d)
            lifted = lift_tile(point_set, transform, base)
            assert lifted.complement.points == tuple_scan_lift(point_set, transform, base)
            assert lifted.group == GroupSpec(m, d)

    def test_unreduced_base_complement(self, rng):
        point_set, transform, base = random_lift_case(rng, 6, 2, 3)
        shifted = TilingCertificate(
            base.group,
            base.set,
            PointSet(2, tuple((a - 6, b + 12) for a, b in base.complement.points)),
        )
        assert lift_tile(point_set, transform, shifted) == lift_tile(point_set, transform, base)

    def test_one_dimensional_set(self):
        # d = 1: the walk has a single, empty prefix.
        base = line_cert(6, (0, 3), (0, 1, 2))
        lifted = lift_tile(line_set(0, 1), IntMatrix.from_rows([[3]]), base)
        assert lifted.complement.points == ((0,), (2,), (4,))
        assert lifted.complement.points == tuple_scan_lift(
            line_set(0, 1), IntMatrix.from_rows([[3]]), base
        )


class TestPackedVerifyAgainstTupleSet:
    def test_unreduced_and_negative_coordinates(self, rng):
        for m, d in [(4, 2), (6, 2), (4, 3), (5, 1), (1, 3)]:
            for _ in range(20):
                pair = {tuple(rng.randint(0, m - 1) for _ in range(d)) for _ in range(2)}
                found = decide_m_tile(PointSet(d, tuple(pair)), GroupSpec(m, d))
                if not isinstance(found, TilingCertificate):
                    continue

                def shift(p):
                    return tuple(c + m * rng.randint(-3, 3) for c in p)

                cert = TilingCertificate(
                    found.group,
                    PointSet(d, tuple(shift(p) for p in found.set.points)),
                    PointSet(d, tuple(shift(p) for p in found.complement.points)),
                )
                assert verify_tiling(cert) and tuple_set_tiles(cert)

    def test_random_certificates_agree(self, rng):
        verdicts = set()
        for _ in range(400):
            m = rng.randint(1, 6)
            d = rng.randint(1, 3)
            k = rng.choice([c for c in range(1, m**d + 1) if m**d % c == 0])
            if k > 8 or m**d // k > 40:
                continue

            def draw(n):
                points = {tuple(rng.randint(-2 * m, 2 * m) for _ in range(d)) for _ in range(n)}
                return PointSet(d, tuple(points))

            point_set, complement = draw(k), draw(m**d // k)
            if len(point_set) * len(complement) != m**d:
                continue
            cert = TilingCertificate(GroupSpec(m, d), point_set, complement)
            verdict = verify_tiling(cert)
            assert verdict == tuple_set_tiles(cert)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_colliding_complement(self):
        # 1 and 5 collide mod 4, so the translates of {0, 2} overlap.
        assert not verify_tiling(line_cert(4, (0, 2), (1, 5)))
        assert verify_tiling(line_cert(4, (0, 2), (1, 6)))
        plane = TilingCertificate(
            GroupSpec(2, 2),
            PointSet(2, ((0, 0), (1, 0))),
            PointSet(2, ((0, 1), (2, -1))),
        )
        assert not verify_tiling(plane) and not tuple_set_tiles(plane)


class TestIndependentTileChecksEachCertificateOnce:
    @pytest.fixture
    def checked(self, monkeypatch):
        """Every certificate whose coverage is checked, in call order:
        verify_tiling and lift_tile both check it through _coverage."""
        calls = []
        original = tiling_module._coverage

        def recording(cert):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(tiling_module, "_coverage", recording)
        return calls

    @pytest.mark.parametrize(
        "points",
        [((3, 1),), ((1, 0), (0, 1)), ((2, 0, 1), (0, 3, 0)), ((1, 2, 0), (0, 1, -1), (2, 0, 1))],
    )
    def test_two_coverage_checks(self, checked, points):
        """independent_tile checks its input and never the tiling of Z_M it
        builds; reading final lifts once, and the lift checks the tiling it
        pulls back, never its own result: one coverage check in all."""
        chain = independent_tile(PointSet(len(points[0]), points))
        assert checked == []
        chain.final
        assert checked == [chain.one_dimensional]

    def test_public_lift_still_checks_its_base(self, checked):
        """Only the base is checked: with the pullback lemma it proves what
        lift_tile returns, so the result is never checked."""
        base = line_cert(2, (0, 1), (0,))
        lift_tile(PointSet(2, ((0, 0), (1, 0))), IntMatrix.from_rows([[1, 0]]), base)
        assert checked == [base]


def lex_first_oracle(residues, m, dimension):
    """The tuple-keyed lex-first exact cover that the placement table
    replaced, kept verbatim as an oracle: branch on the least uncovered cell
    as a tuple, try the points in their given order."""
    order = m**dimension
    full = (1 << order) - 1
    mask_cache = {}

    def cell_index(cell):
        idx = 0
        for c in cell:
            idx = idx * m + c
        return idx

    def cell_vector(idx):
        coords = []
        for _ in range(dimension):
            idx, r = divmod(idx, m)
            coords.append(r)
        return tuple(reversed(coords))

    def placement_mask(sigma):
        mask = mask_cache.get(sigma)
        if mask is None:
            mask = 0
            for t in residues:
                mask |= 1 << cell_index(tuple((s + c) % m for s, c in zip(sigma, t)))
            mask_cache[sigma] = mask
        return mask

    def branches(covered):
        low = ~covered & full
        cell = cell_vector((low & -low).bit_length() - 1)
        for t in residues:
            sigma = tuple((a - b) % m for a, b in zip(cell, t))
            mask = placement_mask(sigma)
            if not mask & covered:
                yield sigma, mask

    nodes = 1
    covered = 0
    if covered == full:
        return [], nodes
    trail = []
    it = branches(covered)
    while True:
        step = next(it, None)
        if step is None:
            if not trail:
                return None, nodes
            _, covered, it = trail.pop()
            continue
        sigma, mask = step
        trail.append((sigma, covered, it))
        covered |= mask
        nodes += 1
        if covered == full:
            return [entry[0] for entry in trail], nodes
        it = branches(covered)


class TestPlacementTableAgainstLexFirstOracle:
    """Same branching order, node count and first solution as the oracle."""

    def check(self, residues, m, d, rng):
        expected = lex_first_oracle(residues, m, d)
        assert tiling_module._exact_cover(residues, m, d) == expected
        # decide_m_tile reduces unreduced coordinates to the same residues.
        shifted = tuple(tuple(c + m * rng.randint(-2, 2) for c in r) for r in residues)
        verdict = decide_m_tile(
            PointSet(d, shifted), GroupSpec(m, d), divisibility_shortcut=False
        )
        solution, nodes = expected
        if solution is None:
            assert verdict.reason == ExhaustedSearch(nodes)
        else:
            assert verdict.complement.points == tuple(sorted(solution))
        return solution is not None

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_random_residue_sets(self, rng, m, d):
        cells = list(itertools.product(range(m), repeat=d))
        order = len(cells)
        # Lex-first search is exponential for small sets in Z_m^3 (a 3-point
        # set in Z_4^3 can take 970,000 nodes), so there the sizes start
        # higher; the singleton and the whole group are tested below.
        low = {1: 1, 2: 1, 3: {4: 7, 5: 12, 6: 12}.get(m, 1)}[d]
        sizes = range(low, min(order, low + 8) + 1)
        dividing = [k for k in sizes if order % k == 0]
        other = [k for k in sizes if order % k != 0]
        outcomes = set()
        for draw in range(30):
            k = rng.choice(other if draw % 2 and other or not dividing else dividing)
            outcomes.add(self.check(rng.sample(cells, k), m, d, rng))
        if other:
            assert False in outcomes

    @pytest.mark.parametrize("m, d", [(2, 1), (3, 2), (4, 3), (6, 3), (5, 2)])
    def test_singleton_and_whole_group(self, rng, m, d):
        cells = list(itertools.product(range(m), repeat=d))
        point = rng.choice(cells)
        assert self.check([point], m, d, rng)
        assert lex_first_oracle([point], m, d)[1] == m**d + 1
        shuffled = rng.sample(cells, len(cells))
        assert self.check(shuffled, m, d, rng)
        assert lex_first_oracle(shuffled, m, d)[1] == 2

    def test_deep_exhausted_search_node_count(self):
        # z5d3k5-142 of the benchmark pool: the deepest exhausted search there.
        points = PointSet(3, ((2, 4, 1), (3, 3, 1), (4, 1, 1), (3, 0, 0), (0, 3, 2)))
        assert tiling_module._exact_cover(points.points, 5, 3) == (None, 160_299)
        verdict = decide_m_tile(points, GroupSpec(5, 3))
        assert verdict.reason == ExhaustedSearch(29_257, rule="rooted")


class TestReplaySearch:
    def test_honest_and_tampered_counts(self):
        verdict = decide_m_tile(line_set(0, 1, 3), GroupSpec(6, 1))
        assert isinstance(verdict.reason, ExhaustedSearch)
        assert replay_search(verdict)
        for nodes in (verdict.reason.nodes - 1, verdict.reason.nodes + 1):
            tampered = NonTilingCertificate(verdict.group, verdict.set, ExhaustedSearch(nodes))
            assert not replay_search(tampered)

    def test_search_run_without_the_divisibility_shortcut(self):
        # The bundle's search: six points, whose size does not divide 3^4.
        cert = NonTilingCertificate(GroupSpec(3, 4), base_point_set(), ExhaustedSearch(750))
        assert replay_search(cert)

    def test_a_tiling_set_does_not_replay(self):
        cert = NonTilingCertificate(GroupSpec(4, 1), line_set(0, 1), ExhaustedSearch(3))
        assert not replay_search(cert)

    def test_only_exhausted_searches_replay(self):
        verdict = decide_m_tile(base_point_set(), GroupSpec(3, 4))
        with pytest.raises(ValueError):
            replay_search(verdict)

    def test_guard(self):
        cert = NonTilingCertificate(GroupSpec(3, 4), base_point_set(), ExhaustedSearch(750))
        with pytest.raises(GuardExceeded):
            replay_search(cert, guard=80)

    @pytest.fixture
    def searched(self, monkeypatch):
        """The node count of every exact-cover search run, in call order."""
        counts = []
        original = tiling_module._exact_cover

        def recording(*args, **kwargs):
            solution, nodes = original(*args, **kwargs)
            counts.append(nodes)
            return solution, nodes

        monkeypatch.setattr(tiling_module, "_exact_cover", recording)
        return counts

    def test_hostile_claim_stops_past_its_count(self, searched):
        # Two points whose size does not divide 5^3: the full lex-first
        # search is exponential, but the claim of 5 nodes bounds the replay.
        points = PointSet(3, ((0, 0, 0), (1, 2, 3)))
        cert = NonTilingCertificate(GroupSpec(5, 3), points, ExhaustedSearch(5))
        assert not replay_search(cert)
        assert searched == [6]

    def test_hostile_rooted_claim_stops_past_its_count(self, searched):
        points = PointSet(3, ((0, 0, 0), (1, 2, 3)))
        reason = ExhaustedSearch(5, rule="rooted")
        assert not replay_search(NonTilingCertificate(GroupSpec(5, 3), points, reason))
        assert searched == [6]

    def test_golden_search_replays_in_its_recorded_nodes(self, searched):
        cert = NonTilingCertificate(GroupSpec(3, 4), base_point_set(), ExhaustedSearch(750))
        assert replay_search(cert)
        low = NonTilingCertificate(GroupSpec(3, 4), base_point_set(), ExhaustedSearch(749))
        assert not replay_search(low)
        assert searched == [750, 750]

    def test_duplicate_residues_do_not_replay(self, searched):
        cert = NonTilingCertificate(GroupSpec(4, 1), line_set(0, 4), ExhaustedSearch(3))
        assert not replay_search(cert)
        assert searched == []
