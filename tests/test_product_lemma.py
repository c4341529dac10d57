"""Compositions are checked by the product lemma and lifts by the pullback
lemma: the parts or the base are verified, the result is built and never
verified, and every checker still refuses a result that is not the
construction's or that rests on a bad premise."""

import json
from itertools import product
from pathlib import Path

import pytest

from spectratile import certio, spectral
from spectratile.certio import (
    CertificateEnvelope,
    CompositionRecord,
    InvariantViolation,
    LiftRecord,
    ProvenanceEntry,
    parse,
    serialize,
)
from spectratile.counterexample import base_spectrum_certificate, run_counterexample
from spectratile.modlinalg import IntMatrix, matmul_mod
from spectratile.spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    composed_set,
    composed_spectrum_rows,
    cube_spectrum,
    find_spectrum,
    lift_spectrum,
    verify_spectrum,
)
from spectratile.tiling import (
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    lift_tile,
    verify_tiling,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GOLDEN = Path(__file__).resolve().parent / "data" / "counterexample_n2.json"


def line_set(*values):
    return PointSet(1, tuple((v,) for v in values))


def envelope(kind, record):
    return serialize(
        CertificateEnvelope(
            certio.SCHEMA_VERSION, kind, record, (ProvenanceEntry("test", ("inline",)),)
        )
    )


def composition(certificate_type, left, right, result):
    return envelope("composition", CompositionRecord(certificate_type, left, right, result))


def edited(data, path, edit):
    doc = json.loads(data)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = edit(node[path[-1]])
    return json.dumps(doc).encode()


@st.composite
def part_pairs(draw):
    """Two groups Z_m^d and Z_n^d with m, n <= 4 and d <= 2, each with up to
    four distinct points drawn from [-m, 2m)^d, so that representatives
    outside [0, m) are composed too."""
    d = draw(st.integers(1, 2))

    def part():
        m = draw(st.integers(1, 4))
        coordinate = st.integers(-m, 2 * m - 1)
        points = draw(
            st.lists(
                st.tuples(*[coordinate] * d), min_size=1, max_size=min(4, m**d), unique=True
            )
        )
        return m, PointSet(d, tuple(points))

    return part(), part()


@st.composite
def lifts(draw):
    """A map x -> A @ x from Z^d to Z_m^d1, with m <= 4, d <= 3, d1 <= 2 and
    entries of A in [-m, 2m), and up to four points of [-m, 2m)^d whose
    images are distinct mod m.  Returns m, A, the points and their images,
    unreduced, as the base set."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    d1 = draw(st.integers(1, 2))
    coordinate = st.integers(-m, 2 * m - 1)
    entries = draw(st.lists(coordinate, min_size=d1 * d, max_size=d1 * d))
    transform = IntMatrix(d1, d, tuple(entries))
    rows = transform.to_rows()

    def image(point):
        return tuple(sum(a * x for a, x in zip(row, point)) for row in rows)

    points = draw(
        st.lists(
            st.tuples(*[coordinate] * d),
            min_size=1,
            max_size=4,
            unique_by=lambda p: tuple(c % m for c in image(p)),
        )
    )
    return m, transform, PointSet(d, tuple(points)), PointSet(d1, tuple(map(image, points)))


def cells(m, d):
    return tuple(product(range(m), repeat=d))


class TestProductsVerifyByTheOracle:
    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(part_pairs())
    def test_compose_spectral(self, parts):
        (m, left_set), (n, right_set) = parts
        left, right = find_spectrum(left_set, m), find_spectrum(right_set, n)
        hypothesis.assume(left is not None and right is not None)
        assert verify_spectrum(compose_spectral(left, right))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(part_pairs())
    def test_compose_tile(self, parts):
        (m, left_set), (n, right_set) = parts
        left = decide_m_tile(left_set, GroupSpec(m, left_set.dimension))
        right = decide_m_tile(right_set, GroupSpec(n, right_set.dimension))
        hypothesis.assume(
            isinstance(left, TilingCertificate) and isinstance(right, TilingCertificate)
        )
        assert verify_tiling(compose_tile(left, right))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counterexample_products(self, n):
        assert verify_spectrum(compose_spectral(base_spectrum_certificate(), cube_spectrum(n, 4)))


class TestLiftsVerifyByTheOracle:
    """The lifts verify their base and never their result, so the general
    checks serve as the oracle for what they return; a well-formed base that
    is not a tiling or not a spectrum is refused, by the lift and by parse,
    for the base's fault."""

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(lifts())
    def test_lift_tile(self, drawn):
        m, transform, points, image = drawn
        base = decide_m_tile(image, GroupSpec(m, image.dimension))
        hypothesis.assume(isinstance(base, TilingCertificate))
        assert verify_tiling(lift_tile(points, transform, base))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(lifts())
    def test_lift_spectrum(self, drawn):
        m, transform, points, image = drawn
        base = find_spectrum(image, m)
        hypothesis.assume(base is not None)
        assert verify_spectrum(lift_spectrum(points, transform, base))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(lifts())
    def test_base_that_does_not_tile(self, drawn):
        m, transform, points, image = drawn
        d, d1, order = points.dimension, image.dimension, m**image.dimension
        # The first k points, for the largest k >= 2 that leaves a complement
        # of at least 2 cells; the complement holds 0 and the difference of
        # the first two images, so those two translates share a cell.
        sizes = [k for k in range(2, len(points) + 1) if order % k == 0 and order // k >= 2]
        hypothesis.assume(sizes)
        k = sizes[-1]
        points = PointSet(d, points.points[:k])
        image = PointSet(d1, image.points[:k])
        first, second = image.points[:2]
        overlap = tuple((a - b) % m for a, b in zip(first, second))
        rest = [c for c in cells(m, d1) if c not in (overlap, (0,) * d1)]
        complement = PointSet(d1, ((0,) * d1, overlap, *rest[: order // k - 2]))
        base = TilingCertificate(GroupSpec(m, d1), image, complement)
        assert not verify_tiling(base)
        with pytest.raises(ValueError, match="base tiling fails"):
            lift_tile(points, transform, base)
        # A result with the group and size the pins expect: parse runs the
        # lift, which refuses the base before comparing anything.
        result = TilingCertificate(GroupSpec(m, d), points, PointSet(d, cells(m, d)[: m**d // k]))
        with pytest.raises(InvariantViolation, match="base tiling fails"):
            parse(envelope("lift", LiftRecord("tiling", transform, base, result)))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(lifts(), st.data())
    def test_base_that_is_not_spectral(self, drawn, data):
        m, transform, points, image = drawn
        k, d1 = len(points), image.dimension
        rows = data.draw(st.lists(st.sampled_from(cells(m, d1)), min_size=k, max_size=k))
        spectrum = PhaseMatrix(IntMatrix(k, d1, tuple(c for row in rows for c in row)), m)
        base = SpectrumCertificate(GroupSpec(m, d1), image, spectrum)
        hypothesis.assume(not verify_spectrum(base))
        with pytest.raises(ValueError, match="base spectrum fails"):
            lift_spectrum(points, transform, base)
        # The lift the construction would return without its base check.
        lifted = PhaseMatrix(matmul_mod(spectrum.numerators, transform, m), m)
        result = SpectrumCertificate(GroupSpec(m, points.dimension), points, lifted)
        with pytest.raises(InvariantViolation, match="base spectrum fails"):
            parse(envelope("lift", LiftRecord("spectrum", transform, base, result)))


class TestCounterexampleChecksItsParts:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_no_spectral_check_of_the_composed_set(self, monkeypatch, n):
        """The pipeline and parse check the six-point base and the n^4-point
        cube, never the 6n^4 points of their product."""
        sizes = []
        original = spectral.is_m_spectral

        def recording(point_set, spectrum):
            sizes.append(len(point_set))
            return original(point_set, spectrum)

        monkeypatch.setattr(spectral, "is_m_spectral", recording)
        report = run_counterexample(n)
        assert report.overall
        parse(serialize(report.envelope))
        assert sizes and max(sizes) <= max(6, n**4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extension_is_the_composed_set(self, n):
        base = base_spectrum_certificate()
        composed = compose_spectral(base, cube_spectrum(n, 4))
        extension = tuple(
            tuple(c + 3 * sc for c, sc in zip(t, s))
            for t in base.set.points
            for s in product(range(n), repeat=4)
        )
        assert composed.set.points == extension

    def test_golden_parses_without_building_the_extension(self, monkeypatch):
        """parse builds the 16-point cube, once: the extension is only the
        recomputed composed spectrum's set, and its report is arithmetic.
        The guard is the configured one (None), as the pipeline passes its own."""
        built = []

        def recording(*args):
            built.append(args)
            return cube_spectrum(*args)

        monkeypatch.setattr(certio, "cube_spectrum", recording)
        parse(GOLDEN.read_bytes())
        assert built == [(2, 4, None)]

    def test_extension_size_off_by_one_refused(self):
        data = edited(
            GOLDEN.read_bytes(),
            ("payload", "obstructions", "extension_size"),
            lambda size: str(int(size) + 1),
        )
        with pytest.raises(InvariantViolation, match="extension size"):
            parse(data)

    def test_composed_spectrum_row_changed_refused(self):
        # Row 1 of the 96 rows over Z_6, first coordinate.
        data = edited(
            GOLDEN.read_bytes(),
            ("payload", "composed_spectrum", "spectrum", "numerators", "entries", 4),
            lambda entry: str((int(entry) + 1) % 6),
        )
        with pytest.raises(InvariantViolation, match="does not recompute"):
            parse(data)


class TestCompositionTampering:
    def test_spectral_result_differing_in_one_point(self):
        half = find_spectrum(line_set(0, 1), 2)
        honest = compose_spectral(half, half)
        # 0 -> 4 keeps every residue mod 4, so the result is still spectral
        # on its own; it is refused because it is not the construction's.
        points = ((4,),) + honest.set.points[1:]
        tampered = SpectrumCertificate(honest.group, PointSet(1, points), honest.spectrum)
        assert verify_spectrum(tampered)
        parse(composition("spectrum", half, half, honest))
        with pytest.raises(InvariantViolation, match="does not recompute"):
            parse(composition("spectrum", half, half, tampered))

    def test_tiling_result_differing_in_one_point(self):
        half = decide_m_tile(line_set(0, 1), GroupSpec(2, 1))
        honest = compose_tile(half, half)
        points = ((4,),) + honest.set.points[1:]
        tampered = TilingCertificate(honest.group, PointSet(1, points), honest.complement)
        assert verify_tiling(tampered)
        parse(composition("tiling", half, half, honest))
        with pytest.raises(InvariantViolation, match="does not recompute"):
            parse(composition("tiling", half, half, tampered))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_spectral_part(self, side):
        # {0, 1} in Z_3 is not spectral: no row difference over 3 is in Z(1_T).
        bogus = SpectrumCertificate(
            GroupSpec(3, 1), line_set(0, 1), PhaseMatrix(IntMatrix.from_rows([[0], [1]]), 3)
        )
        good = find_spectrum(line_set(0, 1), 2)
        left, right = (bogus, good) if side == "left" else (good, bogus)
        m, n = left.group.modulus, right.group.modulus
        # The unverified product, with the group and size the pins expect.
        product = SpectrumCertificate(
            GroupSpec(m * n, 1),
            composed_set(left.set, right.set, m),
            PhaseMatrix(
                composed_spectrum_rows(left.spectrum.numerators, right.spectrum.numerators, m, n),
                m * n,
            ),
        )
        with pytest.raises(InvariantViolation, match=f"{side} spectrum"):
            parse(composition("spectrum", left, right, product))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_tiling_part(self, side):
        # {0, 1} + {0, 1} covers 1 twice in Z_4.
        bogus = TilingCertificate(GroupSpec(4, 1), line_set(0, 1), line_set(0, 1))
        good = decide_m_tile(line_set(0, 1), GroupSpec(2, 1))
        left, right = (bogus, good) if side == "left" else (good, bogus)
        m, n = left.group.modulus, right.group.modulus
        sigma = composed_set(left.complement, right.complement, m).points
        product = TilingCertificate(
            GroupSpec(m * n, 1),
            composed_set(left.set, right.set, m),
            PointSet(1, [(s % (m * n),) for (s,) in sigma]),
        )
        with pytest.raises(InvariantViolation, match=f"{side} tiling"):
            parse(composition("tiling", left, right, product))
