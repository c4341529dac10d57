"""The two line transforms of the character sums agree, on both sides of the kernel rule.

_zero_set transforms each line either with one Kronecker product per
residue (_kernel_line) or by shifts and adds (_shift_add_line), chosen by the
kernel's size alone.  The shift-add transform is the oracle for the kernel.
"""

import itertools
import random
import time

import pytest

from spectratile import spectral
from spectratile.counterexample import base_spectrum_certificate
from spectratile.cyclotomic import vanishing_decision
from spectratile.spectral import (
    _KERNEL_BITS,
    GroupSpec,
    PointSet,
    _kernel_line,
    _shift_add_line,
    _transform,
    compose_spectral,
    cube_spectrum,
    fourier_zero_set,
)


def both_transforms(points, m, d, w):
    """The full transform, every cell of Z_m^d, by each line map."""
    kernel = _transform(points, m, d, _kernel_line(m, w), range(m**d))
    shifted = _transform(points, m, d, _shift_add_line(m, w), range(m**d))
    return kernel, shifted


def zero_set_transforms(point_set, m):
    """The cells each _transform call in fourier_zero_set asks for, with what it returns."""
    seen = []

    def recording(*args):
        seen.append((list(args[-1]), original(*args)))
        return seen[-1][1]

    original = spectral._transform
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_transform", recording)
        fourier_zero_set(point_set, m)
    return seen


def character_polys(points, m, d, w):
    """Each character's count polynomial packed directly, with no transform."""
    return [
        sum(1 << w * (sum(a * b for a, b in zip(xi, t)) % m) for t in points)
        for xi in GroupSpec(m, d).elements()
    ]


def random_points(rng, d, k, low, high):
    points = set()
    while len(points) < k:
        points.add(tuple(rng.randrange(low, high) for _ in range(d)))
    return sorted(points)


def kernel_bits(m, w):
    return 2 * m * m * w


# (d, m, k): for each d at least one kernel on each side of _KERNEL_BITS at
# the decision's width, except d = 4, whose large side is reached by widening.
SIZES = [
    (1, 1, 1),
    (1, 8, 8),
    (1, 24, 30),
    (1, 40, 40),
    (1, 60, 45),
    (2, 2, 3),
    (2, 6, 12),
    (2, 20, 40),
    (2, 32, 128),
    (3, 3, 5),
    (3, 8, 16),
    (3, 28, 56),
    (4, 2, 4),
    (4, 5, 20),
    (4, 6, 30),
]


class TestKernelAgainstShiftAdd:
    @pytest.mark.parametrize("d, m, k", SIZES)
    def test_random_sets_with_unreduced_coordinates(self, d, m, k):
        rng = random.Random(m * 100 + d * 10 + k)
        # Coordinates in [-m, 2m): negative, unreduced, and colliding mod m.
        points = random_points(rng, d, k, -m, 2 * m)
        w = vanishing_decision(m, k).width
        kernel, shifted = both_transforms(points, m, d, w)
        assert kernel == shifted
        if m**d * k <= 200_000:
            assert kernel == character_polys(points, m, d, w)

    def test_sizes_cover_both_sides_of_the_rule(self):
        sides = {
            (d, kernel_bits(m, vanishing_decision(m, k).width) <= _KERNEL_BITS)
            for d, m, k in SIZES
        }
        assert sides >= {(d, side) for d in (1, 2, 3) for side in (True, False)} | {(4, True)}

    def test_wide_digits_put_four_dimensions_on_the_large_side(self):
        # Any width with k < 2^(w - 1) is carry-free, so widening the digits is a
        # valid transform that takes a 4-dimensional kernel past the rule.
        rng = random.Random(4)
        m, w = 6, 170
        assert kernel_bits(m, w) > _KERNEL_BITS
        points = random_points(rng, 4, 30, -m, 2 * m)
        kernel, shifted = both_transforms(points, m, 4, w)
        assert kernel == shifted == character_polys(points, m, 4, w)

    def test_one_point(self):
        for d, m in ((1, 7), (2, 5), (3, 4), (4, 3)):
            points = [tuple(-7 + 3 * a for a in range(d))]
            w = vanishing_decision(m, 1).width
            kernel, shifted = both_transforms(points, m, d, w)
            assert kernel == shifted == character_polys(points, m, d, w)

    @pytest.mark.parametrize("j", [2, 3, 5, 7])
    def test_width_edge_totals(self, j):
        # All k points collide mod m, so character 0 holds one coefficient k;
        # k = 2^j - 1 and 2^j sit on either side of a width step.
        for k in (2**j - 1, 2**j):
            for d, m in ((1, 2), (2, 3), (3, 4), (4, 2)):
                points = [(m * i - m,) + (m * (i % 3),) * (d - 1) for i in range(k)]
                w = vanishing_decision(m, k).width
                assert k < 1 << w - 1
                kernel, shifted = both_transforms(points, m, d, w)
                assert kernel == shifted == character_polys(points, m, d, w)
                assert kernel[0] == k

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_composed_sets(self, n):
        composed = compose_spectral(base_spectrum_certificate(), cube_spectrum(n, 4))
        m, points = composed.group.modulus, composed.set.points
        decide = vanishing_decision(m, len(points))
        kernel, shifted = both_transforms(points, m, 4, decide.width)
        assert kernel == shifted
        [(cells, polynomials)] = zero_set_transforms(composed.set, m)
        assert polynomials == [kernel[j] for j in cells]


class TestLargeKernels:
    def test_large_kernels_are_never_built_and_stay_fast(self, monkeypatch):
        rng = random.Random(480)
        cases = [
            # 480 integers in [0, 1920): many collide mod 480.
            (PointSet(1, tuple((c,) for c in rng.sample(range(1920), 480))), 480),
            (PointSet(2, tuple(rng.sample(list(itertools.product(range(48), repeat=2)), 192))), 48),
        ]

        def refuse(m, w):
            raise AssertionError(f"a kernel of {kernel_bits(m, w)} bits was built")

        monkeypatch.setattr(spectral, "_line_kernels", refuse)
        for point_set, m in cases:
            assert m <= len(point_set)  # the transform side of fourier_zero_set
            assert kernel_bits(m, vanishing_decision(m, len(point_set)).width) > _KERNEL_BITS
            start = time.perf_counter()
            fourier_zero_set(point_set, m)
            assert time.perf_counter() - start < 1.0


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def zero_set_inputs():
    # At least m points, so the default guard takes the transform side;
    # four dimensions for m up to 5.
    dimensions = st.integers(2, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, 4 if m <= 5 else 3))
    )
    return dimensions.flatmap(
        lambda md: st.tuples(
            st.just(md[0]),
            st.just(md[1]),
            st.sets(
                st.tuples(*[st.integers(-md[0], 2 * md[0] - 1)] * md[1]),
                min_size=md[0],
                max_size=3 * md[0],
            ),
        )
    )


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(zero_set_inputs())
def test_transform_zero_set_equals_pointwise(drawn):
    m, d, points = drawn
    point_set = PointSet(d, tuple(sorted(points)))
    # A guard of m^d cells leaves no room for the transform's m^(d+1) digits.
    assert fourier_zero_set(point_set, m) == fourier_zero_set(point_set, m, guard=m**d)
