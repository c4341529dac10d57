"""Property test: is_vanishing_sum agrees with long division by Phi_m."""

import pytest

from cyclotomic_oracle import ExponentMultiset, poly_divrem
from spectratile.cyclotomic import cyclotomic_polynomial, is_vanishing_sum

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def count_vectors():
    # A free count vector, plus a divisor and a flag that may make it periodic,
    # so that vanishing sums are drawn too.
    return st.integers(1, 60).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(0, 20), min_size=m, max_size=m),
            st.sampled_from([d for d in range(1, m + 1) if m % d == 0]),
            st.booleans(),
        )
    )


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(count_vectors())
def test_agrees_with_long_division(drawn):
    counts, step, periodic = drawn
    m = len(counts)
    if periodic:
        # Counts constant along each coset of the subgroup step*Z_m: a sum of
        # rotated (m/step)-gons, which vanishes whenever step < m.
        counts = [counts[j % step] for j in range(m)]
    _, rem = poly_divrem(tuple(counts), cyclotomic_polynomial(m))
    assert is_vanishing_sum(m, ExponentMultiset(m, tuple(counts)).exponents()) == (not rem)
