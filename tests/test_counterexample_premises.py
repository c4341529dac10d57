"""The counterexample bundle's derived fields must be the ones its premises give.

Each refusal case rebuilds the n = 2 bundle consistently around one tampered
field: everything downstream of it is recomputed from it, so only the check
of that field itself can refuse the bundle.  Each must then be refused with
an InvariantViolation that names the field.
"""

from dataclasses import replace

import pytest

from spectratile.certio import InvariantViolation, parse, serialize
from spectratile.counterexample import run_counterexample
from spectratile.modlinalg import IntMatrix, RankFactorization, matmul_mod
from spectratile.spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    cube_spectrum,
    verify_spectrum,
)
from spectratile.tiling import (
    DivisibilityObstruction,
    NonTilingCertificate,
    _obstruction_report,
    decide_m_tile,
)

N = 2


@pytest.fixture(scope="module")
def honest():
    envelope = run_counterexample(N).envelope
    assert envelope is not None
    return envelope


def rebuilt(envelope, **fields):
    return serialize(replace(envelope, payload=replace(envelope.payload, **fields)))


def with_base(envelope, base):
    """The bundle around another base spectrum, everything after it recomputed."""
    rec = envelope.payload
    m, d = base.group.modulus, base.group.dimension
    divisibility = decide_m_tile(base.set, base.group)
    composed = compose_spectral(base, cube_spectrum(N, d))
    return rebuilt(
        envelope,
        base_spectrum=base,
        base_non_tiling_divisibility=divisibility,
        base_non_tiling_search=decide_m_tile(base.set, base.group, divisibility_shortcut=False),
        composed_spectrum=composed,
        obstructions=_obstruction_report(base.set, m, N, divisibility),
    )


def test_the_honest_bundle_parses(honest):
    assert parse(serialize(honest)) == honest


def test_base_spectrum_over_a_translate_with_the_same_residues(honest):
    base = honest.payload.base_spectrum
    shifted = PointSet(base.set.dimension, tuple((p[0] + 3,) + p[1:] for p in base.set.points))
    tampered = SpectrumCertificate(base.group, shifted, base.spectrum)
    assert [[c % 3 for c in p] for p in shifted.points] == [
        [c % 3 for c in p] for p in base.set.points
    ]
    assert verify_spectrum(tampered)
    with pytest.raises(InvariantViolation, match="base spectrum"):
        parse(with_base(honest, tampered))


def test_base_spectrum_rows_permuted(honest):
    base = honest.payload.base_spectrum
    rows = base.spectrum.numerators.to_rows()
    permuted = IntMatrix.from_rows(rows[1:] + rows[:1])
    tampered = SpectrumCertificate(base.group, base.set, PhaseMatrix(permuted, 3))
    assert verify_spectrum(tampered)
    composed = compose_spectral(tampered, cube_spectrum(N, base.group.dimension))
    with pytest.raises(InvariantViolation, match="base spectrum"):
        parse(rebuilt(honest, base_spectrum=tampered, composed_spectrum=composed))


def test_search_certificate_for_another_six_point_set(honest):
    base = honest.payload.base_spectrum
    other = PointSet(4, tuple((i, 0, 0, i // 3) for i in range(6)))
    search = decide_m_tile(other, base.group, divisibility_shortcut=False)
    assert search.set != base.set
    with pytest.raises(InvariantViolation, match=r"base non.tiling \(?search"):
        parse(rebuilt(honest, base_non_tiling_search=search))


def test_divisibility_certificate_over_another_group(honest):
    """6 does not divide 2^4 either, so the obstruction holds for Z_2^4 too;
    the reason's recorded order then cannot belong to the derived Z_3^4."""
    rec = honest.payload
    base = rec.base_spectrum
    divisibility = NonTilingCertificate(GroupSpec(2, 4), base.set, DivisibilityObstruction(6, 16))
    obstructions = _obstruction_report(base.set, 3, N, divisibility)
    with pytest.raises(InvariantViolation, match=r"base non.tiling \(?divisibility"):
        parse(rebuilt(honest, base_non_tiling_divisibility=divisibility, obstructions=obstructions))


def test_non_tiling_certificates_swapped(honest):
    rec = honest.payload
    swapped = rebuilt(
        honest,
        base_non_tiling_divisibility=rec.base_non_tiling_search,
        base_non_tiling_search=rec.base_non_tiling_divisibility,
    )
    with pytest.raises(InvariantViolation, match="divisibility.*wrong reason"):
        parse(swapped)


def test_another_valid_computed_factorization_parses(honest):
    """The computed factorization is checked, not compared with the
    canonical one: (L U, U^-1 R) mod 3 for an invertible U also parses."""
    fact = honest.payload.computed_factorization
    u = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    u_inverse = IntMatrix.from_rows([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert matmul_mod(u, u_inverse, 3) == IntMatrix.identity(4)
    other = RankFactorization(
        modulus=3,
        left=matmul_mod(fact.left, u, 3),
        right=matmul_mod(u_inverse, fact.right, 3),
        rank=fact.rank,
    )
    assert other != fact
    parsed = parse(rebuilt(honest, computed_factorization=other))
    assert parsed.payload.computed_factorization == other
