"""Exact-cover tiling decisions and constructions in Z_m^d.

A set tiles the group when some complement of translates covers every cell
exactly once.  The decision procedure is a deterministic backtracking exact
cover: always branch on the lexicographically least uncovered cell, trying
the translates in the set's given point order.  Verdicts are certificates: a
tiling comes with its complement, a refusal comes with a reason that can be
re-checked (divisibility, a colliding residue pair) or replayed (an
exhausted search with its node count).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .guard import check_guard
from .modlinalg import IntMatrix, det_and_adjugate, matmul_mod, rank_over_rationals
from .spectral import GroupSpec, PointSet

__all__ = [
    "TilingCertificate",
    "NonTilingCertificate",
    "DivisibilityObstruction",
    "DuplicateResidues",
    "ExhaustedSearch",
    "IndependenceChain",
    "ExtensionObstructionReport",
    "ASYMPTOTIC_NON_TILING_CLAIM",
    "verify_tiling",
    "decide_m_tile",
    "compose_tile",
    "lift_tile",
    "independent_tile",
    "build_extension",
    "check_mod_reduction",
    "extension_obstructions",
]


@dataclass(frozen=True)
class TilingCertificate:
    """A set, a group, and the complement whose translates cover it exactly."""

    group: GroupSpec
    set: PointSet
    complement: PointSet

    def __post_init__(self) -> None:
        if self.set.dimension != self.group.dimension:
            raise ValueError("set dimension does not match the group")
        if self.complement.dimension != self.group.dimension:
            raise ValueError("complement dimension does not match the group")
        if len(self.set) * len(self.complement) != self.group.order():
            raise ValueError("set and complement sizes must multiply to the group order")


@dataclass(frozen=True)
class DivisibilityObstruction:
    set_size: int
    group_order: int

    def __post_init__(self) -> None:
        if self.set_size < 1 or self.group_order < 1:
            raise ValueError("sizes must be positive")
        if self.group_order % self.set_size == 0:
            raise ValueError("set size divides the group order; no obstruction")


@dataclass(frozen=True)
class DuplicateResidues:
    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", tuple(int(c) for c in self.first))
        object.__setattr__(self, "second", tuple(int(c) for c in self.second))
        if self.first == self.second:
            raise ValueError("colliding points must be distinct")


@dataclass(frozen=True)
class ExhaustedSearch:
    nodes: int

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("an exhausted search visits at least the root")


NonTilingReason = Union[DivisibilityObstruction, DuplicateResidues, ExhaustedSearch]


@dataclass(frozen=True)
class NonTilingCertificate:
    """Evidence that a set does not tile the group."""

    group: GroupSpec
    set: PointSet
    reason: NonTilingReason

    def __post_init__(self) -> None:
        if self.set.dimension != self.group.dimension:
            raise ValueError("set dimension does not match the group")
        m = self.group.modulus
        if isinstance(self.reason, DivisibilityObstruction):
            if self.reason.set_size != len(self.set):
                raise ValueError("recorded set size disagrees with the set")
            if self.reason.group_order != self.group.order():
                raise ValueError("recorded group order disagrees with the group")
        elif isinstance(self.reason, DuplicateResidues):
            a, b = self.reason.first, self.reason.second
            if a not in self.set.points or b not in self.set.points:
                raise ValueError("colliding points must belong to the set")
            if tuple(c % m for c in a) != tuple(c % m for c in b):
                raise ValueError("named points are not congruent mod m")
        elif not isinstance(self.reason, ExhaustedSearch):
            raise ValueError(f"unknown non-tiling reason {self.reason!r}")


def verify_tiling(cert: TilingCertificate) -> bool:
    """Re-check a tiling certificate by direct coverage counting."""
    m = cert.group.modulus
    if len(cert.set) * len(cert.complement) != cert.group.order():
        return False
    seen: set[tuple[int, ...]] = set()
    for sigma in cert.complement.points:
        for t in cert.set.points:
            cell = tuple((s + c) % m for s, c in zip(sigma, t))
            if cell in seen:
                return False
            seen.add(cell)
    return True


def _cell_index(cell: Sequence[int], m: int) -> int:
    idx = 0
    for c in cell:
        idx = idx * m + c
    return idx


def _cell_vector(idx: int, m: int, dimension: int) -> tuple[int, ...]:
    coords = []
    for _ in range(dimension):
        idx, r = divmod(idx, m)
        coords.append(r)
    return tuple(reversed(coords))


def _exact_cover(
    residues: Sequence[tuple[int, ...]], m: int, dimension: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """First exact cover in deterministic order, plus the visited node count.

    Branches on the lexicographically least uncovered cell; candidate
    translates follow the given point order.  Covered cells live in one big
    bitmask, lexicographic cell index = bit index.
    """
    order = m**dimension
    full = (1 << order) - 1
    mask_cache: dict[tuple[int, ...], int] = {}

    def placement_mask(sigma: tuple[int, ...]) -> int:
        mask = mask_cache.get(sigma)
        if mask is None:
            mask = 0
            for t in residues:
                mask |= 1 << _cell_index(tuple((s + c) % m for s, c in zip(sigma, t)), m)
            mask_cache[sigma] = mask
        return mask

    def branches(covered: int) -> Iterator[tuple[tuple[int, ...], int]]:
        low = ~covered & full
        cell = _cell_vector((low & -low).bit_length() - 1, m, dimension)
        for t in residues:
            sigma = tuple((a - b) % m for a, b in zip(cell, t))
            mask = placement_mask(sigma)
            if not mask & covered:
                yield sigma, mask

    nodes = 1  # the root state
    covered = 0
    if covered == full:
        return [], nodes
    trail: list[tuple[tuple[int, ...], int, Iterator[tuple[tuple[int, ...], int]]]] = []
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


def decide_m_tile(
    point_set: PointSet,
    group: GroupSpec,
    guard: int | None = None,
    *,
    divisibility_shortcut: bool = True,
) -> TilingCertificate | NonTilingCertificate:
    """Complete tiling decision for Z_m^d.

    Pipeline: reject duplicate residues, reject when the set size does not
    divide the group order (skipped when divisibility_shortcut is False, in
    which case the search itself exhausts), then run the exact-cover search.
    """
    if point_set.dimension != group.dimension:
        raise ValueError("set dimension does not match the group")
    m = group.modulus
    check_guard(group.order(), guard)

    residues: list[tuple[int, ...]] = []
    first_seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in point_set.points:
        res = tuple(c % m for c in p)
        if res in first_seen:
            return NonTilingCertificate(
                group, point_set, DuplicateResidues(first_seen[res], p)
            )
        first_seen[res] = p
        residues.append(res)

    if divisibility_shortcut and group.order() % len(point_set) != 0:
        return NonTilingCertificate(
            group,
            point_set,
            DivisibilityObstruction(len(point_set), group.order()),
        )

    solution, nodes = _exact_cover(residues, m, group.dimension)
    if solution is None:
        return NonTilingCertificate(group, point_set, ExhaustedSearch(nodes))
    complement = PointSet(group.dimension, tuple(sorted(solution)))
    return TilingCertificate(group, point_set, complement)


def compose_tile(cert_t: TilingCertificate, cert_s: TilingCertificate) -> TilingCertificate:
    """Combine an m-tile T and an n-tile S into the mn-tile T + mS.

    The composed complement is Sigma_T + m*Sigma_S reduced mod mn.  The
    result is re-verified by direct coverage counting before being returned;
    a verification failure is surfaced, never silently accepted.
    """
    if cert_t.set.dimension != cert_s.set.dimension:
        raise ValueError("composed certificates must share a dimension")
    if not verify_tiling(cert_t):
        raise ValueError("left certificate fails verification")
    if not verify_tiling(cert_s):
        raise ValueError("right certificate fails verification")
    m = cert_t.group.modulus
    n = cert_s.group.modulus
    d = cert_t.set.dimension
    gamma = tuple(
        tuple(tc + m * sc for tc, sc in zip(t, s))
        for t in cert_t.set.points
        for s in cert_s.set.points
    )
    if len(set(gamma)) != len(gamma):
        raise ValueError("composition collides: T + mS has repeated points")
    sigma = tuple(
        tuple((a + m * b) % (m * n) for a, b in zip(st, ss))
        for st in cert_t.complement.points
        for ss in cert_s.complement.points
    )
    if len(set(sigma)) != len(sigma):
        raise ValueError("composition collides: the combined complement has repeated points")
    composed = TilingCertificate(
        GroupSpec(m * n, d), PointSet(d, gamma), PointSet(d, sigma)
    )
    if not verify_tiling(composed):
        raise RuntimeError("composed tiling failed verification; implementation fault")
    return composed


def lift_tile(
    point_set: PointSet,
    transform: IntMatrix,
    base: TilingCertificate,
    guard: int | None = None,
) -> TilingCertificate:
    """Pull a tiling back through an integer linear map.

    If the columns of transform @ T are, mod m, exactly the base tiling's
    set (same order, pairwise distinct), then the preimage of the base
    complement under the transform tiles Z_m^d with T.  The preimage is
    found by full enumeration of Z_m^d and the result is re-verified.
    """
    if transform.cols != point_set.dimension:
        raise ValueError("transform width must equal the set dimension")
    if transform.rows != base.group.dimension:
        raise ValueError("transform height must equal the base group dimension")
    if not verify_tiling(base):
        raise ValueError("base certificate fails verification")
    m = base.group.modulus
    group = GroupSpec(m, point_set.dimension)
    check_guard(group.order(), guard)

    mapped = matmul_mod(transform, point_set.to_columns_matrix(), m)
    mapped_points = tuple(mapped.column(j) for j in range(mapped.cols))
    if len(set(mapped_points)) != len(mapped_points):
        raise ValueError("transformed points are not distinct mod m")
    base_points = tuple(tuple(c % m for c in p) for p in base.set.points)
    if mapped_points != base_points:
        raise ValueError("base certificate's set does not match transform @ T")

    base_complement = {tuple(c % m for c in p) for p in base.complement.points}
    d1 = base.group.dimension
    sigma = []
    for cell in group.elements():
        image = tuple(
            sum(transform.at(i, j) * cell[j] for j in range(transform.cols)) % m
            for i in range(d1)
        )
        if image in base_complement:
            sigma.append(cell)
    lifted = TilingCertificate(group, point_set, PointSet(group.dimension, tuple(sigma)))
    if not verify_tiling(lifted):
        raise RuntimeError("lifted tiling failed verification; implementation fault")
    return lifted


@dataclass(frozen=True)
class IndependenceChain:
    """The constructive chain proving a linearly independent set tiles.

    Project onto coordinates where the point matrix stays invertible, map
    the projected columns to an arithmetic progression with one integer row
    vector, observe that the progression tiles Z_M for M = k * |det|, then
    lift the tiling back up through both maps.
    """

    selected_rows: tuple[int, ...]
    determinant: int
    modulus: int
    row_transform: IntMatrix
    one_dimensional: TilingCertificate
    projected: TilingCertificate
    final: TilingCertificate

    def __post_init__(self) -> None:
        if self.determinant == 0:
            raise ValueError("determinant must be nonzero")
        if self.modulus != len(self.selected_rows) * abs(self.determinant):
            raise ValueError("modulus must equal k * |det|")


def _projection_matrix(selected_rows: Sequence[int], dimension: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[1 if j == r else 0 for j in range(dimension)] for r in selected_rows]
    )


def independent_tile(point_set: PointSet, guard: int | None = None) -> IndependenceChain:
    """Build a verified tiling certificate for a linearly independent set.

    The k points must be linearly independent over the rationals.  The
    returned chain carries every intermediate certificate: the arithmetic
    progression in Z_M, the projected tiling in Z_M^k, and the final tiling
    in Z_M^d, each re-verified by coverage counting.
    """
    k = len(point_set)
    d = point_set.dimension
    columns = point_set.to_columns_matrix()
    if rank_over_rationals(columns) != k:
        raise ValueError("points are not linearly independent over the rationals")

    selected: list[int] = []
    chosen_rows: list[list[int]] = []
    for i in range(d):
        candidate = chosen_rows + [list(columns.row(i))]
        if rank_over_rationals(IntMatrix.from_rows(candidate)) > len(chosen_rows):
            selected.append(i)
            chosen_rows.append(list(columns.row(i)))
        if len(selected) == k:
            break
    block = IntMatrix.from_rows(chosen_rows)

    det, adjugate = det_and_adjugate(block)
    big_d = abs(det)
    modulus = k * big_d
    check_guard(modulus**d, guard)

    indices = IntMatrix(1, k, tuple(range(k)))
    sign = 1 if det > 0 else -1
    row_transform = IntMatrix(
        1, k, tuple(sign * x for x in matmul_mod(indices, adjugate, None).entries)
    )
    progression = matmul_mod(row_transform, block, None)
    assert progression.entries == tuple(big_d * i for i in range(k))

    one_dim = TilingCertificate(
        GroupSpec(modulus, 1),
        PointSet(1, tuple((big_d * i,) for i in range(k))),
        PointSet(1, tuple((s,) for s in range(big_d))),
    )
    if not verify_tiling(one_dim):
        raise RuntimeError("progression tiling failed verification; implementation fault")

    projected_set = PointSet(k, tuple(block.column(j) for j in range(k)))
    projected = lift_tile(projected_set, row_transform, one_dim, guard)
    final = lift_tile(point_set, _projection_matrix(selected, d), projected, guard)
    return IndependenceChain(
        selected_rows=tuple(selected),
        determinant=det,
        modulus=modulus,
        row_transform=row_transform,
        one_dimensional=one_dim,
        projected=projected,
        final=final,
    )


def build_extension(point_set: PointSet, m: int, n: int) -> PointSet:
    """The extension T + m*[0,n)^d of a set T contained in [0,m)^d."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if n < 1:
        raise ValueError(f"side count must be positive, got {n}")
    for p in point_set.points:
        if any(not 0 <= c < m for c in p):
            raise ValueError(f"point {p} lies outside [0, {m})^d")
    cube = GroupSpec(n, point_set.dimension).elements()
    offsets = list(cube)
    points = tuple(
        tuple(tc + m * vc for tc, vc in zip(t, v))
        for t in point_set.points
        for v in offsets
    )
    return PointSet(point_set.dimension, points)


def _reduction_multiplicity(big: PointSet, m: int, base: PointSet) -> int | None:
    counts = Counter(tuple(c % m for c in p) for p in big.points)
    base_residues = {tuple(c % m for c in p) for p in base.points}
    if set(counts) != base_residues:
        return None
    multiplicities = set(counts.values())
    if len(multiplicities) != 1:
        return None
    return multiplicities.pop()


def check_mod_reduction(big: PointSet, m: int, base: PointSet) -> bool:
    """Whether big reduces mod m onto exactly base's residues, uniformly."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    return _reduction_multiplicity(big, m, base) is not None


ASYMPTOTIC_NON_TILING_CLAIM = (
    "the base set is not a tile of Z_m^d, so the extension T + m*[0,n)^d is "
    "not a tile of Z^d once the side count n is sufficiently large; this "
    "asymptotic statement is recorded as a cited claim with the finite "
    "evidence above, not machine-verified"
)


@dataclass(frozen=True)
class ExtensionObstructionReport:
    """Finite, re-checkable obstructions attached to an extension T + m*[0,n)^d."""

    modulus: int
    side_count: int
    dimension: int
    base_size: int
    extension_size: int
    extended_group_order: int
    size_divides: bool
    reduction_uniform: bool
    reduction_multiplicity: int | None
    base_verdict: TilingCertificate | NonTilingCertificate
    asymptotic_claim: str | None


def extension_obstructions(
    point_set: PointSet, m: int, n: int, guard: int | None = None
) -> ExtensionObstructionReport:
    """Assemble the finite obstruction evidence for the extension of a set.

    Reports whether the extension's size divides the extended group order,
    the complete tiling verdict for the base set in Z_m^d, and whether the
    extension reduces mod m onto the base with uniform multiplicity.  When
    the base verdict is negative the report also records, as a cited claim,
    that the extension is not a tile of Z^d for all sufficiently large side
    counts; that asymptotic step is not machine-verified.
    """
    d = point_set.dimension
    extension = build_extension(point_set, m, n)
    verdict = decide_m_tile(point_set, GroupSpec(m, d), guard)
    multiplicity = _reduction_multiplicity(extension, m, point_set)
    extended_order = (m * n) ** d
    return ExtensionObstructionReport(
        modulus=m,
        side_count=n,
        dimension=d,
        base_size=len(point_set),
        extension_size=len(extension),
        extended_group_order=extended_order,
        size_divides=extended_order % len(extension) == 0,
        reduction_uniform=multiplicity is not None,
        reduction_multiplicity=multiplicity,
        base_verdict=verdict,
        asymptotic_claim=(
            ASYMPTOTIC_NON_TILING_CLAIM
            if isinstance(verdict, NonTilingCertificate)
            else None
        ),
    )
