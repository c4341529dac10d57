"""Exact-cover tiling decisions and constructions in Z_m^d.

A set tiles the group when some complement of translates covers every cell
exactly once.  The decision procedure is a deterministic backtracking exact
cover: always branch on the lexicographically least uncovered cell, trying
the translates in the set's given point order.  Verdicts are certificates: a
tiling comes with its complement, a refusal comes with a reason that can be
re-checked (divisibility, a colliding residue pair) or replayed (an
exhausted search with its node count; see replay_search).

The search, lifts and coverage checks build no cell tuple they do not
keep.  There a cell of Z_m^d is a packed integer, its lexicographic index.
The search keeps, per cell it has branched on, a row of the placements
that cover that cell with their cell bitmasks, so a node is one bit scan
and one AND per placement tried.  A row is the k difference shapes T - t,
stacked in one int, translated by the cell with spectral's _Torus and cut
into k masks: O(k * m^d) bit work.
In the lifts and coverage checks each coordinate's wrap table turns a sum
of two residues into that coordinate's reduced term of the index, so a
translate or an image is one table lookup per coordinate.
verify_tiling counts the packed cells of every translate, and lift_tile
walks Z_m^d one prefix (all coordinates but the last) at a time, deciding
the prefix's m cells at once against the packed base complement.

Every construction checks its inputs, never its output, and raises
ValueError on a bad input.  compose_tile verifies its two inputs and never
its product: the tiling lemma (in its docstring) makes the premises prove
the result, and they have m^d + n^d cells against the product's (mn)^d.
lift_tile verifies its base and never the lifted tiling: the pullback lemma
(in its docstring) proves it, and the base has m^d1 cells against the
lift's m^d.  independent_tile builds the premises of one such pullback: the
rows and the determinant come from one elimination, the map onto Z_M from
Cramer's rule, and the chain's tiling of Z_M^d is one lift of the tiling of
Z_M.  Certificates from outside are verified where they enter, in
certio.parse.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from typing import Iterator, Sequence, Union

from .guard import check_power_guard
from .modlinalg import IntMatrix, _bareiss, _det_bareiss, matmul_mod
from .spectral import GroupSpec, PointSet, _Torus, composed_set

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
    "replay_search",
    "compose_tile",
    "lift_tile",
    "independent_tile",
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
        if not self.group.has_order(len(self.set) * len(self.complement)):
            raise ValueError("set and complement sizes must multiply to the group order")


@dataclass(frozen=True)
class DivisibilityObstruction:
    set_size: int
    group_order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "set_size", operator.index(self.set_size))
        object.__setattr__(self, "group_order", operator.index(self.group_order))
        if self.set_size < 1 or self.group_order < 1:
            raise ValueError("sizes must be positive")
        if self.group_order % self.set_size == 0:
            raise ValueError("set size divides the group order; no obstruction")


@dataclass(frozen=True)
class DuplicateResidues:
    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", tuple(map(operator.index, self.first)))
        object.__setattr__(self, "second", tuple(map(operator.index, self.second)))
        if self.first == self.second:
            raise ValueError("colliding points must be distinct")


@dataclass(frozen=True)
class ExhaustedSearch:
    nodes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", operator.index(self.nodes))
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
            if not self.group.has_order(self.reason.group_order):
                raise ValueError("recorded group order disagrees with the group")
        elif isinstance(self.reason, DuplicateResidues):
            a, b = self.reason.first, self.reason.second
            if a not in self.set.points or b not in self.set.points:
                raise ValueError("colliding points must belong to the set")
            if tuple(c % m for c in a) != tuple(c % m for c in b):
                raise ValueError("named points are not congruent mod m")
        elif not isinstance(self.reason, ExhaustedSearch):
            raise ValueError(f"unknown non-tiling reason {self.reason!r}")


def _wraps(m: int, dimension: int) -> list[list[int]]:
    """One wrap table per coordinate of Z_m^dimension.

    A coordinate sum a + b with a, b in [0, m) indexes its table, which
    holds the sum's residue times the coordinate's stride in the packed
    (lexicographic) cell index.
    """
    strides = (m ** (dimension - 1 - j) for j in range(dimension))
    return [list(range(0, m * stride, stride)) * 2 for stride in strides]


def _residue_columns(points: PointSet, m: int) -> list[list[int]]:
    return [[c % m for c in column] for column in zip(*points.points)]


def _packed(
    wraps: Sequence[list[int]], offsets: Sequence[int], columns: Sequence[list[int]]
) -> Iterator[int]:
    """Packed indices of the cells offsets + column entries, one per entry.

    Offsets and column entries are residues; each coordinate's sum is
    reduced and weighted by one lookup in its wrap table.
    """
    terms = [
        map(wrap.__getitem__, map(offset.__add__, column))
        for wrap, offset, column in zip(wraps, offsets, columns)
    ]
    cells = terms[0]
    for term in terms[1:]:
        cells = map(operator.add, cells, term)
    return cells


def verify_tiling(cert: TilingCertificate) -> bool:
    """Re-check a tiling certificate by direct coverage counting.

    Each translate's cells are counted as packed integer indices; the
    certificate's constructor makes the sizes multiply to the group order,
    so the translates tile exactly when no index repeats.
    """
    m = cert.group.modulus
    size = len(cert.complement)
    wraps = _wraps(m, cert.group.dimension)
    columns = _residue_columns(cert.complement, m)
    seen: set[int] = set()
    for count, t in enumerate(cert.set.points, 1):
        seen.update(_packed(wraps, [c % m for c in t], columns))
        if len(seen) != count * size:
            return False
    return True


def _exact_cover(
    residues: Sequence[tuple[int, ...]], m: int, dimension: int, limit: int | None = None
) -> tuple[list[tuple[int, ...]] | None, int]:
    """First exact cover in deterministic order, plus the visited node count.

    Branches on the lexicographically least uncovered cell; candidate
    placements follow the given point order.  Cells are packed
    lexicographic indices, and covered cells live in one bitmask, cell
    index = bit index.  Point t placed at cell c is the translate sigma =
    c - t, which covers c + (T - t); so a cell's row is the k difference
    shapes T - t, in point order, each translated by c.  The shapes are
    built once, each one translate of T's mask, and stacked in one int at
    byte-aligned offsets.  A row is then one _Torus translate of the whole
    stack (d block rotations) cut into its k masks by one to_bytes: O(k *
    m^d) bit work.  A row is built the first time the search branches on
    its cell, and equal masks are shared between rows, so the table grows
    with the cells branched on, not with order * k.  A node costs one bit
    scan for its cell plus one AND per row entry tried; the residues must be
    distinct mod m.  The translates sigma are computed only for the cover
    returned, each from the cell its state branched on.

    With a limit, the search stops without a cover as soon as it visits
    node limit + 1, and returns that count.
    """
    stop = 0 if limit is None else limit + 1  # nodes never returns to 0
    full = (1 << m**dimension) - 1
    single = _Torus(m, dimension)
    shape = sum(1 << single.index(t) for t in residues)
    torus = _Torus(m, dimension, len(residues))
    stack = torus.stack(single.translate(shape, [-c for c in t]) for t in residues)
    masks: dict[int, int] = {}
    rows: dict[int, list[tuple[int, int]]] = {}

    def row(cell: int) -> list[tuple[int, int]]:
        cut = torus.unstack(torus.translate(stack, torus.row(cell)))
        rows[cell] = entries = list(enumerate(map(masks.setdefault, cut, cut)))
        return entries

    nodes = 1  # the root state
    covered = 0
    trail: list[tuple[int, Iterator[tuple[int, int]], int]] = []
    entries = iter(row(0))
    while True:
        for i, mask in entries:
            if not mask & covered:
                break
        else:
            if not trail:
                return None, nodes
            covered, entries, _ = trail.pop()
            continue
        trail.append((covered, entries, i))
        covered |= mask
        nodes += 1
        if nodes == stop:
            return None, nodes
        if covered == full:
            # Each placement was made at the least cell its state left uncovered.
            cells = (torus.row((before ^ (before + 1)).bit_length() - 1) for before, _, _ in trail)
            return [
                tuple((c - u) % m for c, u in zip(cell, residues[i]))
                for cell, (_, _, i) in zip(cells, trail)
            ], nodes
        # covered ^ (covered + 1) sets the bits up to the least uncovered cell.
        cell = (covered ^ (covered + 1)).bit_length() - 1
        entries = iter(rows.get(cell) or row(cell))


def _distinct_residues(
    point_set: PointSet, m: int
) -> list[tuple[int, ...]] | DuplicateResidues:
    """The points' residues mod m, or the first pair of points that collide."""
    residues: list[tuple[int, ...]] = []
    first_seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in point_set.points:
        res = tuple(c % m for c in p)
        if res in first_seen:
            return DuplicateResidues(first_seen[res], p)
        first_seen[res] = p
        residues.append(res)
    return residues


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
    check_power_guard(group.modulus, group.dimension, guard)
    residues = _distinct_residues(point_set, group.modulus)
    if isinstance(residues, DuplicateResidues):
        return NonTilingCertificate(group, point_set, residues)

    if divisibility_shortcut and group.order() % len(point_set) != 0:
        return NonTilingCertificate(
            group,
            point_set,
            DivisibilityObstruction(len(point_set), group.order()),
        )

    solution, nodes = _exact_cover(residues, group.modulus, group.dimension)
    if solution is None:
        return NonTilingCertificate(group, point_set, ExhaustedSearch(nodes))
    complement = PointSet(group.dimension, tuple(sorted(solution)))
    return TilingCertificate(group, point_set, complement)


def replay_search(cert: NonTilingCertificate, guard: int | None = None) -> bool:
    """Re-run the exhausted search a certificate records and compare.

    The search is decide_m_tile's with the divisibility shortcut disabled;
    the replay holds when it exhausts after exactly the recorded node count.
    It stops as soon as it passes that count, so a replay costs no more
    nodes than the certificate claims, plus one.
    """
    if not isinstance(cert.reason, ExhaustedSearch):
        raise ValueError("only an exhausted-search certificate can be replayed")
    check_power_guard(cert.group.modulus, cert.group.dimension, guard)
    residues = _distinct_residues(cert.set, cert.group.modulus)
    if isinstance(residues, DuplicateResidues):
        return False
    claimed = cert.reason.nodes
    solution, nodes = _exact_cover(
        residues, cert.group.modulus, cert.group.dimension, limit=claimed
    )
    return solution is None and nodes == claimed


def compose_tile(cert_t: TilingCertificate, cert_s: TilingCertificate) -> TilingCertificate:
    """Combine an m-tile T and an n-tile S into the mn-tile T + mS.

    The composed complement is Sigma_T + m*Sigma_S reduced mod mn.  The
    composed order is checked against the configured guard before anything
    is built.  Both inputs are then verified by direct coverage counting
    (m^d + n^d cells, not (mn)^d); a bad input fails that check with
    ValueError.  The result is not verified, because the tiling lemma
    proves it:

    If T + A = Z_m^d and S + B = Z_n^d are tilings, then
    (T + mS) + (A + mB) = Z_mn^d is a tiling.  (Reduce mod m first: every g
    is t + a mod m for one t and a, and (g - t - a)/m is s + b mod n for one
    s and b, so g = (t + m*s) + (a + m*b) mod mn.  Reduce a second such sum
    mod m to get the same t and a, then divide by m to get the same s and b.)
    """
    m = cert_t.group.modulus
    n = cert_s.group.modulus
    group = GroupSpec(m * n, cert_t.group.dimension)
    check_power_guard(group.modulus, group.dimension)
    if not verify_tiling(cert_t):
        raise ValueError("left tiling fails verification")
    if not verify_tiling(cert_s):
        raise ValueError("right tiling fails verification")
    gamma = composed_set(cert_t.set, cert_s.set, m)
    sigma = composed_set(cert_t.complement, cert_s.complement, m).reduced_mod(m * n)
    return TilingCertificate(group, gamma, sigma)


def lift_tile(
    point_set: PointSet,
    transform: IntMatrix,
    base: TilingCertificate,
    guard: int | None = None,
) -> TilingCertificate:
    """Pull a tiling back through an integer linear map.

    If the columns of transform @ T are, mod m, exactly the base tiling's
    set (same order), then the preimage of the base complement under the
    transform tiles Z_m^d with T.  The base is verified (m^d1 cells); a base
    that is not a tiling fails that check with ValueError.  The result is
    not verified, because the pullback lemma proves it:

    Let phi: G -> H be a group homomorphism that is injective on T, and let
    phi(T) + C = H be a tiling.  Then T + phi^-1(C) = G is a tiling.  (Every
    g has phi(g) = phi(t) + c for one t and c, so g - t lies in phi^-1(C);
    and t + x = t' + x' with x, x' in phi^-1(C) gives phi(t) + phi(x) =
    phi(t') + phi(x'), so phi(t) = phi(t') by uniqueness in H, t = t' by
    injectivity on T, and then x = x'.)

    Here G = Z_m^d, H = Z_m^d1 and phi(x) = transform @ x mod m, which is
    injective on T because the base set's residues are distinct: a tiling
    covers each cell once.

    Z_m^d is walked one prefix (all coordinates but the last) at a time, in
    lexicographic order.  A prefix's image is computed once per image row;
    its m cells are then decided together from the last column's residues,
    each row's wrap table and the packed indices of the base complement, so
    no cell outside the preimage is built.  Memory is O(m * d1) plus the
    output.
    """
    if transform.cols != point_set.dimension:
        raise ValueError("transform width must equal the set dimension")
    if transform.rows != base.group.dimension:
        raise ValueError("transform height must equal the base group dimension")
    m = base.group.modulus
    d = point_set.dimension
    group = GroupSpec(m, d)
    check_power_guard(m, d, guard)

    mapped = matmul_mod(transform, point_set.to_columns_matrix(), m)
    mapped_points = tuple(mapped.column(j) for j in range(mapped.cols))
    base_points = tuple(tuple(c % m for c in p) for p in base.set.points)
    if mapped_points != base_points:
        raise ValueError("base certificate's set does not match transform @ T")
    if not verify_tiling(base):
        raise ValueError("base tiling fails verification")

    d1 = base.group.dimension
    wraps = _wraps(m, d1)
    targets = set(_packed(wraps, [0] * d1, _residue_columns(base.complement, m)))
    rows = [transform.row(i) for i in range(d1)]
    heads = [row[:-1] for row in rows]
    last = [[row[-1] * t % m for t in range(m)] for row in rows]
    sigma: list[tuple[int, ...]] = []
    for prefix in product(range(m), repeat=d - 1):
        image = [sum(a * x for a, x in zip(head, prefix)) % m for head in heads]
        hits = map(targets.__contains__, _packed(wraps, image, last))
        sigma += [prefix + (t,) for t in compress(range(m), hits)]
    return TilingCertificate(group, point_set, PointSet(d, tuple(sigma)))


@dataclass(frozen=True)
class IndependenceChain:
    """Why a linearly independent set A of k points tiles Z_M^d, as premises.

    The pullback lemma (in lift_tile's docstring) applies with G = Z_M^d,
    H = Z_M and phi(x) = row_transform . x[selected_rows] mod M.  The
    selected rows of the point matrix form an invertible k x k block with
    the given determinant; row_transform solves r . block =
    |det| * (0, 1, ..., k - 1), so phi maps the i-th point to |det| * i.
    That progression tiles Z_M, M = k * |det|, with complement [0, |det|):
    the one_dimensional certificate.

    Only these premises are stored.  The tiling they imply, final, of
    Z_M^d, is built on demand: one lift_tile of one_dimensional through phi
    as a 1 x d matrix, row_transform at the selected columns and 0
    elsewhere.  It walks Z_M^d once, within the order modulus**dimension
    that independent_tile or parse admitted, the first time it is read.
    lift_tile verifies the M-cell tiling it pulls back, so final is not
    verified itself: the lemma proves it.
    """

    set: PointSet
    selected_rows: tuple[int, ...]
    determinant: int
    modulus: int
    row_transform: IntMatrix
    one_dimensional: TilingCertificate

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected_rows", tuple(map(operator.index, self.selected_rows)))
        object.__setattr__(self, "determinant", operator.index(self.determinant))
        object.__setattr__(self, "modulus", operator.index(self.modulus))
        if self.determinant == 0:
            raise ValueError("determinant must be nonzero")
        if self.modulus != len(self.selected_rows) * abs(self.determinant):
            raise ValueError("modulus must equal k * |det|")

    @cached_property
    def final(self) -> TilingCertificate:
        """The tiling of Z_M^d by the set itself."""
        d = self.set.dimension
        weights = dict(zip(self.selected_rows, self.row_transform.entries))
        phi = IntMatrix(1, d, tuple(weights.get(j, 0) for j in range(d)))
        return lift_tile(self.set, phi, self.one_dimensional, self.modulus**d)


def independent_tile(point_set: PointSet, guard: int | None = None) -> IndependenceChain:
    """Certify that a linearly independent set tiles Z_M^d.

    The k points must be linearly independent over the rationals.  One
    fraction-free elimination of the k x d matrix with the points as rows
    gives both the selected rows and the determinant.  The selected rows
    are its pivot columns: the first maximal independent columns, scanning
    left to right, so each coordinate is selected exactly when it is
    independent of those before it (the greedy rule).  Its signed last
    pivot is the determinant of the block of those k rows of the point
    matrix, and M = k * |det|.  The guard admits the order M**d.  Cramer's
    rule gives the row vector r with r . block = |det| * (0, ..., k - 1):
    r_i = sign(det) * det(block with row i replaced by (0, ..., k - 1)), so
    phi(x) = r . x[selected] mod M maps the points onto that progression of
    Z_M, and the progression's tiling of Z_M is verified.  The pullback
    lemma (if phi: G -> H is injective on A and phi(A) + C = H, then
    A + phi^-1(C) = G; see lift_tile) then makes the set tile Z_M^d.
    Nothing here walks Z_M^d.
    """
    k = len(point_set)
    d = point_set.dimension
    points = point_set.points
    selected, det = _bareiss([list(p) for p in points])
    if len(selected) != k:
        raise ValueError("points are not linearly independent over the rationals")
    big_d = abs(det)
    modulus = k * big_d
    # M comes from the coordinates, and M**d can have millions of digits.
    check_power_guard(modulus, d, guard)

    sign = 1 if det > 0 else -1
    block = [[p[r] for p in points] for r in selected]
    weights = []
    for i in range(k):
        # _det_bareiss works in place, so each call gets fresh rows.
        rows = [list(row) for row in block]
        rows[i] = list(range(k))
        weights.append(sign * _det_bareiss(rows))
    progression = [sum(w * p[r] for w, r in zip(weights, selected)) for p in points]
    assert progression == [big_d * i for i in range(k)]

    one_dim = TilingCertificate(
        GroupSpec(modulus, 1),
        PointSet(1, tuple((big_d * i,) for i in range(k))),
        PointSet(1, tuple((s,) for s in range(big_d))),
    )
    if not verify_tiling(one_dim):
        raise RuntimeError("progression tiling failed verification; implementation fault")
    return IndependenceChain(
        set=point_set,
        selected_rows=tuple(selected),
        determinant=det,
        modulus=modulus,
        row_transform=IntMatrix(1, k, tuple(weights)),
        one_dimensional=one_dim,
    )


ASYMPTOTIC_NON_TILING_CLAIM = (
    "the base set is not a tile of Z_m^d, so the extension T + m*[0,n)^d is "
    "not a tile of Z^d once the side count n is sufficiently large; this "
    "asymptotic statement is recorded as a cited claim with the finite "
    "evidence above, not machine-verified"
)


@dataclass(frozen=True)
class ExtensionObstructionReport:
    """Finite, re-checkable obstructions attached to an extension T + m*[0,n)^d.

    All but the base verdict is arithmetic, proved by _obstruction_report's lemma.
    """

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
    """The finite obstruction evidence for the extension T + m*[0,n)^d.

    T must lie in [0, m)^d, so _obstruction_report's lemma gives the sizes
    and the mod-m reduction: nothing of size n^d is built.  The base is
    decided in Z_m^d within the guard.  A negative verdict adds the cited,
    not machine-verified, claim that the extension does not tile Z^d for
    all sufficiently large n.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if n < 1:
        raise ValueError(f"side count must be positive, got {n}")
    for p in point_set.points:
        if any(not 0 <= c < m for c in p):
            raise ValueError(f"point {p} lies outside [0, {m})^d")
    verdict = decide_m_tile(point_set, GroupSpec(m, point_set.dimension), guard)
    return _obstruction_report(point_set, m, n, verdict)


def _obstruction_report(
    point_set: PointSet, m: int, n: int, verdict: TilingCertificate | NonTilingCertificate
) -> ExtensionObstructionReport:
    """The report on T + m*[0,n)^d by arithmetic, given the base verdict.

    If the k points of T have distinct residues mod m (the caller's premise;
    any T in [0, m)^d has), T + m*[0,n)^d has k * n^d points and hits each
    residue of T exactly n^d times: x = t + m*s fixes t as x's residue, then s.
    """
    d = point_set.dimension
    multiplicity = n**d
    extension_size = len(point_set) * multiplicity
    extended_order = (m * n) ** d
    claim = ASYMPTOTIC_NON_TILING_CLAIM if isinstance(verdict, NonTilingCertificate) else None
    return ExtensionObstructionReport(
        modulus=m,
        side_count=n,
        dimension=d,
        base_size=len(point_set),
        extension_size=extension_size,
        extended_group_order=extended_order,
        size_divides=extended_order % extension_size == 0,
        reduction_uniform=True,
        reduction_multiplicity=multiplicity,
        base_verdict=verdict,
        asymptotic_claim=claim,
    )
