"""Exact-cover tiling decisions and constructions in Z_m^d.

A set tiles the group when some complement of translates covers every cell
exactly once.  The decision procedure is a deterministic backtracking exact
cover: branch on the lexicographically least uncovered cell, trying the
translates in the set's given point order.  decide_m_tile fixes the root to
the first point's placement at cell 0, since a tiling stays a tiling under
translation (the lemma is in _exact_cover's docstring); with its
divisibility shortcut off it tries every root placement, the lex rule.
Verdicts are certificates: a tiling comes with its complement, a refusal
comes with a reason that can be re-checked (divisibility, a colliding
residue pair) or replayed (an exhausted search with its node count and
rule; see replay_search).

The search, lifts and coverage checks work on cell bitmasks, bit j the
j-th cell of Z_m^d in lexicographic order, and spectral's _Torus does all
the cell arithmetic; _exact_cover's docstring describes the search's rows.

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
from typing import Iterable, Iterator, Sequence

from .guard import _power_within, _within, check_power_guard, resolve_guard
from .modlinalg import IntMatrix, _bareiss, _det_bareiss, matmul_mod
from .spectral import GroupSpec, PointSet, _cell_mask, _cells, _proven, _sums, _torus, _Torus
from .spectral import composed_set

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
    """An exact-cover search that found no cover, and the rule it ran by.

    "lex" branches on the least uncovered cell from the root on; "rooted"
    also fixes the root to the first point's placement (see _exact_cover).
    """

    nodes: int
    rule: str = "lex"

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", operator.index(self.nodes))
        if self.nodes < 1:
            raise ValueError("an exhausted search visits at least the root")
        if self.rule not in ("lex", "rooted"):
            raise ValueError(f"unknown search rule {self.rule!r}")


@dataclass(frozen=True)
class NonTilingCertificate:
    """Evidence that a set does not tile the group."""

    group: GroupSpec
    set: PointSet
    reason: DivisibilityObstruction | DuplicateResidues | ExhaustedSearch

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


def verify_tiling(cert: TilingCertificate) -> bool:
    """Re-check a tiling certificate on cell bitmasks (see _coverage)."""
    return _coverage(cert) is not None


def _coverage(cert: TilingCertificate) -> tuple[_Torus, int] | None:
    """The group's _Torus and the complement's mask if the certificate tiles, else None.

    The translates t + C of the complement's mask must be pairwise disjoint
    and together cover every cell: k translates of m^d bits, one bit per
    cell.  A complement that repeats a residue has fewer bits and leaves a
    cell uncovered.
    """
    torus = _torus(cert.group.modulus, cert.group.dimension)
    complement = torus.mask(zip(*cert.complement.points))
    covered = 0
    for t in cert.set.points:
        cells = torus.translate(complement, t)
        if cells & covered:
            return None
        covered |= cells
    return (torus, complement) if covered == torus.full else None


def _exact_cover(
    residues: Sequence[tuple[int, ...]] | dict[int, tuple[int, ...]],
    m: int,
    dimension: int,
    limit: int | None = None,
    *,
    rooted: bool = False,
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
    stack (d block rotations), cut into its k masks by one to_bytes: O(k *
    m^d) bit work.  The single-copy and k-copy tori come from a small cache
    (see _torus), so a search in a group seen before builds neither.  A row
    is built the first time the search branches on its cell, and holds its
    masks alone, equal masks shared between rows, so the table grows with
    the cells branched on, not with order * k.  A node costs one bit scan
    for its cell plus one AND per mask tried; the residues must be distinct
    mod m.  A row keeps only the masks whose least cell is its cell, by the
    anchoring lemma: a node branches on its least uncovered cell c, so a
    mask holding a cell below c fails its AND at every node branching on c.

    residues lists the points in order, reduced or not; _decide passes
    instead the dict its one pass over them built, each point under its
    cell index.  T's mask is set from those indices.

    The trail keeps each state's covered cells and its row iterator, and no
    point index.  placement reads the cover back: state j branched on the
    least cell c it left uncovered and placed the mask by which state j + 1
    grew, c - t for the first point t whose shape T - t is that mask moved
    by -c.  That is the point the search tried: an equal mask further on
    leads to the same subtree, so it is reached only once the first failed.

    With a limit, the search stops without a cover as soon as it visits
    node limit + 1, and returns that count.

    Rooted, the root tries only the first point's placement at cell 0, the
    translate -t_0; every other node branches as before.  The search stays
    complete by the translation lemma:

    If T + C = Z_m^d is a tiling, then so is T + (C + g) for every g, and
    for some g the first point t_0 covers cell 0 in it.  (Cell 0 is
    sigma + t_i for one sigma in C and one i.  Take g = -t_0 - sigma: then
    -t_0 = sigma + g lies in C + g, and t_0 + (-t_0) = 0.  Translating by g
    permutes Z_m^d, so the translates of T still cover each cell once.)

    So if some tiling exists, one places t_0 at cell 0, and the rooted
    search finds a tiling exactly when the unrooted one does.  Its tree is
    the unrooted tree's first root branch, so it returns the same cover and
    never more nodes.  Cell 0 is covered below the root, so its row is
    never built.
    """
    stop = 0 if limit is None else limit + 1  # nodes never returns to 0
    if not isinstance(residues, dict):
        residues = dict(zip(_cells(zip(*residues), m), residues))
    single = _torus(m, dimension)
    full = single.full
    shape = _cell_mask(residues, single.width)
    residues = list(residues.values())
    torus = _torus(m, dimension, len(residues))
    shapes = [single.translate(shape, map(operator.neg, t)) for t in residues]
    stack = torus.stack(shapes)
    masks: dict[int, int] = {}
    rows: dict[int, Iterable[int]] = {}

    def row(cell: int) -> Iterable[int]:
        cut = torus.unstack(torus.translate(stack, torus.row(cell)), (1 << cell) - 1)
        # An empty row is kept as an empty iterator, which is truthy, so it is built once.
        rows[cell] = entries = list(map(masks.setdefault, cut, cut)) or iter(())
        return entries

    def placement(before: int, after: int) -> tuple[int, ...]:
        at = torus.row((before ^ (before + 1)).bit_length() - 1)
        t = residues[shapes.index(single.translate(after ^ before, map(operator.neg, at)))]
        return tuple((c - u) % m for c, u in zip(at, t))

    nodes = 1  # the root state
    covered = 0
    trail: list[tuple[int, Iterator[int]]] = []
    entries = iter(shapes[:1] if rooted else row(0))  # rooted, T - t_0 at cell 0 alone
    while True:
        for mask in entries:
            if not mask & covered:
                break
        else:
            if not trail:
                return None, nodes
            covered, entries = trail.pop()
            continue
        trail.append((covered, entries))
        covered |= mask
        nodes += 1
        if nodes == stop:
            return None, nodes
        if covered == full:
            states = [before for before, _ in trail] + [full]
            return list(map(placement, states, states[1:])), nodes
        # covered ^ (covered + 1) sets the bits up to the least uncovered cell.
        cell = (covered ^ (covered + 1)).bit_length() - 1
        entries = iter(rows.get(cell) or row(cell))


def _decide(
    point_set: PointSet,
    group: GroupSpec,
    guard: int | None,
    rule: str,
    claim: int | None = None,
) -> TilingCertificate | NonTilingCertificate:
    """The certificate the exact-cover search by this rule gives the set.

    The guard bounds the m^d cells of the group first.  One pass over the
    points gives their cell indices, with no torus and no int of m^d bits,
    and refuses duplicate residues: the first point whose index repeats,
    with the earlier one.  Then, by the rooted rule with no claim, a set
    size that does not divide the group order is refused.  Before the
    search builds anything the guard bounds the k * m^d bits of its k-copy
    stack and of each row; the search sets T's mask from the same indices.
    With a claim the search stops at node claim + 1.

    _proven builds what the search proves: the set has the group's
    dimension (decide_m_tile checks it; replay_search's record holds it), an
    exhausted search counted its root under the rule asked for, and a
    tiling's k translates cover the m^d cells once each, so k * |C| = m^d.
    """
    limit = resolve_guard(guard)
    m, d, points = group.modulus, group.dimension, point_set.points
    _power_within(m, d, limit)
    cells: dict[int, tuple[int, ...]] = {}  # each point under its cell index, in order
    for j, p in zip(_cells(zip(*points), m), points):
        if cells.setdefault(j, p) is not p:
            return NonTilingCertificate(group, point_set, DuplicateResidues(cells[j], p))
    if rule == "rooted" and claim is None and group.order() % len(points) != 0:
        reason = DivisibilityObstruction(len(points), group.order())
        return NonTilingCertificate(group, point_set, reason)
    _within(len(points) * group.order(), limit)  # the search's k copies of the group
    solution, nodes = _exact_cover(cells, m, d, claim, rooted=rule == "rooted")
    if solution is None:
        reason = _proven(ExhaustedSearch, nodes=nodes, rule=rule)
        return _proven(NonTilingCertificate, group=group, set=point_set, reason=reason)
    # Distinct: the placements' masks are disjoint and nonempty.
    complement = _proven(PointSet, dimension=d, points=tuple(sorted(solution)))
    return _proven(TilingCertificate, group=group, set=point_set, complement=complement)


def decide_m_tile(
    point_set: PointSet,
    group: GroupSpec,
    guard: int | None = None,
    *,
    divisibility_shortcut: bool = True,
) -> TilingCertificate | NonTilingCertificate:
    """Complete tiling decision for Z_m^d.

    Pipeline (see _decide): reject duplicate residues, reject when the set
    size does not divide the group order, then run the exact-cover search
    with its root fixed to the first point (the "rooted" rule; see
    _exact_cover).

    With divisibility_shortcut False the size check is skipped, so the
    search itself exhausts, and it runs by the "lex" rule, every root
    placement tried: the counterexample bundle records that search, 750
    nodes for its base set, and its files stay byte for byte as they are.
    """
    if point_set.dimension != group.dimension:
        raise ValueError("set dimension does not match the group")
    return _decide(point_set, group, guard, "rooted" if divisibility_shortcut else "lex")


def replay_search(cert: NonTilingCertificate, guard: int | None = None) -> bool:
    """Re-decide the set by the record's rule and compare certificates.

    The search runs without the divisibility shortcut, by the rule the
    record names, lex or rooted, and stops one node past the claim; the
    replay holds when it produces exactly this certificate.  So a replay
    costs no more nodes than the certificate claims, plus one, and the
    guard bounds m^d and k * m^d as in decide_m_tile, so a large set fails
    before its rows are built.
    """
    if not isinstance(cert.reason, ExhaustedSearch):
        raise ValueError("only an exhausted-search certificate can be replayed")
    return _decide(cert.set, cert.group, guard, cert.reason.rule, cert.reason.nodes) == cert


def compose_tile(cert_t: TilingCertificate, cert_s: TilingCertificate) -> TilingCertificate:
    """Combine an m-tile T and an n-tile S into the mn-tile T + mS.

    The composed complement is Sigma_T + m*Sigma_S reduced mod mn.  The
    composed order is checked against the configured guard before anything
    is built.  Both inputs are then verified by direct coverage counting
    (m^d + n^d cells, not (mn)^d); a bad input fails that check with
    ValueError.  The result, its complement reduced mod mn in the pass that
    builds it, is not verified or scanned, because the tiling lemma proves it:

    If T + A = Z_m^d and S + B = Z_n^d are tilings, then
    (T + mS) + (A + mB) = Z_mn^d is a tiling.  (Reduce mod m first: every g
    is t + a mod m for one t and a, and (g - t - a)/m is s + b mod n for one
    s and b, so g = (t + m*s) + (a + m*b) mod mn.  Reduce a second such sum
    mod m to get the same t and a, then divide by m to get the same s and b.)
    """
    m, d = cert_t.group.modulus, cert_t.group.dimension
    group = GroupSpec(m * cert_s.group.modulus, d)
    check_power_guard(group.modulus, group.dimension)
    if not verify_tiling(cert_t):
        raise ValueError("left tiling fails verification")
    if not verify_tiling(cert_s):
        raise ValueError("right tiling fails verification")
    gamma = composed_set(cert_t.set, cert_s.set, m)
    coords = map(group.modulus.__rmod__, _sums(cert_t.complement, cert_s.complement, m))
    sigma = _proven(PointSet, dimension=d, points=tuple(zip(*[coords] * d)))
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
    transform tiles Z_m^d with T.  The base is verified (m^d1 cells) on the
    complement mask the walk below reads, one _Torus and one mask for both;
    a base that is not a tiling fails that check with ValueError.  The
    result is not verified, because the pullback lemma proves it:

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
    lexicographic order.  Cell (prefix, t) maps to image + t * c, where the
    image is the prefix's and c is the transform's last column.  So one
    translate of the base complement's mask by -image holds the prefix's
    answers: the cell is kept when the bit of t * c is set, one of m fixed
    cells of Z_m^d1, read from the translate's bytes.  No cell outside the
    preimage is built.  Memory is m^d1 bits plus the output.
    """
    if transform.cols != point_set.dimension:
        raise ValueError("transform width must equal the set dimension")
    if transform.rows != base.group.dimension:
        raise ValueError("transform height must equal the base group dimension")
    m = base.group.modulus
    d = point_set.dimension
    group = GroupSpec(m, d)
    check_power_guard(m, d, guard)
    check_power_guard(m, base.group.dimension, guard)

    mapped = matmul_mod(transform, point_set.to_columns_matrix(), m)
    mapped_points = tuple(mapped.column(j) for j in range(mapped.cols))
    base_points = tuple(tuple(c % m for c in p) for p in base.set.points)
    if mapped_points != base_points:
        raise ValueError("base certificate's set does not match transform @ T")
    checked = _coverage(base)
    if checked is None:
        raise ValueError("base tiling fails verification")
    torus, complement = checked

    rows = [transform.row(i) for i in range(base.group.dimension)]
    heads = [row[:-1] for row in rows]
    # The cell t * (last column) of Z_m^d1 for each last coordinate t, as the
    # byte and the bit that hold it in a mask's little-endian bytes.
    spots = list(torus.cells([row[-1] * t for t in range(m)] for row in rows))
    octets = [j >> 3 for j in spots]
    bits = [1 << (j & 7) for j in spots]
    sigma: list[tuple[int, ...]] = []
    for prefix in product(range(m), repeat=d - 1):
        cells = torus.translate(complement, [-sum(map(operator.mul, h, prefix)) for h in heads])
        data = cells.to_bytes(torus.width, "little")
        hits = map(operator.and_, map(data.__getitem__, octets), bits)
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


def _progression(k: int, step: int) -> TilingCertificate:
    """The tiling of Z_(k*step) by {step * i : i < k} with complement [0, step).

    Division with remainder proves it: each x in Z_(k*step) is step * i + s
    for exactly one i < k and s < step.
    """
    return _proven(
        TilingCertificate,
        group=_proven(GroupSpec, modulus=k * step, dimension=1),
        set=_proven(PointSet, dimension=1, points=tuple(zip(range(0, k * step, step)))),
        complement=_proven(PointSet, dimension=1, points=tuple(zip(range(step)))),
    )


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
    Z_M, which tiles Z_M with complement [0, |det|).  The pullback lemma
    (if phi: G -> H is injective on A and phi(A) + C = H, then
    A + phi^-1(C) = G; see lift_tile) then makes the set tile Z_M^d.
    Like every construction it checks its input and not its output: the
    lift inside final, and parse, check the tiling of Z_M as a premise.
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

    return IndependenceChain(
        set=point_set,
        selected_rows=tuple(selected),
        determinant=det,
        modulus=modulus,
        row_transform=IntMatrix(1, k, tuple(weights)),
        one_dimensional=_progression(k, big_d),
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
