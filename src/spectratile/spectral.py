"""Log-Hadamard checking, m-spectral certificates, and spectrum search.

A k-point integer set T in Z^d is m-spectral when some k x d matrix of
multiples of 1/m, multiplied against the d x k matrix whose columns are the
points, yields a log-Hadamard matrix: one whose entrywise exponential
exp(2*pi*i*h) has pairwise orthogonal unimodular rows.  Row orthogonality is
a vanishing sum of m-th roots of unity, so every check here reduces to the
exact cyclotomic decision procedure.

Orthogonality of k distinct rows is the whole criterion in the finite group:
a spectrum matching the set's cardinality is automatically complete, and
certificates store matching cardinalities by construction.

Full-group lemma.  When k = m^d, is_m_spectral needs no character sum: the
pair is spectral exactly when the k rows are distinct and the k points are
distinct mod m (the proof is in its docstring).  That is how the cube
[0, n)^d with its full character spectrum is checked.

Zero-set criterion.  Rows l and l' are orthogonal exactly when their
difference xi = l - l' lies in the zero set

    Z(1_T) = {xi in Z_m^d : sum over t in T of exp(2*pi*i*xi.t/m) = 0}

of the Fourier transform of T, points that collide mod m counted with
multiplicity.  So a spectrum is a k-clique in the Cayley graph
Cay(Z_m^d, Z(1_T)), and every spectral check asks which characters xi lie
in Z(1_T).  A character's count polynomial is packed into one int at the
width of the cyclotomic VanishingDecision for m and k, and that one
decision settles it exactly, each distinct polynomial once.  The polynomial
comes either pointwise (packed from the k residues xi.t mod m) or densely (a
separable transform gives the packed polynomials of all of Z_m^d at once,
m digits per character).  Which one runs, and how the transform treats a
line, depends on input size alone, from timings of both sides:

- fourier_zero_set transforms when m <= k and the transform's m^(d+1)
  digits fit the guard; otherwise it evaluates each character pointwise
  (sets of 2 to 1296 points, m up to 100, d up to 4).
- is_m_spectral, for k other than m^d, transforms when m^(d+1) <= 2k(k-1),
  at most four digits per row pair; otherwise it decides each distinct row
  difference pointwise, so a small set in a large group never pays for the
  transform.
- The transform maps each line of m cells with one Kronecker product per
  residue when the line kernel, 2*m^2*w bits at digit width w, is at most
  _KERNEL_BITS = 12,000 bits, and by shifts and adds otherwise.  In two
  timing runs (best of 5 to 9 transforms of random sets, k from m to 4m),
  the kernel was 1.2-5.3x faster at every size up to 12,000 bits for d = 2
  to 4; at d = 2 it ran 0.85-1.9x from 12,168 to 20,736 bits and
  0.5-1.0x from 23,328 bits on.  At d = 1 its products are by single
  counts, so it mostly won up to 115,200 bits (0.8-2.3x) and lost from
  165,888, but there building the kernel, once per (m, w), costs more
  than a transform.

find_spectrum searches for cliques with the zero set, and is_m_spectral's
transform path checks a given clique with the same step: the rows after l
must lie in Z(1_T) translated to l.  is_log_hadamard is is_m_spectral of
the unit basis e_1..e_k of Z^k: the pair sum of rows l and l' over the e_j
is sum_j exp(2*pi*i*(l_j - l'_j)/m), the rows' inner product.  So every
orthogonality check in the package is is_m_spectral.

Every construction checks its inputs, never its output, and raises
ValueError on a bad input.  compose_spectral verifies its two inputs and
never its product: the product lemma (in its docstring) makes the premises
prove the result, and they have k_T^2 + k_S^2 row pairs against the
product's (k_T*k_S)^2.  The product itself is built by C-level map and zip
kernels (composed_set, composed_spectrum_rows), each m*s and each scaled
left row computed once.  lift_spectrum verifies its base and never the
lifted spectrum, whose pair sums are the base's own (see its docstring).
Certificates from outside are verified where they enter, in certio.parse.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cyclotomic import VanishingDecision, vanishing_decision
from .guard import check_power_guard, power_in_reach, resolve_guard
from .modlinalg import IntMatrix, _decimal, format_matrix, matmul_mod, parse_matrix

__all__ = [
    "GroupSpec",
    "PointSet",
    "PhaseMatrix",
    "SpectrumCertificate",
    "is_log_hadamard",
    "fourier_zero_set",
    "is_m_spectral",
    "verify_spectrum",
    "find_spectrum",
    "compose_spectral",
    "composed_set",
    "composed_spectrum_rows",
    "lift_spectrum",
    "cube_spectrum",
    "format_point_set",
    "parse_point_set",
    "format_phase_matrix",
    "parse_phase_matrix",
]


@dataclass(frozen=True)
class GroupSpec:
    """The ambient finite group Z_m^d."""

    modulus: int
    dimension: int

    def __post_init__(self) -> None:
        # operator.index admits bools and integer types; a float raises TypeError.
        object.__setattr__(self, "modulus", operator.index(self.modulus))
        object.__setattr__(self, "dimension", operator.index(self.dimension))
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")

    def order(self) -> int:
        return self.modulus**self.dimension

    def has_order(self, n: int) -> bool:
        """Whether the order is n; m**d is computed only when in reach of n."""
        return power_in_reach(self.modulus, self.dimension, n) and self.order() == n

    def elements(self) -> Iterable[tuple[int, ...]]:
        """All group elements in lexicographic order."""
        return itertools.product(range(self.modulus), repeat=self.dimension)


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct integer vectors of a common dimension."""

    dimension: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", operator.index(self.dimension))
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        points = self.points
        # Exact int tuples, as decoders and lifts produce, are kept as given;
        # bools, other integer types and lists are converted, and a float,
        # str or Fraction raises TypeError.
        if not (
            type(points) is tuple
            and set(map(type, points)) == {tuple}
            and set(map(type, itertools.chain.from_iterable(points))) == {int}
        ):
            points = tuple(tuple(map(operator.index, p)) for p in points)
        if not points:
            raise ValueError("point set must be nonempty")
        for p in points:
            if len(p) != self.dimension:
                raise ValueError(f"point {p} does not have dimension {self.dimension}")
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def to_columns_matrix(self) -> IntMatrix:
        """The d x k matrix whose j-th column is the j-th point."""
        k = len(self.points)
        return IntMatrix(
            self.dimension,
            k,
            tuple(self.points[j][i] for i in range(self.dimension) for j in range(k)),
        )

    def reduced_mod(self, m: int) -> "PointSet":
        """Pointwise reduction mod m; raises if two points collide."""
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        reduced = [tuple(c % m for c in p) for p in self.points]
        if len(set(reduced)) != len(reduced):
            raise ValueError("points are not distinct mod m")
        return PointSet(self.dimension, tuple(reduced))

    def translated(self, offset: Sequence[int]) -> "PointSet":
        if len(offset) != self.dimension:
            raise ValueError("offset dimension mismatch")
        return PointSet(
            self.dimension,
            tuple(tuple(c + o for c, o in zip(p, offset)) for p in self.points),
        )


@dataclass(frozen=True)
class PhaseMatrix:
    """Integer numerators over a common denominator m, entries in [0, m).

    Represents a matrix of phases h = numerators/m, the discrete stand-in for
    a real log-Hadamard candidate.
    """

    numerators: IntMatrix
    denominator: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "denominator", operator.index(self.denominator))
        if self.denominator < 1:
            raise ValueError(f"denominator must be positive, got {self.denominator}")
        entries = self.numerators.entries
        if min(entries) < 0 or max(entries) >= self.denominator:
            raise ValueError("numerators must be reduced into [0, denominator)")

    @classmethod
    def reduce(cls, numerators: IntMatrix, denominator: int) -> "PhaseMatrix":
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        return cls(numerators.reduced_mod(denominator), denominator)

    def row(self, i: int) -> tuple[int, ...]:
        return self.numerators.row(i)

    def transpose(self) -> "PhaseMatrix":
        return PhaseMatrix(self.numerators.transpose(), self.denominator)


@dataclass(frozen=True)
class SpectrumCertificate:
    """A set together with a spectrum witnessing that it is m-spectral.

    Structural consistency is enforced here; soundness is re-checked with
    :func:`verify_spectrum`, which any third party can run from the stored
    fields alone.
    """

    group: GroupSpec
    set: PointSet
    spectrum: PhaseMatrix

    def __post_init__(self) -> None:
        if self.set.dimension != self.group.dimension:
            raise ValueError("set dimension does not match the group")
        if self.spectrum.denominator != self.group.modulus:
            raise ValueError("spectrum denominator does not match the group modulus")
        if self.spectrum.numerators.rows != len(self.set):
            raise ValueError("spectrum must have one row per point")
        if self.spectrum.numerators.cols != self.set.dimension:
            raise ValueError("spectrum row width must equal the dimension")


def is_log_hadamard(mat: PhaseMatrix) -> bool:
    """Whether exp(2*pi*i*numerators/m) is a (complex) Hadamard matrix.

    For a k x k matrix this is is_m_spectral(unit basis e_1..e_k of Z^k,
    mat): the pair sum of rows l and l' over the e_j is
    sum_j exp(2*pi*i*(l_j - l'_j)/m), which is the rows' inner product.  For
    k >= 2 the check takes the pointwise path, since m^k = k never holds and
    m^(k+1) <= 2k(k-1) fails for every m >= 2 (for m = 1 all rows are equal).
    For square matrices of unimodular entries row orthogonality already
    implies column orthogonality, so columns are not checked separately.
    """
    k = mat.numerators.rows
    if k != mat.numerators.cols:
        raise ValueError("log-Hadamard candidates must be square")
    basis = PointSet(k, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))
    return is_m_spectral(basis, mat)


class _Pointwise:
    """Characters decided one at a time, from the count polynomial packed from k residues.

    Each distinct packed polynomial is decided once.
    """

    def __init__(self, points: Sequence[Sequence[int]], decide: VanishingDecision) -> None:
        self.points = points
        self.pack = decide.pack
        self.decided = functools.cache(decide)

    def vanishes(self, xi: Sequence[int]) -> bool:
        """Whether xi lies in Z(1_T)."""
        return self.decided(self.pack(sum(map(operator.mul, xi, t)) for t in self.points))


def _mask(flags: Iterable[bool]) -> int:
    """The bitmask whose j-th bit is the j-th flag."""
    packed = bytearray()
    for j, flag in enumerate(flags):
        if j & 7 == 0:
            packed.append(0)
        if flag:
            packed[-1] |= 1 << (j & 7)
    return int.from_bytes(packed, "little")


_Line = Callable[[list[int]], list[int]]


def _shift_add_line(m: int, w: int) -> _Line:
    """One line of the transform by shifts and adds, one Python step per (xi, t).

    Each nonzero input is doubled (two copies side by side), so multiplying it
    by x^s mod x^m - 1 is one right shift of the doubled int; the bits above
    the low m digits are debris of the doubling, and since carries only move
    up, one mask of the sum leaves the low digits exact.
    """
    width = w * m
    full = (1 << width) - 1
    shifts = [w * (m - s) for s in range(m)]  # doubled >> shifts[s] multiplies by x^s

    def line(terms: list[int]) -> list[int]:
        doubled = [(t, p | p << width) for t, p in enumerate(terms) if p]
        return [sum(dp >> shifts[xi * t % m] for t, dp in doubled) & full for xi in range(m)]

    return line


@functools.lru_cache(maxsize=32)
def _line_kernels(m: int, w: int) -> tuple[int, ...]:
    """K_s = sum over xi of x^(xi*s mod m) in slot xi, for each residue s.

    Slot xi holds 2m digits of w bits, room for a product of degree below
    2m - 1.  _Characters builds kernels only up to _KERNEL_BITS bits, where
    m <= 54 since w >= 2, so each cached entry holds at most
    54 * _KERNEL_BITS bits.
    """
    slot = 2 * m * w
    return tuple(sum(1 << xi * slot + xi * s % m * w for xi in range(m)) for s in range(m))


def _kernel_line(m: int, w: int) -> _Line:
    """One line of the transform by Kronecker substitution: one product per residue.

    The outputs O_xi = sum over t of x^(xi*t mod m) * P_t are the slots of
    sum over t of P_t * K_t: slot xi receives P_t shifted by (xi*t mod m)
    digits.  Every digit stays at most k < 2^(w-1) and the degree stays below
    2m - 1, so no digit or slot carries.  One fold of the high m digits of
    every slot onto its low m digits, (y & low) + (y >> m*w & low), reduces
    all slots mod x^m - 1 at once, and slot xi is then read out.
    """
    width = w * m
    full = (1 << width) - 1
    kernels = _line_kernels(m, w)
    offsets = range(0, 2 * width * m, 2 * width)
    low = full * sum(1 << offset for offset in offsets)

    def line(terms: list[int]) -> list[int]:
        y = sum(map(operator.mul, terms, kernels))
        y = (y & low) + (y >> width & low)
        return [y >> offset & full for offset in offsets]

    return line


# The largest kernel, 2*m^2*w bits, for which _kernel_line runs.  A product
# costs with the kernel's size and a shift-add step costs one Python-level
# step, so the kernel wins on small kernels and loses on large ones (the
# module docstring has the timings).
_KERNEL_BITS = 12_000


def _transform(points: Sequence[Sequence[int]], m: int, d: int, line: _Line) -> list[int]:
    """The count polynomials of all of Z_m^d, axis by axis, one line at a time.

    Cells are kept densely in lexicographic index order.  Along an axis, a
    line is the m cells that differ only in that axis's digit; line maps
    their polynomials P_t (t the digit) to the outputs O_xi = sum over t of
    x^(xi*t mod m) * P_t, which replace them.  Lines with no points are left
    at zero.
    """
    size = m**d
    strides = [m ** (d - 1 - a) for a in range(d)]
    cells = [0] * size
    for p in points:
        cells[sum(c % m * s for c, s in zip(p, strides))] += 1
    for stride in strides:
        span = m * stride
        for block in range(0, size, span):
            for base in range(block, block + stride):
                terms = cells[base : base + span : stride]
                if any(terms):
                    cells[base : base + span : stride] = line(terms)
    return cells


class _Characters:
    """The character sums of T over Z_m^d as count polynomials, by a separable transform.

    Axis by axis, each cell holds the count polynomial sum_t x^(xi . t), in
    Z[x]/(x^m - 1), over the transformed axes of the points that agree with
    the cell on the axes not yet transformed.  A polynomial is packed into one
    int at the width of the vanishing decision, w bits per coefficient: w is
    at least k.bit_length() + 1, so every coefficient is at most k < 2^(w-1),
    and sums never carry across digits.  Each line is transformed with one
    Kronecker product per residue when its kernel, 2*m^2*w bits, is at most
    _KERNEL_BITS, and by shifts and adds otherwise; both give the same ints.
    Character xi lies in Z(1_T) when the decision accepts its packed
    polynomial as it stands; each distinct polynomial is decided once.
    """

    def __init__(self, points: Sequence[Sequence[int]], decide: VanishingDecision, d: int) -> None:
        m = decide.modulus
        w = decide.width
        line = _kernel_line if 2 * m * m * w <= _KERNEL_BITS else _shift_add_line
        self.polys = _transform(points, m, d, line(m, w))
        self.decided = functools.cache(decide)

    def zero_mask(self) -> int:
        """Z(1_T) as a bitmask in lexicographic index order."""
        return _mask(map(self.decided, self.polys))


class _Torus:
    """Index arithmetic on bitmasks over Z_m^d in lexicographic order.

    The one translate of cell bitmasks in the package.  is_m_spectral and
    find_spectrum translate Z(1_T) to a row.  tiling._exact_cover translates
    a stack of copies at once: copy j holds its m^d cells from byte j * width
    on, width being m^d bits rounded up to whole bytes, so stack and unstack
    convert between the copies and the stack in one pass over the bytes.
    The bits between copies stay clear.
    """

    def __init__(self, m: int, d: int, copies: int = 1) -> None:
        self.m = m
        self.strides = [m ** (d - 1 - a) for a in range(d)]
        self.width = width = -(-(m**d) // 8)
        self.cuts = [slice(j * width, (j + 1) * width) for j in range(copies)]
        # repunits[a] sets the first bit of each block of m * strides[a] bits in each copy.
        repunits = (((1 << m**d) - 1) // ((1 << m * s) - 1) for s in self.strides)
        self.repunits = [self.stack([r] * copies) for r in repunits]

    def stack(self, masks: Iterable[int]) -> int:
        copies = (mask.to_bytes(self.width, "little") for mask in masks)
        return int.from_bytes(b"".join(copies), "little")

    def unstack(self, stack: int) -> list[int]:
        data = stack.to_bytes(len(self.cuts) * self.width, "little")
        copies = map(data.__getitem__, self.cuts)
        return list(map(int.from_bytes, copies, itertools.repeat("little")))

    def index(self, row: Sequence[int]) -> int:
        return sum(c * s for c, s in zip(row, self.strides))

    def row(self, index: int) -> tuple[int, ...]:
        return tuple(index // s % self.m for s in self.strides)

    def translate(self, mask: int, row: Sequence[int]) -> int:
        """The bitmask of mask + row: one cyclic rotation of each block per axis."""
        m = self.m
        for c, s, repunit in zip(row, self.strides, self.repunits):
            u = c % m
            if u:
                low = (repunit << (m - u) * s) - repunit  # cells whose digit is below m - u
                part = mask & low
                mask = part << u * s | (mask ^ part) >> (m - u) * s
        return mask


def fourier_zero_set(point_set: PointSet, m: int, guard: int | None = None) -> int:
    """The zero set Z(1_T) of the Fourier transform of T in Z_m^d, exactly.

    Returned as a bitmask: bit j is set when the j-th element xi of
    GroupSpec(m, d).elements() has sum over t in T of exp(2*pi*i*xi.t/m)
    equal to zero.  Points that collide mod m count with multiplicity.
    """
    return _zero_set(point_set, GroupSpec(m, point_set.dimension), resolve_guard(guard))


def _zero_set(point_set: PointSet, group: GroupSpec, limit: int) -> int:
    """fourier_zero_set in the group, under the resolved guard limit."""
    check_power_guard(group.modulus, group.dimension, limit)
    m = group.modulus
    # Built first: an m beyond the cyclotomic bound fails here, before any transform.
    decide = vanishing_decision(m, len(point_set))
    if m <= len(point_set) and group.order() * m <= limit:
        return _Characters(point_set.points, decide, group.dimension).zero_mask()
    characters = _Pointwise(point_set.points, decide)
    return _mask(characters.vanishes(xi) for xi in group.elements())


def _dense_pays(k: int, m: int, d: int) -> bool:
    """Whether is_m_spectral transforms: m^(d+1) digits, at most four per row pair."""
    return m ** (d + 1) <= 2 * k * (k - 1)


def is_m_spectral(point_set: PointSet, spectrum: PhaseMatrix) -> bool:
    """Whether the spectrum's rows witness spectrality of the set in Z_m^d.

    Every pairwise row difference must lie in Z(1_T).  A repeated row
    differs from its copy by 0, which is never in Z(1_T), so distinct rows
    are checked first, on every path.  When k = m^d the full-group lemma
    then decides without a character sum:

    If k = m^d, the pair is spectral exactly when the k rows are distinct and
    the k points are distinct mod m.  (Then rows and residues are both all
    of Z_m^d.  A finite abelian group's character table has orthogonal rows,
    and since it is square its columns are orthogonal too.  Two equal rows,
    or two points congruent mod m, make that matrix singular.)

    Otherwise, when m^(d+1) is at most 2k(k-1), one transform gives Z(1_T)
    as a bitmask, and the rows are checked as a clique by the step
    find_spectrum searches with: every row after l must lie in Z(1_T) + l.
    Otherwise each distinct difference is decided on its own.  Either way
    the first difference outside Z(1_T) ends the check.
    """
    k = len(point_set)
    if spectrum.numerators.rows != k:
        raise ValueError("spectrum must have one row per point")
    d = point_set.dimension
    if spectrum.numerators.cols != d:
        raise ValueError("spectrum row width must equal the set dimension")
    if k == 1:
        return True  # no row pairs
    m = spectrum.denominator
    # Built first: an m beyond the cyclotomic bound fails here, before any transform.
    decide = vanishing_decision(m, k)
    rows = list(zip(*[iter(spectrum.numerators.entries)] * d))
    if len(set(rows)) != k:
        return False
    if GroupSpec(m, d).has_order(k):
        # The full-group lemma (see the docstring): no character sum is needed.
        residues = map(tuple, map(map, itertools.repeat(m.__rmod__), point_set.points))
        return len(set(residues)) == k
    if not _dense_pays(k, m, d):
        differences = {
            tuple((a - b) % m for a, b in zip(rows[j], rows[i]))
            for i in range(k)
            for j in range(i + 1, k)
        }
        characters = _Pointwise(point_set.points, decide)
        return all(characters.vanishes(xi) for xi in differences)
    zero = _Characters(point_set.points, decide, d).zero_mask()
    torus = _Torus(m, d)
    later = sum(1 << torus.index(row) for row in rows)
    for row in rows:
        later ^= 1 << torus.index(row)
        if later & ~torus.translate(zero, row):
            return False
    return True


def verify_spectrum(cert: SpectrumCertificate) -> bool:
    return is_m_spectral(cert.set, cert.spectrum)


def find_spectrum(
    point_set: PointSet, m: int, guard: int | None = None
) -> SpectrumCertificate | None:
    """Search for a spectrum with entries in (1/m)Z, or None if none exists.

    None rules out this denominator only; the set may still admit spectra
    with other denominators.

    A spectrum is a k-clique in the Cayley graph Cay(Z_m^d, Z(1_T)), found by
    backtracking over bitmasks of candidate rows.  Two reductions make the
    search canonical without losing completeness: spectra are closed under
    adding a constant row vector (row differences are unchanged), so the
    first row is pinned to zero; and row order is irrelevant, so rows are
    required to be strictly increasing lexicographically.  Choosing a row
    intersects the remaining candidates with Z(1_T) translated to that row,
    and a branch is abandoned once fewer candidates remain than rows are
    missing.  The first certificate found is therefore the lexicographically
    least one.
    """
    group = GroupSpec(m, point_set.dimension)
    limit = resolve_guard(guard)
    k = len(point_set)
    if k == 1:
        check_power_guard(group.modulus, group.dimension, limit)
        zero_row = PhaseMatrix(IntMatrix.zeros(1, group.dimension), m)
        return SpectrumCertificate(group, point_set, zero_row)  # no row pairs to check
    zero = _zero_set(point_set, group, limit)
    torus = _Torus(m, group.dimension)
    # Depth-first with an explicit stack: left[i] holds the candidates still
    # untried for the row after chosen[i].
    chosen = [0]
    left = [zero]
    while len(chosen) < k:
        candidates = left[-1]
        if candidates.bit_count() < k - len(chosen):
            left.pop()
            chosen.pop()
            if not left:
                return None
            continue
        lowest = candidates & -candidates
        left[-1] = candidates = candidates ^ lowest
        index = lowest.bit_length() - 1
        chosen.append(index)
        left.append(candidates & torus.translate(zero, torus.row(index)))
    numerators = IntMatrix(
        k, group.dimension, tuple(c for index in chosen for c in torus.row(index))
    )
    return SpectrumCertificate(group, point_set, PhaseMatrix(numerators, m))


def composed_set(left: PointSet, right: PointSet, m: int) -> PointSet:
    """T + mS: each t + m*s, t in the outer loop and s in the inner."""
    if left.dimension != right.dimension:
        raise ValueError("composed sets must share a dimension")
    # Each m*s is computed once; each t is repeated against all of them at
    # once, and the flat coordinates are grouped back into points.
    scaled = tuple(map(m.__mul__, itertools.chain.from_iterable(right.points)))
    size = len(right)
    coords = itertools.chain.from_iterable(
        map(operator.add, t * size, scaled) for t in left.points
    )
    return PointSet(left.dimension, tuple(zip(*[coords] * left.dimension)))


def composed_spectrum_rows(left: IntMatrix, right: IntMatrix, m: int, n: int) -> IntMatrix:
    """Spectrum numerators of T + mS over denominator m*n.

    For each row l of T's spectrum (over m) and, inside that, each row q of
    S's spectrum (over n), the row (n*l + q) mod m*n.
    """
    if left.cols != right.cols:
        raise ValueError("composed spectra must share a row width")
    reduce = (m * n).__rmod__
    # Each left row is scaled once, then repeated against all right entries at once.
    scaled = (tuple(map(n.__mul__, left.row(i))) * right.rows for i in range(left.rows))
    entries = tuple(
        itertools.chain.from_iterable(
            map(reduce, map(operator.add, nl, right.entries)) for nl in scaled
        )
    )
    return IntMatrix(left.rows * right.rows, left.cols, entries)


def compose_spectral(
    cert_t: SpectrumCertificate, cert_s: SpectrumCertificate
) -> SpectrumCertificate:
    """Combine an m-spectral set T and an n-spectral set S into T + mS.

    The composed set pairs every t with every s as t + m*s, and the composed
    spectrum pairs the witness rows as (n*l + q)/(m*n).  Both inputs are
    verified (k_T^2 + k_S^2 row pairs, not (k_T*k_S)^2); a bad input fails
    that check with ValueError.  The result is not verified, because the
    product lemma proves it:

    If T is spectral with rows L over m, and S is spectral with rows Q over
    n, then T + mS is spectral with rows (n*l + q)/(m*n).  (Write
    Delta = n*Delta_l + Delta_q.  The pair's sum factors as
    sum_t e(Delta.t/(mn)) * sum_s e(Delta_q.s/n).  If the rows differ in q,
    the second factor is 0.  If they share q, the first factor is
    sum_t e(Delta_l.t/m) = 0.  A spectral set has distinct residues, because
    its character matrix is invertible, so the points t + m*s are distinct.)
    """
    if not verify_spectrum(cert_t):
        raise ValueError("left spectrum fails verification")
    if not verify_spectrum(cert_s):
        raise ValueError("right spectrum fails verification")
    m = cert_t.group.modulus
    n = cert_s.group.modulus
    gamma = composed_set(cert_t.set, cert_s.set, m)
    rows = composed_spectrum_rows(cert_t.spectrum.numerators, cert_s.spectrum.numerators, m, n)
    return SpectrumCertificate(GroupSpec(m * n, gamma.dimension), gamma, PhaseMatrix(rows, m * n))


def lift_spectrum(
    point_set: PointSet, transform: IntMatrix, base: SpectrumCertificate
) -> SpectrumCertificate:
    """Pull a spectrum back through an integer linear map.

    If the columns of transform @ T form the base certificate's set (same
    order), then base_spectrum @ transform is a spectrum for T itself over
    the same denominator.  The base is verified; a base that is not a
    spectrum fails that check with ValueError.  The result is not verified,
    because the pullback lemma proves it:

    Write A for the transform.  For base rows l and l', the lifted rows'
    pair sum is sum_t e((l - l').At/m), and the points At are the base's
    points in order, so it is the base's own pair sum, which is 0.  (The
    lifted character matrix is the base's, so it is invertible as well and
    T has distinct residues.)
    """
    if transform.cols != point_set.dimension:
        raise ValueError("transform width must equal the set dimension")
    mapped = matmul_mod(transform, point_set.to_columns_matrix(), None)
    mapped_points = tuple(mapped.column(j) for j in range(mapped.cols))
    if mapped_points != base.set.points:
        raise ValueError("base certificate's set does not match transform @ T")
    if not verify_spectrum(base):
        raise ValueError("base spectrum fails verification")
    m = base.group.modulus
    numerators = matmul_mod(base.spectrum.numerators, transform, m)
    return SpectrumCertificate(
        GroupSpec(m, point_set.dimension),
        point_set,
        PhaseMatrix(numerators, m),
    )


def cube_spectrum(n: int, dimension: int, guard: int | None = None) -> SpectrumCertificate:
    """The discrete cube [0, n)^d with its full character spectrum.

    This is the n^d-point discrete Fourier system: the set and the spectrum
    numerators are both all of [0, n)^d in lexicographic order.
    """
    group = GroupSpec(n, dimension)
    check_power_guard(group.modulus, group.dimension, guard)
    cells = tuple(group.elements())
    cube = PointSet(dimension, cells)
    numerators = IntMatrix(len(cells), dimension, tuple(itertools.chain.from_iterable(cells)))
    return SpectrumCertificate(group, cube, PhaseMatrix(numerators, n))


def format_point_set(point_set: PointSet) -> str:
    """A point set as a matrix file: a "k d" header, then one row per point."""
    return format_matrix(IntMatrix.from_rows(point_set.points))


def parse_point_set(text: str) -> PointSet:
    matrix = parse_matrix(text)
    return PointSet(matrix.cols, tuple(map(matrix.row, range(matrix.rows))))


def format_phase_matrix(mat: PhaseMatrix) -> str:
    return format_matrix(mat.numerators) + f"denominator {mat.denominator}\n"


def parse_phase_matrix(text: str) -> PhaseMatrix:
    lines = text.splitlines()
    is_denominator = [line.split()[:1] == ["denominator"] for line in lines]
    if is_denominator.count(True) != 1:
        raise ValueError("phase matrix text needs exactly one 'denominator m' line")
    fields = lines[is_denominator.index(True)].split()
    if len(fields) != 2:
        raise ValueError("denominator line must be 'denominator m'")
    matrix_text = "\n".join(line for line, d in zip(lines, is_denominator) if not d)
    return PhaseMatrix(parse_matrix(matrix_text), _decimal(fields[1]))
