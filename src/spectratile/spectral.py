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
distinct mod m (the proof is in its docstring).  That is how a cube
[0, n)^d with its full character spectrum is checked when one is given.

Zero-set criterion.  Rows l and l' are orthogonal exactly when their
difference xi = l - l' lies in the zero set

    Z(1_T) = {xi in Z_m^d : sum over t in T of exp(2*pi*i*xi.t/m) = 0}

of the Fourier transform of T, points that collide mod m counted with
multiplicity.  So a spectrum is a k-clique in the Cayley graph
Cay(Z_m^d, Z(1_T)), and every spectral check asks which characters xi lie
in Z(1_T).  A character's count polynomial is packed into one int at the
width of the cyclotomic VanishingDecision for m and k, and that one
decision settles it exactly.  _zero_set is the one builder of the Z(1_T)
mask.  Galois lemma: xi lies in Z(1_T) exactly when a*xi does, for every
unit a mod m (the proof is in _zero_set's docstring).  The orbit of xi
under the units is the set of generators of the cyclic group <xi>, so
Z(1_T) is a union of such sets, and _zero_set decides each orbit's least
cell (its leader) once and sets the bits of the whole orbit.  The group's
_Torus lists the orbits: a torus that _torus shares keeps them in a table
of at most six bytes per cell (see _shared for the bound), and a larger
one walks them afresh at one byte per cell.  A leader's polynomial comes
either pointwise (packed from the k residues xi.t mod m) or from a separable
transform over a dense table of m^d polynomials, m digits each, that
transforms only the lines the leaders read (see _transform).  Which route
runs, and how the transform treats a line, depends on input size alone,
from timings of both sides:

- _zero_set transforms when the transform's m^(d+1) digits fit its limit
  and either m <= k or d >= 3; otherwise it packs and decides only the
  leaders pointwise.  Timed with leaders on both routes (random sets, best
  of 5 to 7, equal masks, a 2-vCPU x86_64 VM), transform against pointwise:

      4 points in Z_12^3     1.09 vs 3.46 ms
      6 points in Z_20^3     3.70 vs 10.8 ms
      3 points in Z_7^4      0.61 vs 2.49 ms
      3 points in Z_30^3     68.8 vs 80.5 ms  (past the orbit cache's bound)
      2 points in Z_40^3     74.1 vs 80.6 ms
      2 points in Z_56^3      155 vs 166 ms   (m/k = 28; the default guard's
      3 points in Z_56^3      174 vs 179 ms    largest m at d = 3)
      2 points in Z_25^4      396 vs 469 ms   (its largest m at d = 4)
      8 points in Z_8^3      0.46 vs 1.40 ms
      5 points in Z_97^2     1.12 vs 0.75 ms
      6 points in Z_1000     5.17 vs 0.34 ms

  So from d = 3 on the transform wins for m > k too, up to the largest m
  the default guard admits, though by only 3-20% once the torus outgrows
  the orbit cache; at d = 2 the routes tie or pointwise wins, and at d = 1
  pointwise wins 10-15x.
  fourier_zero_set and find_spectrum pass the guard as the limit.
- is_m_spectral, for k other than m^d, builds the whole mask when
  m^(d+1) <= 2k(k-1), at most four digits per row pair, by _zero_set with
  that pair budget as its limit; otherwise it decides each distinct row
  difference pointwise, from its rows' exponents l.t, so a small set in a
  large group never pays for a mask.  Under that budget the mask is
  transformed unless m > k, which m^(d+1) <= 2k(k-1) allows only at d = 1.
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
full-mask path checks a given clique with the same step: the rows after l
must lie in Z(1_T) translated to l.  is_log_hadamard is is_m_spectral of
the unit basis e_1..e_k of Z^k: the pair sum of rows l and l' over the e_j
is sum_j exp(2*pi*i*(l_j - l'_j)/m), the rows' inner product.  So every
orthogonality check in the package is is_m_spectral.

Every construction checks its inputs, never its output, and raises
ValueError on a bad input; _proven builds each output a lemma proves, with
none of its constructor's scans.  compose_spectral verifies its two inputs
(k_T^2 + k_S^2 row pairs, not (k_T*k_S)^2), and _product builds T + mS,
which the product lemma proves, with C-level kernels and no check but
composed_set's of distinct points.  The counterexample's composed spectrum
is _product of a base that the phase matrix and its factorization prove
and of cube_spectrum, all of Z_n^d by construction.  lift_spectrum
verifies its base and never the lifted spectrum, whose pair sums are the
base's own.  Certificates from outside are verified where they enter, in
certio.parse.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .cyclotomic import VanishingDecision, _prime_divisors, vanishing_decision
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


def _proven(cls: type, **values: Any) -> Any:
    """A frozen cls holding values, built without __post_init__'s scans: the
    one constructor of the values that their construction's lemma proves.
    The lemma must supply what the scans check.  A PointSet's points are a
    nonempty tuple of distinct tuples of dimension exact ints; an IntMatrix's
    entries a tuple of rows * cols exact ints; a PhaseMatrix's numerators lie
    in [0, denominator); a certificate's parts agree with its group and with
    each other, one spectrum row per point or a tiling's sizes the order."""
    value = object.__new__(cls)
    vars(value).update(values)
    return value


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
    basis = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) for i in range(k))
    return is_m_spectral(_proven(PointSet, dimension=k, points=basis), mat)


def _pointwise(points: Sequence[Sequence[int]], decide: VanishingDecision) -> Callable[..., bool]:
    """A predicate: whether the character later - row lies in Z(1_T), packed from its k residues.

    Without a row they are later's dot products, kept for no later call, as
    _zero_set's leaders have almost all distinct polynomials; with one, the
    differences of the two rows' exponents l.t, each row's computed once.
    """
    known: dict[Sequence[int], list[int]] = {}

    def vanishes(later: Sequence[int], row: Sequence[int] | None = None) -> bool:
        if row is None:
            return decide(decide.pack(_exponents(points, later)))
        for key in (later, row):
            known[key] = known.get(key) or _exponents(points, key)
        return decide(decide.pack(map(operator.sub, known[later], known[row])))

    return vanishes


def _exponents(points: Sequence[Sequence[int]], row: Sequence[int]) -> list[int]:
    return [sum(map(operator.mul, row, t)) for t in points]


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


def _line_kernels(m: int, w: int) -> tuple[int, ...]:
    """K_s = sum over xi of x^(xi*s mod m) in slot xi, for each residue s.

    Slot xi holds 2m digits of w bits, room for a product of degree below
    2m - 1.
    """
    slot = 2 * m * w
    return tuple(sum(1 << xi * slot + xi * s % m * w for xi in range(m)) for s in range(m))


@functools.lru_cache(maxsize=32)
def _kernel_line(m: int, w: int) -> _Line:
    """One line of the transform by Kronecker substitution: one product per residue.

    The outputs O_xi = sum over t of x^(xi*t mod m) * P_t are the slots of
    sum over t of P_t * K_t: slot xi receives P_t shifted by (xi*t mod m)
    digits.  Every digit stays at most k < 2^(w-1) and the degree stays below
    2m - 1, so no digit or slot carries.  One fold of the high m digits of
    every slot onto its low m digits, (y & low) + (y >> m*w & low), reduces
    all slots mod x^m - 1 at once, and slot xi is then read out.

    Built once per (m, w).  _zero_set builds kernels only up to _KERNEL_BITS
    bits, where m <= 54 since w >= 2, so each cached line holds at most
    55 * _KERNEL_BITS bits: m kernels and one mask of that size.
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


def _transform(
    points: Sequence[Sequence[int]], torus: _Torus, line: _Line, cells: Sequence[int]
) -> list[int]:
    """The count polynomials of the listed cells of the torus's Z_m^d, in the order listed.

    The polynomials are kept densely in lexicographic cell order and
    transformed axis by axis, one line at a time.  Along axis a, a line is
    the m cells that differ only in that axis's digit; line maps their
    polynomials P_t (t the digit) to the outputs O_xi = sum over t of
    x^(xi*t mod m) * P_t, in Z[x]/(x^m - 1), which replace them.  After pass
    a, cell (xi_0..xi_a, x_(a+1)..x_(d-1)) holds sum over the points t with
    that suffix, t_(a+1)..t_(d-1) = x_(a+1)..x_(d-1) mod m, of
    x^(xi_0*t_0 + ... + xi_a*t_a).  So a listed cell reads, at pass a, only
    lines on its own prefix xi_0..xi_(a-1), and a line whose suffix no point
    holds is zero.  Pass a therefore transforms a line only when its prefix
    is some listed cell's and its suffix some point's; every other line feeds
    no listed cell or is left at zero.  range(m**d) lists every cell, and
    then every line that holds a point is transformed.  A polynomial is
    packed into one int, w bits per coefficient: at the vanishing decision's
    width w >= k.bit_length() + 1 every coefficient is at most k < 2^(w-1),
    and sums never carry across digits.
    """
    m, strides = torus.m, torus.strides
    indices = list(torus.cells(zip(*points)))
    polys = [0] * m ** len(strides)
    for j in indices:
        polys[j] += 1
    # heads[j], j >= 1: the distinct cell // m^j, each level from the one below it.
    heads = [cells]
    for _ in strides:
        heads.append(set(map(m.__rfloordiv__, heads[-1])))
    for stride, prefixes in zip(strides, heads[:0:-1]):
        span = m * stride
        suffixes = set(map(stride.__rmod__, indices))
        for prefix in prefixes:
            for base in map((prefix * span).__add__, suffixes):
                polys[base : base + span : stride] = line(polys[base : base + span : stride])
    return list(map(polys.__getitem__, cells))


def _cell_mask(indices: Iterable[int], width: int) -> int:
    """The mask of width bytes with bit j set for each j in indices.

    The package's one bit-setting loop: it touches listed bits only, and a
    j listed twice sets its bit once.
    """
    bits = bytearray(width)
    for j in indices:
        bits[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(bits, "little")


def _gcd(a: int, b: int) -> int:
    # Not math.gcd: the trusted path imports no math (tests/test_trusted_path_exact.py).
    while b:
        a, b = b, a % b
    return a


class _Torus:
    """The cells of Z_m^d as bits, in lexicographic order: the package's one cell arithmetic.

    Bit j of a mask is the j-th cell of GroupSpec(m, d).elements(), the cell
    xi of index sum of xi_a * m^(d-1-a).  cells lists the indices of cells
    given as coordinate columns, mask sets their bits, index and row convert
    one cell, and translate moves a whole mask by a row.  is_m_spectral and
    find_spectrum translate Z(1_T) to a row; tiling.verify_tiling and
    lift_tile translate a complement's mask.  tiling._exact_cover translates
    a stack of copies at once: copy j holds its m^d cells from byte j * width
    on, width being m^d bits rounded up to whole bytes, so stack and unstack
    convert between the copies and the stack in one pass over the bytes.
    The bits between copies stay clear.  For _zero_set, a single copy also
    lists the orbits of its cells under the units mod m (see listed, walk
    and table).  Nothing changes a _Torus once it is built, so the small
    ones are shared between calls and keep their orbit tables (see _shared).
    """

    def __init__(self, m: int, d: int, copies: int = 1) -> None:
        self.m = m
        self.strides = [m ** (d - 1 - a) for a in range(d)]
        self.width = width = -(-(m**d) // 8)
        self.full = (1 << m**d) - 1  # every cell of one copy
        self.cuts = [slice(j * width, (j + 1) * width) for j in range(copies)]
        self.units: dict[int, list[int]] = {}  # order r -> the a < r coprime to r

    @functools.cached_property
    def repunits(self) -> list[int]:
        """repunits[a] sets the first bit of each block of m * strides[a] bits in each copy.

        Built on first use, so a torus that only lists orbits never builds them.
        """
        repunits = [self.full // ((1 << self.m * s) - 1) for s in self.strides]
        copies = len(self.cuts)
        return repunits if copies == 1 else [self.stack([r] * copies) for r in repunits]

    def cells(self, columns: Iterable[Iterable[int]]) -> Iterator[int]:
        """The index of each cell listed by columns, column a holding axis a's coordinates.

        Coordinates are reduced mod m.
        """
        m = self.m
        terms = [map(s.__mul__, map(m.__rmod__, c)) for s, c in zip(self.strides, columns)]
        return map(sum, zip(*terms))

    def mask(self, columns: Iterable[Iterable[int]]) -> int:
        """The bitmask of the cells listed by columns; a cell listed twice sets its bit once."""
        return _cell_mask(self.cells(columns), self.width)

    def stack(self, masks: Iterable[int]) -> int:
        copies = map(int.to_bytes, masks, itertools.repeat(self.width), itertools.repeat("little"))
        return int.from_bytes(b"".join(copies), "little")

    def unstack(self, stack: int, skip: int = 0) -> list[int]:
        """The copies in order, but for those that hold a cell of the mask skip."""
        data = stack.to_bytes(len(self.cuts) * self.width, "little")
        copies = map(int.from_bytes, map(data.__getitem__, self.cuts), itertools.repeat("little"))
        return [copy for copy in copies if not copy & skip]

    def index(self, row: Sequence[int]) -> int:
        return sum(c * s for c, s in zip(row, self.strides))

    def row(self, index: int) -> tuple[int, ...]:
        return tuple(map(self.m.__rmod__, map(index.__floordiv__, self.strides)))

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

    def listed(self, leader: int) -> list[int]:
        """The orbit of the cell leader under the units mod m, leader first, listed afresh.

        The orbit of xi is the set of generators of the cyclic group <xi>.
        Let r = m / gcd(m, xi_1, ..., xi_d) be the order of xi.  A unit u acts
        as u mod r, every unit mod r is one mod m reduced, and a*xi = b*xi
        exactly when a = b mod r.  So the orbit is the phi(r) distinct cells
        a*xi for a < r coprime to r, listed in that order (for r = 1 that is
        a = 0, and 0*xi = xi = 0), one step per cell: the units below r are
        sieved once per order.
        """
        xi = self.row(leader)
        r = self.m // functools.reduce(_gcd, xi, self.m)
        if r not in self.units:
            coprime = bytearray(b"\x01") * r
            for p in _prime_divisors(r):
                coprime[::p] = bytes(len(range(0, r, p)))
            self.units[r] = list(itertools.compress(range(r), coprime))
        return list(self.cells([map(c.__mul__, self.units[r]) for c in xi]))

    def walk(self) -> Iterator[list[int]]:
        """The orbits, listed afresh in the order of their leaders.

        Each cell not yet seen leads its orbit; one byte per cell marks the
        cells of the orbits walked so far.
        """
        seen = bytearray(self.m ** len(self.strides))
        leader = 0
        while leader >= 0:
            orbit = self.listed(leader)
            for j in orbit:
                seen[j] = 1
            yield orbit
            leader = seen.find(0, leader + 1)

    @functools.cached_property
    def table(self) -> tuple[array, array, array] | None:
        """The orbits kept, when _shared keeps this torus; otherwise None.

        One walk, on first use, lists the leaders, the cells orbit after orbit
        and where each orbit ends, two bytes an entry, so at most six bytes
        per cell.  The units sieved while walking are dropped.
        """
        if not _shared(self.m, len(self.strides), len(self.cuts)):
            return None
        leaders, cells, ends = array("H"), array("H"), array("H")
        for orbit in self.walk():
            leaders.append(orbit[0])
            cells.extend(orbit)
            ends.append(len(cells))
        self.units.clear()
        return leaders, cells, ends

    def leaders(self) -> Iterable[int]:
        """The orbits' leaders in index order: the table's, or walked once as they are read."""
        return self.table[0] if self.table else map(operator.itemgetter(0), self.walk())

    def orbit(self, leader: int) -> Sequence[int]:
        """The cells of the leader's orbit, the leader first: the table's, or listed afresh."""
        if not self.table:
            return self.listed(leader)
        leaders, cells, ends = self.table
        i = bisect.bisect_left(leaders, leader)
        return cells[ends[i - 1] if i else 0 : ends[i]]


# Tori past this many bits, d repunits of copies * m^d bits each, are built
# per call, so no large torus outlives its search.
_CACHED_TORUS_BITS = 1 << 15
_cached_torus = functools.lru_cache(maxsize=16, typed=True)(_Torus)


def _shared(m: int, d: int, copies: int = 1) -> bool:
    """Whether _torus shares the torus of copies of Z_m^d, which then keeps its orbit table.

    The cache keeps at most 16 tori of d * copies * m^d <= _CACHED_TORUS_BITS
    repunit bits, 4 KiB each; every caller asks for at most m^d copies.  An
    orbit table takes at most six bytes per cell.  _zero_set asks for one only
    when m <= 10,000 (the cyclotomic bound), so the largest group asked is
    Z_128^2, 16,384 cells in at most 96 KiB, and the cache's orbit tables
    hold at most 16 * 96 KiB = 1.5 MiB.
    """
    return d * copies * m**d <= _CACHED_TORUS_BITS


def _torus(m: int, dimension: int, copies: int = 1) -> _Torus:
    """The _Torus of Z_m^d, shared between calls in one group when _shared says so."""
    if _shared(m, dimension, copies):
        return _cached_torus(m, dimension, copies)
    return _Torus(m, dimension, copies)


def fourier_zero_set(point_set: PointSet, m: int, guard: int | None = None) -> int:
    """The zero set Z(1_T) of the Fourier transform of T in Z_m^d, exactly.

    Returned as a bitmask: bit j is set when the j-th element xi of
    GroupSpec(m, d).elements() has sum over t in T of exp(2*pi*i*xi.t/m)
    equal to zero.  Points that collide mod m count with multiplicity.
    """
    return _zero_set(point_set, GroupSpec(m, point_set.dimension), resolve_guard(guard))


def _zero_set(point_set: PointSet, group: GroupSpec, limit: int) -> int:
    """fourier_zero_set in the group, under a resolved limit on its order.

    The one builder of Z(1_T).  It decides one leader per orbit of Z_m^d
    under the units mod m (see _Torus.listed) and sets the bits of the
    whole orbit from that one verdict, by the Galois lemma:

    For every unit a mod m, xi lies in Z(1_T) exactly when a*xi does.  (The
    automorphism zeta_m -> zeta_m^a of Q(zeta_m) maps sum_t zeta_m^(xi.t)
    to sum_t zeta_m^(a*xi.t), and it fixes 0.)

    It transforms when the transform's m^(d+1) digits fit the limit and
    either m <= k or d >= 3 (the module docstring has the timings), and
    asks _transform for the leaders' polynomials alone: pass a transforms
    a line only when its prefix xi_0..xi_(a-1) is some leader's
    and its suffix x_(a+1)..x_(d-1) some point's.  That is exact.  After
    pass a, cell (xi_0..xi_a, x_(a+1)..x_(d-1)) holds sum over the points t
    with that suffix of x^(xi_0*t_0 + ... + xi_a*t_a), so a leader reads
    only lines on its own prefix, and a line whose suffix no point holds is
    zero.  Otherwise it packs each leader's polynomial pointwise.  The
    transform route decides each distinct polynomial once, through one
    dict; the pointwise route decides every leader, since their
    polynomials are almost all distinct.  Each line is transformed with
    one Kronecker product per residue when its kernel, 2*m^2*w bits, is at
    most _KERNEL_BITS, and by shifts and adds otherwise; both give the same
    ints.
    """
    check_power_guard(group.modulus, group.dimension, limit)
    m, d = group.modulus, group.dimension
    points = point_set.points
    # Built first: an m beyond the cyclotomic bound fails here, before any transform.
    decide = vanishing_decision(m, len(points))
    torus = _torus(m, d)
    if (m <= len(points) or d >= 3) and group.order() * m <= limit:
        w = decide.width
        line = _kernel_line if 2 * m * m * w <= _KERNEL_BITS else _shift_add_line
        leaders = list(torus.leaders())  # _transform reads them once per axis
        polynomials = list(_transform(points, torus, line(m, w), leaders))
        distinct = set(polynomials)
        verdicts = dict(zip(distinct, map(decide, distinct)))
        flags = map(verdicts.__getitem__, polynomials)
    else:
        leaders, walked = itertools.tee(torus.leaders())
        flags = map(_pointwise(points, decide), map(torus.row, walked))
    zero = map(torus.orbit, itertools.compress(leaders, flags))
    return _cell_mask(itertools.chain.from_iterable(zero), torus.width)


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

    Otherwise, when m^(d+1) is at most 2k(k-1), _zero_set gives Z(1_T) as a
    bitmask under that limit (by one transform when m <= k), and the rows
    are checked as a clique by the step find_spectrum searches with: every
    row after l must lie in Z(1_T) + l.
    Otherwise the row pairs are walked in order and each distinct difference
    is decided on its own, the first time it appears, from its rows'
    exponents l.t (see _pointwise): k^2 dot products, not k per difference,
    and two rows' for a refusal at the first pair.  Either way the first
    difference outside Z(1_T) ends the check.
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
        # Each distinct difference is decided once, in pair order, up to the first failure.
        vanishes, vanishing = _pointwise(point_set.points, decide), set()
        for row, later in itertools.combinations(rows, 2):
            xi = tuple(map(m.__rmod__, map(operator.sub, later, row)))
            if xi not in vanishing and not vanishes(later, row):
                return False
            vanishing.add(xi)
        return True
    # _dense_pays makes the limit hold m^(d+1) >= m^d, so the guard never refuses.
    zero = _zero_set(point_set, GroupSpec(m, d), 2 * k * (k - 1))
    torus = _torus(m, d)
    later = torus.mask(zip(*rows))
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
        return _spectrum(group, point_set, (0,) * group.dimension)  # no row pairs to check
    zero = _zero_set(point_set, group, limit)
    torus = _torus(m, group.dimension)
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
    # k distinct cells of Z_m^d, each difference in Z(1_T): a spectrum.
    return _spectrum(group, point_set, tuple(c for index in chosen for c in torus.row(index)))


def composed_set(left: PointSet, right: PointSet, m: int) -> PointSet:
    """T + mS: each t + m*s, t in the outer loop and s in the inner."""
    points = tuple(zip(*[_sums(left, right, m)] * left.dimension))
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    return _proven(PointSet, dimension=left.dimension, points=points)


def _sums(left: PointSet, right: PointSet, m: int) -> Iterator[int]:
    """The coordinates of each t + m*s in turn, t in the outer loop and s in the inner."""
    if left.dimension != right.dimension:
        raise ValueError("composed sets must share a dimension")
    # Each m*s is computed once, and each t is repeated against all of them at once.
    scaled = tuple(map(operator.index(m).__mul__, itertools.chain.from_iterable(right.points)))
    size = len(right)
    return itertools.chain.from_iterable(map(operator.add, t * size, scaled) for t in left.points)


def _rows(left: IntMatrix, right: IntMatrix, n: int) -> Iterator[int]:
    """Each n*l + q, flat, for each row l of left and inside it each row q of
    right: each left row is scaled once, then repeated against all of right."""
    scaled = (tuple(map(n.__mul__, left.row(i))) * right.rows for i in range(left.rows))
    return itertools.chain.from_iterable(map(operator.add, nl, right.entries) for nl in scaled)


def composed_spectrum_rows(left: IntMatrix, right: IntMatrix, m: int, n: int) -> IntMatrix:
    """Spectrum numerators of T + mS over denominator m*n.

    For each row l of T's spectrum (over m) and, inside that, each row q of
    S's spectrum (over n), the row (n*l + q) mod m*n.
    """
    if left.cols != right.cols:
        raise ValueError("composed spectra must share a row width")
    m, n = operator.index(m), operator.index(n)
    entries = tuple(map((m * n).__rmod__, _rows(left, right, n)))
    return _proven(IntMatrix, rows=left.rows * right.rows, cols=left.cols, entries=entries)


def _spectrum(group: GroupSpec, point_set: PointSet, entries: tuple) -> SpectrumCertificate:
    """The set with the flat spectrum rows entries over the group, by _proven."""
    rows = _proven(IntMatrix, rows=len(point_set), cols=group.dimension, entries=entries)
    spectrum = _proven(PhaseMatrix, numerators=rows, denominator=group.modulus)
    return _proven(SpectrumCertificate, group=group, set=point_set, spectrum=spectrum)


def _product(cert_t: SpectrumCertificate, cert_s: SpectrumCertificate) -> SpectrumCertificate:
    """compose_spectral's product, which the product lemma proves once the
    caller has proven both spectra: no check but composed_set's, and each
    n*l + q, l in [0, m) and q in [0, n), lies in [0, m*n) unreduced."""
    m, n = cert_t.group.modulus, cert_s.group.modulus
    gamma = composed_set(cert_t.set, cert_s.set, m)
    rows = tuple(_rows(cert_t.spectrum.numerators, cert_s.spectrum.numerators, n))
    return _spectrum(GroupSpec(m * n, gamma.dimension), gamma, rows)


def compose_spectral(
    cert_t: SpectrumCertificate, cert_s: SpectrumCertificate
) -> SpectrumCertificate:
    """Combine an m-spectral set T and an n-spectral set S into T + mS.

    The composed set pairs every t with every s as t + m*s, and the composed
    spectrum pairs the witness rows as (n*l + q)/(m*n).  Both inputs are
    verified (k_T^2 + k_S^2 row pairs, not (k_T*k_S)^2); a bad input fails
    that check with ValueError.  The result, which _product builds, is not
    verified, because the product lemma proves it:

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
    return _product(cert_t, cert_s)


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
    return _spectrum(GroupSpec(m, point_set.dimension), point_set, numerators.entries)


def cube_spectrum(n: int, dimension: int, guard: int | None = None) -> SpectrumCertificate:
    """The discrete cube [0, n)^d with its full character spectrum.

    This is the n^d-point discrete Fourier system: the set and the spectrum
    numerators are both all of [0, n)^d in lexicographic order.
    """
    group = GroupSpec(n, dimension)
    check_power_guard(group.modulus, group.dimension, guard)
    cells = tuple(group.elements())  # all of Z_n^d, each cell once
    cube = _proven(PointSet, dimension=group.dimension, points=cells)
    return _spectrum(group, cube, tuple(itertools.chain.from_iterable(cells)))


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
