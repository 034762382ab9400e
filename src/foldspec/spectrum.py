"""Sorted spectrum index, counting functions, odd cores and multiplicities."""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import LESS, AlgebraicValue
from .domains import NEUMANN, Domain, qn_parity, triangle
from .errors import DivisibilityError, DomainError, InvalidEigenvalueError, OutOfRangeError
from .qlattice import QN, Cutoff, LatticeRegion, enumerate_below, sort_by_value


@dataclass(frozen=True)
class Level:
    value: AlgebraicValue
    members: tuple[QN, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Counting:
    below: int  # strict counting function at lambda
    upto: int  # counting with lambda included
    position: int  # N(lambda): below + 1 at eigenvalues, below otherwise
    multiplicity: int


@dataclass(frozen=True)
class OddCore:
    core: AlgebraicValue
    k: int


class SpectrumIndex:
    """Eigenvalues below a cutoff, grouped by exact value, positions 1-based."""

    def __init__(self, domain: Domain, cutoff: Cutoff, levels: list[Level]):
        self.domain = domain
        self.cutoff = cutoff
        self.levels = tuple(levels)
        self._floats = [float(lv.value) for lv in self.levels]
        self._by_coeffs = {lv.value.coeffs: i for i, lv in enumerate(self.levels)}
        cum = [0]
        for lv in self.levels:
            cum.append(cum[-1] + lv.multiplicity)
        self._cum = cum  # cum[i] = number of eigenvalues strictly before level i
        self._members = tuple(m for lv in self.levels for m in lv.members)

    def __len__(self) -> int:
        return len(self.levels)

    def total(self) -> int:
        return self._cum[-1]

    def level_of(self, value: AlgebraicValue) -> Level | None:
        i = self._by_coeffs.get(value.coeffs)
        return None if i is None else self.levels[i]

    def _level_index_at_or_above(self, value: AlgebraicValue) -> int:
        """Index of the first level with level.value >= value."""
        i = bisect_left(self._floats, float(value) - 1e-9)
        while i < len(self.levels) and algebra.compare(self.levels[i].value, value) == LESS:
            i += 1
        while i > 0 and algebra.compare(self.levels[i - 1].value, value) != LESS:
            i -= 1
        return i

    def counting(self, value: AlgebraicValue) -> Counting:
        """Counting functions at value; value must lie below the cutoff."""
        if not algebra.is_below(value, self.cutoff):
            raise OutOfRangeError(
                f"{value.text()} is not below the index cutoff"
            )
        i = self._level_index_at_or_above(value)
        below = self._cum[i]
        exact = self._by_coeffs.get(value.coeffs)
        d = self.levels[exact].multiplicity if exact is not None else 0
        position = below + 1 if d else below
        return Counting(below=below, upto=below + d, position=position, multiplicity=d)

    def region_below(self, value: AlgebraicValue) -> LatticeRegion:
        """The members of every level strictly below value, in level order:
        Q(value) for an index from build_index.  value must lie below the
        cutoff."""
        if not algebra.is_below(value, self.cutoff):
            raise OutOfRangeError(
                f"{value.text()} is not below the index cutoff"
            )
        below = self._cum[self._level_index_at_or_above(value)]
        return LatticeRegion(self.domain, value, self._members[:below])

    def position_of(self, value: AlgebraicValue) -> int:
        return self.counting(value).position

    def position_at(self, i: int) -> int:
        """First spectral position of levels[i]."""
        return self._cum[i] + 1

    def multiplicity_of(self, value: AlgebraicValue) -> int:
        lv = self.level_of(value)
        return lv.multiplicity if lv else 0


def _group_levels(domain: Domain, region: LatticeRegion) -> list[Level]:
    """One Level per distinct coefficient row, members sorted, levels in
    exact value order."""
    if not region.points:
        return []
    ring = domain.ring
    pts = np.array(region.points, dtype=np.int64)
    by_value, rows, starts = sort_by_value(ring, pts)
    members = [region.points[i] for i in by_value.tolist()]
    rows = rows[starts]
    starts = starts.tolist()
    ends = starts[1:] + [len(members)]
    values = [AlgebraicValue(ring, tuple(row)) for row in rows.tolist()]
    floats = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: (floats[i], values[i].coeffs))
    levels = [Level(values[i], tuple(members[starts[i] : ends[i]])) for i in order]
    # float sort first; fall back to exact comparison if any neighbors are
    # too close for doubles to order
    for a, b in zip(levels, levels[1:]):
        if algebra.compare(a.value, b.value) != LESS:
            levels.sort(
                key=functools.cmp_to_key(
                    lambda a, b: algebra.compare(a.value, b.value)
                )
            )
            break
    return levels


def build_index(domain: Domain, cutoff: Cutoff) -> SpectrumIndex:
    region = enumerate_below(domain, cutoff)
    return SpectrumIndex(domain, cutoff, _group_levels(domain, region))


def build_dnn_index(cutoff: Cutoff) -> SpectrumIndex:
    """Spectrum of the half-triangle problem with Dirichlet on the cut L and
    Neumann elsewhere: the odd part of the Neumann triangle spectrum."""
    dom = triangle(NEUMANN)
    region = enumerate_below(dom, cutoff)
    odd_pts = tuple(m for m in region.points if qn_parity(dom, m) == "odd")
    odd_region = LatticeRegion(dom, cutoff, odd_pts)
    return SpectrumIndex(dom, cutoff, _group_levels(dom, odd_region))


def odd_core(value: AlgebraicValue) -> OddCore:
    """Unique odd value core and exponent k with value = gamma^(2k) * core.

    Works on the coefficient tuple over {t^j}: dividing by t rotates the
    coefficients one slot down, the wrapped t^0 coefficient halved (t^r = 2),
    and gamma^2 is one such step (two for odd n > 1).
    """
    if value.is_zero():
        raise DomainError("zero has no odd core")
    steps = algebra.gamma2_steps(value.n)
    coeffs = value.coeffs
    k = 0
    while coeffs[0] % 2 == 0:
        start = coeffs
        for _ in range(steps):
            if coeffs[0] % 2:
                raise DivisibilityError(
                    f"{AlgebraicValue(value.n, start).text()} is not divisible by gamma^2"
                )
            coeffs = coeffs[1:] + (coeffs[0] >> 1,)
        k += 1
    return OddCore(core=AlgebraicValue(value.n, coeffs), k=k)


def r2(z: int) -> int:
    """Number of (m, n) in Z^2 with m^2 + n^2 = z (signs and order counted)."""
    if z < 0:
        return 0
    if z == 0:
        return 1
    count = 0
    for m in range(math.isqrt(z) + 1):
        rest = z - m * m
        n = math.isqrt(rest)
        if n * n != rest:
            continue
        reps = 1
        reps *= 2 if m else 1
        reps *= 2 if n else 1
        count += reps
    return count


def rect_multiplicity(z: int) -> int:
    """Multiplicity of z in the Neumann rectangle spectrum: #{(a,b) >= 0 : a^2 + 2b^2 = z}."""
    if z < 0:
        return 0
    count = 0
    b = 0
    while 2 * b * b <= z:
        rest = z - 2 * b * b
        a = math.isqrt(rest)
        if a * a == rest:
            count += 1
        b += 1
    return count


def multiplicity_by_factorization(n: int, v: AlgebraicValue) -> int:
    """Multiplicity of a box eigenvalue (even n) as a product of rectangle
    multiplicities of its basis coefficients."""
    if n < 2 or n % 2:
        raise DomainError("factorization needs even box dimension")
    if v.n != n:
        raise DomainError(f"value lives in ring n={v.n}, expected {n}")
    product = 1
    for z in v.coeffs:
        d = rect_multiplicity(z)
        if d == 0:
            raise InvalidEigenvalueError(
                f"coefficient {z} is not a rectangle eigenvalue; "
                f"{v.text()} is not in the spectrum"
            )
        product *= d
    return product
