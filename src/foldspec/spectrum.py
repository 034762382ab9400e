"""Sorted spectrum index, counting functions, odd cores and multiplicities."""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import AlgebraicValue
from .domains import NEUMANN, Domain, triangle
from .errors import DivisibilityError, DomainError, InvalidEigenvalueError, OutOfRangeError
from .qlattice import Cutoff, LatticeRegion, Level, enumerate_below, tuples


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
    """Eigenvalues below a cutoff, grouped by exact value, positions 1-based.

    Built on a region's columns: multiplicities[i] is the size of level i
    and starts[i] the number of eigenvalues strictly before it.  A lookup
    builds the one Level it returns; the table by coefficients, the levels
    sorted by double and the right-boundary parity column, on first use.
    """

    def __init__(self, region: LatticeRegion):
        self.domain = region.domain
        self.cutoff = region.cutoff
        self.region = region
        self._ring = region.domain.ring
        self.multiplicities = np.diff(region.offsets)
        self.starts = region.offsets[:-1]

    @property
    def levels(self) -> tuple[Level, ...]:
        return self.region.levels

    def __len__(self) -> int:
        return len(self.multiplicities)

    @functools.cached_property
    def _by_coeffs(self) -> dict[tuple[int, ...], int]:
        return {c: i for i, c in enumerate(tuples(self.region.coeffs))}

    def check_ring(self, value: AlgebraicValue) -> None:
        """Raise DomainError, naming value, unless value lives in the
        spectrum's ring."""
        if value.n != self._ring:
            raise DomainError(
                f"{value.text()} lives in ring n={value.n}, the "
                f"{self.domain.label()} spectrum in n={self._ring}"
            )

    def _find(self, value: AlgebraicValue) -> int | None:
        """Index of the level whose value is value, or None.  Coefficients
        are canonical within a ring, so (ring, coefficients) is the key."""
        self.check_ring(value)
        return self._by_coeffs.get(value.coeffs)

    @functools.cached_property
    def _by_float(self) -> tuple[np.ndarray, np.ndarray]:
        """The levels in order of their doubles (algebra.coeffs_floats), and
        those doubles sorted."""
        floats = algebra.coeffs_floats(self.region.coeffs)
        order = np.argsort(floats, kind="stable")
        return order, floats[order]

    def level_indices(self, rows: np.ndarray) -> np.ndarray:
        """The level index of each coefficient row of the index's ring, -1
        for a row that is no level's value.

        Identical rows have bit-identical doubles, so a row's level lies in
        the run of levels whose double is the row's: one sorted search finds
        where the run starts, and each pass checks the next level of every
        run by coefficients until the row is found or its run ends.  Runs
        longer than one level are rare."""
        order, floats = self._by_float
        coeffs = self.region.coeffs
        q = algebra.coeffs_floats(rows)
        at = np.searchsorted(floats, q)
        found = np.full(len(rows), -1, dtype=np.intp)
        todo = np.arange(len(rows))
        while True:
            todo = todo[at[todo] < len(floats)]
            todo = todo[floats[at[todo]] == q[todo]]
            if not len(todo):
                return found
            level = order[at[todo]]
            same = (coeffs[level] == rows[todo]).all(axis=1)
            found[todo[same]] = level[same]
            todo = todo[~same]
            at[todo] += 1

    def level_of(self, value: AlgebraicValue) -> Level | None:
        i = self._find(value)
        return None if i is None else self.region.level(i)

    def _level_index(self, value: AlgebraicValue) -> tuple[int, bool]:
        """Index of the first level with level.value >= value, and whether
        that level's value is value; value must lie below the cutoff.

        A level's own value is found by its coefficients alone.  Any other
        value is checked against the cutoff and bisected with the exact
        comparison, one level value built per probe.
        """
        i = self._find(value)
        if i is not None:
            return i, True
        if not algebra.is_below(value, self.cutoff):
            raise OutOfRangeError(
                f"{value.text()} is not below the index cutoff"
            )
        return bisect_left(range(len(self)), value, key=self.region.value), False

    def counting(self, value: AlgebraicValue) -> Counting:
        """Counting functions at value; value must lie below the cutoff."""
        i, exact = self._level_index(value)
        below = int(self.region.offsets[i])
        d = int(self.multiplicities[i]) if exact else 0
        position = below + 1 if d else below
        return Counting(below=below, upto=below + d, position=position, multiplicity=d)

    @functools.cached_property
    def _boundary_parity(self) -> np.ndarray:
        """Row i, i = 0..len(self): the even and odd points on the right
        boundary of the first i levels.  Each level holds every lattice point
        of its value, so a member is on it for its level < i <= the level of
        its right neighbour (len(self) if none); its parity is coeffs[:, 0] % 2."""
        n, r = len(self), self.region
        level = np.repeat(np.arange(n), self.multiplicities)
        right = r.members + (np.arange(self.domain.n) == 0)  # m + e_0
        after = self.level_indices(algebra.coefficient_rows(self._ring, right))
        odd = r.coeffs[level, 0] % 2
        steps = np.bincount(2 * level + odd, minlength=2 * n + 2)
        steps -= np.bincount(2 * np.where(after < 0, n, after) + odd, minlength=2 * n + 2)
        steps = steps.reshape(n + 1, 2)
        return np.cumsum(steps, axis=0) - steps

    def right_boundary_parity(self, value: AlgebraicValue) -> tuple[int, int]:
        """(even, odd) counts of the points of Q(value) whose right neighbour
        (first coordinate + 1) is not in Q(value); value must lie below the cutoff."""
        return tuple(self._boundary_parity[self._level_index(value)[0]].tolist())

    def position_of(self, value: AlgebraicValue) -> int:
        return self.counting(value).position

    def multiplicity_of(self, value: AlgebraicValue) -> int:
        i = self._find(value)
        return 0 if i is None else int(self.multiplicities[i])


def build_index(domain: Domain, cutoff: Cutoff) -> SpectrumIndex:
    return SpectrumIndex(enumerate_below(domain, cutoff))


def build_dnn_index(cutoff: Cutoff) -> SpectrumIndex:
    """Spectrum of the half-triangle problem with Dirichlet on the cut L and
    Neumann elsewhere: the odd part of the Neumann triangle spectrum (a
    level is odd exactly when its members have m - n odd, as
    m - n = m^2 + n^2 mod 2)."""
    region = enumerate_below(triangle(NEUMANN), cutoff)
    return SpectrumIndex(region.select(region.coeffs[:, 0] % 2 == 1))


def odd_core(value: AlgebraicValue) -> OddCore:
    """Unique odd value core and exponent k with value = gamma^(2k) * core.

    Dividing by t rotates the coefficients over {t^j} one slot down, the
    wrapped t^0 coefficient halved (t^r = 2), and gamma^2 is one such step
    (two for odd n > 1).
    """
    n, coeffs = value.n, value.coeffs
    if not any(coeffs):
        raise DomainError("zero has no odd core")
    steps = algebra.gamma2_steps(n)
    k = 0
    while coeffs[0] % 2 == 0:
        start = coeffs
        for _ in range(steps):
            if coeffs[0] % 2:
                raise DivisibilityError(
                    f"{algebra.coeffs_text(n, start)} is not divisible by gamma^2"
                )
            coeffs = coeffs[1:] + (coeffs[0] >> 1,)
        k += 1
    return OddCore(core=AlgebraicValue(n, coeffs), k=k)


def odd_core_columns(n: int, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """odd_core of every row of an int64 coefficient matrix in ring n: the
    core rows and the column of k.  A zero row, the ground state, keeps
    core 0 and k 0."""
    core = coeffs.copy()
    k = np.zeros(len(core), dtype=np.int64)
    rows = np.flatnonzero((core[:, 0] % 2 == 0) & core.any(axis=1))
    while len(rows):
        c = core[rows]
        for _ in range(algebra.gamma2_steps(n)):
            odd = np.flatnonzero(c[:, 0] % 2)
            if len(odd):
                start = tuple(core[rows[odd[0]]].tolist())
                raise DivisibilityError(
                    f"{algebra.coeffs_text(n, start)} is not divisible by gamma^2"
                )
            c = np.roll(c, -1, axis=1)
            c[:, -1] >>= 1
        core[rows] = c
        k[rows] += 1
        rows = rows[c[:, 0] % 2 == 0]
    return core, k


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
    rests = (z - 2 * b * b for b in range(math.isqrt(z // 2) + 1))
    return sum(math.isqrt(rest) ** 2 == rest for rest in rests)


def multiplicity_by_factorization(v: AlgebraicValue) -> int:
    """Multiplicity of a box eigenvalue (even ring dimension v.n) as a
    product of rectangle multiplicities of its basis coefficients."""
    if v.n < 2 or v.n % 2:
        raise DomainError("factorization needs even box dimension")
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
