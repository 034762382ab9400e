"""Quantum-number lattices and the combinatorial sets over them.

enumerate_below lists the lattice points with eigenvalue strictly below a
cutoff.  It grows the lattice one axis at a time inside the ellipsoid
sum_j w_j m_j^2 < cutoff (w_j = gamma^(2j) for the box, 1 for the
triangle), holding each axis's quantum numbers and the points they extend
as int64 numpy columns, composed into rows once at the end: each axis's
range comes from the budget the earlier axes leave, with one step of slack.
A point is accepted or rejected by its double value when that value lies
farther from the cutoff than a rigorous bound on the rounding error; the
few points inside that margin are decided exactly by algebra.is_below.

A region is its levels, one per distinct exact value, in exact increasing
order and each level's members sorted by quantum number, held as int64
columns: a coefficient row per level, level offsets, and every member as
one row of a points matrix.  In the triangle's integer ring (r = 1) the
sort on the single coefficient is the exact order; in the box rings doubles
order the levels, one int64 bracket on the column of adjacent differences
certifies the pairs, and exact comparison decides only the pairs it leaves
open (see _open_pairs).  Level objects are built only when a caller asks for
them.  This is the one place that orders eigenvalues; spectrum indexes and
the regions they serve reuse it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra
from .algebra import LESS, AlgebraicValue
from .domains import NEUMANN, TRIANGLE, Domain
from .errors import DomainError

Cutoff = AlgebraicValue | Fraction | int | float

QN = tuple[int, ...]

# Largest number of candidates one axis of the expansion may hold, checked
# before that axis's columns are allocated.  The last axis holds the most,
# a little over the final region (box6 at 200: 241,798 candidates for
# 198,085 points; triangle at 10^6: 393,841 for 393,544), and a point of
# such a region and its level cost a few hundred bytes.  A point of a wide
# box costs more: 8 (n + r) bytes in its rows of quantum numbers and of
# coefficients, and at cutoff 2, where the region has n/2 + 1 points, the
# kept columns of m_j and of parent links hold about 3 n^2 / 8 entries each.
# COLUMN_BUDGET bounds those int64 entries, in bytes, before each axis's
# columns and before the two matrices are allocated.  tracemalloc measured
# a peak of at most 16.5 bytes per entry so counted (box6 at 200, triangle
# at 10^6, box8 at 40, box2 Dirichlet at 10^5; 9.4 for box1600 at 2), so
# this is about 0.27 GiB.
# Cutoffs of 2^44 and more are refused before the first axis, which alone
# would hold over 2^22 candidates, so coefficients (at most the value, see
# algebra.coefficient_rows) and squared quantum numbers stay far below 2^53:
# exact in int64 and in doubles.
POINT_BUDGET = 1 << 20
COLUMN_BUDGET = 128 << 20


@dataclass(frozen=True)
class Level:
    value: AlgebraicValue
    members: tuple[QN, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class LatticeRegion:
    """The levels below cutoff, in exact increasing order, as int64 columns:
    level i has the coefficient row coeffs[i], the members
    members[offsets[i]:offsets[i + 1]], the value value(i) and the Level level(i)."""

    domain: Domain
    cutoff: Cutoff
    coeffs: np.ndarray  # (levels, r)
    offsets: np.ndarray  # (levels + 1,), offsets[0] == 0
    members: np.ndarray  # (points, coords)

    def value(self, i: int) -> AlgebraicValue:
        return AlgebraicValue(self.domain.ring, tuple(self.coeffs[i].tolist()))

    def level(self, i: int) -> Level:
        lo, hi = self.offsets[i : i + 2].tolist()
        return Level(self.value(i), tuple(tuples(self.members[lo:hi])))

    @functools.cached_property
    def levels(self) -> tuple[Level, ...]:
        return tuple(map(self.level, range(len(self.coeffs))))

    @property
    def points(self) -> tuple[QN, ...]:
        """Every member, level by level."""
        return tuple(tuples(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def select(self, keep: np.ndarray) -> LatticeRegion:
        """The levels where the boolean mask keep holds, below the same
        cutoff."""
        sizes = np.diff(self.offsets)
        offsets = np.concatenate([[0], np.cumsum(sizes[keep])])
        return LatticeRegion(
            self.domain, self.cutoff, self.coeffs[keep], offsets,
            self.members[np.repeat(keep, sizes)],
        )


def tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-d int array with at least one column, as tuples of
    Python ints."""
    return list(zip(*rows.T.tolist()))


def _weights(domain: Domain) -> list[float]:
    if domain.kind == TRIANGLE:
        return [1.0, 1.0]
    return [2.0 ** (2 * j / domain.n) for j in range(domain.n)]


def _float_cutoff(domain: Domain, cutoff: Cutoff) -> tuple[float, float]:
    """(c, tol): the cutoff as a double and a margin such that a point whose
    double value v has |v - c| > tol lies on the side of the exact cutoff
    that v says.

    The double of an AlgebraicValue cutoff is within (r + 3) ulps of its
    coefficients' absolute sum (see algebra.coeffs_float); int and Fraction
    cutoffs round once.  A point's value is a sum of n nonnegative
    terms w_j m_j^2, each weight within 2 ulps, so its double is within
    (n + 8) ulps of the value.  tol covers both at twice their size for
    every v up to twice the scale; larger v are rejected anyway.  The scale
    is at least 1, the smallest nonzero eigenvalue, so an underflowing
    cutoff still leaves the origin to the exact test.
    """
    if isinstance(cutoff, float) and not math.isfinite(cutoff):
        raise DomainError("cutoff must be finite")
    n = domain.n
    r = algebra.basis_len(domain.ring)
    try:
        if isinstance(cutoff, AlgebraicValue):
            if cutoff.n != domain.ring:
                raise DomainError(
                    f"cutoff lives in ring n={cutoff.n}, the {domain.label()} "
                    f"spectrum in n={domain.ring}"
                )
            c = float(cutoff)
            absum = algebra.coeffs_float(tuple(abs(x) for x in cutoff.coeffs))
        else:
            c = float(cutoff)
            absum = abs(c)
    except OverflowError:  # far over the budget; enumerate_below says so
        c = absum = math.inf
    scale = max(abs(c), absum, 1.0)
    return c, (n + r + 16) * 2.0 ** -51 * scale


def _cutoff_text(cutoff: Cutoff, c: float) -> str:
    """The cutoff as an error names it: its double c if finite, else as given."""
    try:
        return f"{c:.3g}" if math.isfinite(c) else str(cutoff)
    except ValueError:  # an int past Python's int-to-str digit limit
        return "(too long to print)"


def _check_entries(domain: Domain, entries: int, where: str) -> None:
    """Refuse `entries` int64 entries over COLUMN_BUDGET before they are allocated."""
    if 8 * entries > COLUMN_BUDGET:
        raise DomainError(
            f"the {domain.label()} lattice below the cutoff needs {entries} int64 "
            f"entries {where}, over the budget of {COLUMN_BUDGET >> 20} MiB"
        )


def _candidates(domain: Domain, weights: list[float], top: float) -> tuple[np.ndarray, np.ndarray]:
    """The quantum numbers whose double value is at most top, as an int64
    matrix, with those values.

    Axis j extends each point of the axes before it by every m_j its budget
    admits.  Each axis keeps its own column of m_j and of the point it
    extends, filtered by the points that survive; the rows are composed once
    at the end, by following the columns of parents back from the last axis.
    """
    lo = 0 if domain.bc == NEUMANN else 1
    # rest[j]: the smallest contribution of the axes after j (each m >= lo),
    # summed from the last axis
    rest = lo * np.cumsum([0.0, *weights[:0:-1]])[::-1]
    ms: list[np.ndarray] = []
    parents: list[np.ndarray] = []
    held = 0  # entries of ms and parents
    acc = np.zeros(1)  # double value of each partial point
    for j, w in enumerate(weights):
        room = np.maximum(top - rest[j] - acc, 0.0)
        hi = np.floor(np.sqrt(room / w)).astype(np.int64) + 1
        if domain.kind == TRIANGLE and j == 1:
            hi = np.minimum(hi, ms[0] - lo)  # n <= m, n < m for Dirichlet
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total > POINT_BUDGET:
            raise DomainError(
                f"the {domain.label()} lattice below the cutoff needs {total} "
                f"candidates on axis {j}, over the budget of {POINT_BUDGET}"
            )
        _check_entries(domain, held + 2 * total, f"on axis {j}")
        parent = np.repeat(np.arange(len(acc)), counts)
        m = lo + np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        acc = acc[parent] + w * (m * m)
        keep = acc + rest[j] <= top
        acc = acc[keep]
        ms.append(m[keep])
        parents.append(parent[keep])
        held += 2 * len(acc)
    # the quantum numbers and, in enumerate_below, the coefficient rows
    r = algebra.basis_len(domain.ring)
    _check_entries(domain, held + len(acc) * (len(weights) + r), "for its points")
    qn = np.empty((len(acc), len(weights)), dtype=np.int64)
    row = np.arange(len(acc))
    for j in reversed(range(len(weights))):
        qn[:, j] = ms[j][row]
        row = parents[j][row]
    return qn, acc


def enumerate_below(domain: Domain, cutoff: Cutoff) -> LatticeRegion:
    """All quantum numbers with eigenvalue strictly below cutoff, as levels
    in exact increasing order, each level's members sorted by quantum
    number."""
    c, tol = _float_cutoff(domain, cutoff)
    weights = _weights(domain)
    top = c + tol
    if not top < 2.0**44:  # also catches inf and nan
        raise DomainError(
            f"the cutoff {_cutoff_text(cutoff, c)} is over the {domain.label()} lattice "
            f"budget of {POINT_BUDGET} points"
        )
    qn, acc = _candidates(domain, weights, top)
    below = acc < c - tol
    near = np.flatnonzero(~below)  # every point left is within tol of c
    ring = domain.ring
    for i, row in zip(near, algebra.coefficient_rows(ring, qn[near]).tolist()):
        below[i] = algebra.is_below(AlgebraicValue(ring, tuple(row)), cutoff)
    qn = qn[below]
    # group by coefficient row, members by quantum number within a row
    rows = algebra.coefficient_rows(ring, qn)
    order = np.lexsort(
        [qn[:, j] for j in reversed(range(qn.shape[1]))]
        + [rows[:, j] for j in reversed(range(rows.shape[1]))]
    )
    qn, rows = qn[order], rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    offsets = np.append(starts, len(qn))
    coeffs = rows[starts]
    if coeffs.shape[1] > 1:
        # coefficient order is not value order: a stable sort by double
        # orders the levels by (double, coefficients)
        rank = _exact_order(ring, coeffs)
        sizes = np.diff(offsets)[rank]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        shift = np.repeat(starts[rank] - offsets[:-1], sizes)
        qn, coeffs = qn[shift + np.arange(len(qn))], coeffs[rank]
    return LatticeRegion(domain, cutoff, coeffs, offsets, qn)


# Bits of the fixed bracket that certifies adjacent levels, see _open_pairs.
ORDER_BITS = 40


def _exact_order(ring: int, coeffs: np.ndarray) -> np.ndarray:
    """The order of the distinct coefficient rows by exact value: a stable
    sort by double, each adjacent pair certified by one int64 bracket
    (_open_pairs) and the pairs it leaves open by algebra.compare; if one of
    those is out of order, an exact sort by algebra.compare."""
    rank = np.argsort(algebra.coeffs_floats(coeffs), kind="stable")
    srt = coeffs[rank]

    def value(row: np.ndarray) -> AlgebraicValue:
        return AlgebraicValue(ring, tuple(row.tolist()))

    if all(
        algebra.compare(value(srt[i]), value(srt[i + 1])) == LESS
        for i in _open_pairs(srt).tolist()
    ):
        return rank
    values = [AlgebraicValue(ring, row) for row in tuples(coeffs)]
    order = sorted(
        rank.tolist(),
        key=functools.cmp_to_key(lambda i, j: algebra.compare(values[i], values[j])),
    )
    return np.array(order, dtype=np.intp)


def _open_pairs(srt: np.ndarray) -> np.ndarray:
    """The indices i of the adjacent rows for which one int64 bracket does
    not certify that srt[i + 1] has the larger value; srt is an int64
    coefficient matrix of r columns whose entries times r stay below 2^61 in
    magnitude (enumerate_below's are below 2^44, see POINT_BUDGET), so that
    d, B and max|d_j| * r lie inside int64.

    This is the bracket of algebra._sign_of_combination at p = ORDER_BITS,
    on every difference row d = srt[i + 1] - srt[i] at once: with
    F_j = floor(2^(j/r) * 2^p) (algebra._scaled_basis), A = sum d_j F_j lies
    strictly within B = sum |d_j| of 2^p * S, S the exact difference, so
    A > B proves S > 0.  Each F_j is below 2^(p+1), so every partial sum of
    A is at most max|d_j| * r * 2^(p+1) in magnitude; the product is taken
    only on the rows where that is below 2^63, that is max|d_j| * r below
    2^(62-p) = 2^22, and every other row stays open.
    """
    if len(srt) < 2:  # no pair, and no F_j to compute
        return np.empty(0, dtype=np.intp)
    r = srt.shape[1]
    d = srt[1:] - srt[:-1]
    size = np.abs(d)
    d[size.max(axis=1) * r >= 1 << (62 - ORDER_BITS)] = 0
    approx = d @ np.array(algebra._scaled_basis(r, ORDER_BITS), dtype=np.int64)
    return np.flatnonzero(approx <= size.sum(axis=1))

