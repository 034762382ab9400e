"""Quantum-number lattices and the combinatorial sets over them.

Regions Q(lambda) are enumerated strictly below a cutoff; the ordering is
(eigenvalue, lexicographic) so all downstream output is deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra
from .algebra import AlgebraicValue
from .domains import NEUMANN, TRIANGLE, Domain, eigenvalue, qn_parity
from .errors import DomainError

Cutoff = AlgebraicValue | Fraction | int | float

QN = tuple[int, ...]


@dataclass(frozen=True)
class LatticeRegion:
    domain: Domain
    cutoff: Cutoff
    points: tuple[QN, ...]

    def __len__(self) -> int:
        return len(self.points)

    def point_set(self) -> frozenset[QN]:
        return frozenset(self.points)


def _axis_bound(domain: Domain, axis: int, cutoff: Cutoff) -> int:
    """Largest m with gamma^(2*axis) m^2 possibly below cutoff (inclusive bound)."""
    c = float(cutoff)
    if c <= 0:
        return -1
    w = 1.0 if domain.kind == TRIANGLE else domain.gamma2_float() ** axis
    return int(math.floor(math.sqrt(c / w) + 1.0))


def _below(domain: Domain, m: QN, cutoff: Cutoff) -> bool:
    return algebra.is_below(eigenvalue(domain, m), cutoff)


def enumerate_below(domain: Domain, cutoff: Cutoff) -> LatticeRegion:
    """All quantum numbers with eigenvalue strictly below cutoff."""
    pts: list[tuple[float, QN]] = []
    if domain.kind == TRIANGLE:
        lo = 0 if domain.bc == NEUMANN else 1
        bound = _axis_bound(domain, 0, cutoff)
        for m in range(lo, bound + 1):
            n_lo = lo
            n_hi = m if domain.bc == NEUMANN else m - 1
            for n in range(n_lo, n_hi + 1):
                qn = (m, n)
                if _below(domain, qn, cutoff):
                    pts.append((float(eigenvalue(domain, qn)), qn))
    else:
        lo = 0 if domain.bc == NEUMANN else 1
        ranges = [
            range(lo, _axis_bound(domain, j, cutoff) + 1) for j in range(domain.n)
        ]
        if all(len(r) > 0 for r in ranges):
            for qn in itertools.product(*ranges):
                if _below(domain, qn, cutoff):
                    pts.append((float(eigenvalue(domain, qn)), qn))
    pts.sort(key=lambda t: (t[0], t[1]))
    # float ties across distinct eigenvalues are far below the value gaps at
    # these cutoffs; the spectrum index re-groups by exact value anyway
    return LatticeRegion(domain, cutoff, tuple(qn for _, qn in pts))


def parity_split(region: LatticeRegion) -> tuple[list[QN], list[QN]]:
    """(odd, even) sublists of the region, order preserved."""
    odd = [m for m in region.points if qn_parity(region.domain, m) == "odd"]
    even = [m for m in region.points if qn_parity(region.domain, m) == "even"]
    return odd, even


def right_boundary(region: LatticeRegion) -> list[QN]:
    """Points of the region whose right neighbor (first coordinate + 1) is outside."""
    members = region.point_set()
    out = []
    for m in region.points:
        neighbor = (m[0] + 1,) + m[1:]
        if neighbor not in members:
            out.append(m)
    return out


def reference_set_diagonal(m: int) -> set[QN]:
    """Lattice triangle {(i, j): 0 <= j <= i <= m}; nodal-count reference for (m, m)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    return {(i, j) for i in range(m + 1) for j in range(i + 1)}


def reference_set_axis(m: int) -> set[QN]:
    """Reference set {(m+j, m-i): 0 <= i <= m, -i <= j <= i} for (2m, 0)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    return {
        (m + j, m - i) for i in range(m + 1) for j in range(-i, i + 1)
    }


def reference_set_box(m: QN) -> set[QN]:
    """Axis-aligned lattice box {q : 0 <= q_j <= m_j}."""
    if any(e < 0 for e in m):
        raise DomainError("box quantum number entries must be >= 0")
    return set(itertools.product(*(range(e + 1) for e in m)))
