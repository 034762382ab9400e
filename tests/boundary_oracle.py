"""Point-set oracle for the right-boundary parity split of the index.

The former package path: a Python set of the lattice points of Q(value),
one membership test of each point's right neighbour (first coordinate + 1)
and one domains.qn_parity call per boundary point.
"""

from __future__ import annotations

import numpy as np

from foldspec.domains import Domain, qn_parity
from foldspec.qlattice import QN, tuples


def right_boundary(points: list[QN]) -> list[QN]:
    """Points whose right neighbour (first coordinate + 1) is not a point."""
    members = set(points)
    return [m for m in points if (m[0] + 1,) + m[1:] not in members]


def parity_split(domain: Domain, points: list[QN]) -> tuple[int, int]:
    """(even, odd) counts of the right boundary of points by qn_parity."""
    parities = [qn_parity(domain, m) for m in right_boundary(points)]
    return parities.count("even"), parities.count("odd")


def prefix_splits(domain: Domain, members: np.ndarray, offsets: np.ndarray) -> list:
    """parity_split of members[:offsets[i]] for every level offset i."""
    points = tuples(members)
    return [parity_split(domain, points[:o]) for o in offsets.tolist()]
