"""Folding of quantum numbers, k-frames, frame partitions and subdomain spectra.

Triangle frames are built as int64 arrays of endpoint numerators over the
common denominator 2^(k+1) (coordinates in units of pi); build_frame turns
them into exact segments with Fraction endpoints.  Box frames are unions
of hyperplanes perpendicular to a single axis; a facet is (axis, f) meaning
{x_axis = f * l_axis} with f an exact fraction.  partition_count counts the
frame's pieces exactly from these facets; nothing here is rasterised in
floating point.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import AlgebraicValue
from .domains import TRIANGLE, Domain
from .errors import DomainError, FoldParityError
from .qlattice import QN

FracPoint = tuple[Fraction, Fraction]


def __getattr__(name: str):
    """scipy.ndimage, imported on first access: only the labelling needs it."""
    # bench/spans.py swaps folding.ndimage for a tracer, so it stays an attribute
    if name == "ndimage":
        global ndimage
        from scipy import ndimage

        return ndimage
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the labelling reads _module.ndimage, which the first read imports
_module = sys.modules[__name__]


# ---------------------------------------------------------------------------
# quantum-number maps


def unfold_qn(domain: Domain, m: QN) -> QN:
    if domain.kind == TRIANGLE:
        k, l = m
        return (k + l, k - l)
    return (2 * m[-1],) + m[:-1]


def fold_qn(domain: Domain, m: QN) -> QN:
    """Inverse of unfold_qn; requires the even-parity condition."""
    if domain.kind == TRIANGLE:
        k, l = m
        if (k - l) % 2:
            raise FoldParityError(f"{m} has odd parity and cannot be folded")
        return ((k + l) // 2, (k - l) // 2)
    if m[0] % 2:
        raise FoldParityError(f"{m} has odd first entry and cannot be folded")
    return m[1:] + (m[0] // 2,)


# ---------------------------------------------------------------------------
# k-frames


@dataclass(frozen=True)
class Segment:
    """Triangle facet; endpoints in units of pi."""

    a: FracPoint
    b: FracPoint

    def floats(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return (
            (float(self.a[0]) * math.pi, float(self.a[1]) * math.pi),
            (float(self.b[0]) * math.pi, float(self.b[1]) * math.pi),
        )


@dataclass(frozen=True)
class Slab:
    """Box facet {x_axis = frac * l_axis} (axis 0-based)."""

    axis: int
    frac: Fraction


@dataclass(frozen=True)
class KFrame:
    domain: Domain
    k: int
    facets: tuple


# Memory budget of one frame or partition count, checked before anything is
# built: a facet costs about 1 KiB of Python objects in build_frame
# (measured: 300 B per box slab, 470 B per triangle segment, with the frame
# arrays still alive), a triangle lattice point 5 bytes (a flag and an int32
# label).  partition_count's triangle path builds no objects: measured with
# tracemalloc, its peak is 2.9 MiB at k = 13 and 47 MiB at k = 17 (2^17
# facets, 2049^2 lattice points; the marked frame points take more than the
# labelled lattice).  The check charges the build_frame cost for both, so it
# admits triangle k <= 17 with a wide margin.
FRAME_BUDGET = 256 << 20


def _frame_index(k) -> int:
    """k as a Python int; DomainError unless it is an integer >= 0 (NumPy
    integers included, bool not)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise DomainError(f"frame index must be an integer, got {k!r}")
    if k < 0:
        raise DomainError("frame index must be >= 0")
    return int(k)


def _check_budget(domain: Domain, k: int, lattice: bool) -> None:
    """Raise DomainError when the k-frame, plus the triangle's counting
    lattice if asked for, is over FRAME_BUDGET."""
    if domain.kind == TRIANGLE:
        # two frame steps map (x, y) to (+-x/2 + a/2, +-y/2 + b/2), a, b
        # integers (U o U halves, R is integer affine), and S^(0), S^(1) have
        # denominator 2: so the largest endpoint denominator is <= 2^(k//2 + 1)
        facets = 2 ** min(k, 64)
        points = (4 * 2 ** min(k // 2 + 1, 64) + 1) ** 2 if lattice else 0
    else:
        facets, points = 2 ** min(k // domain.n, 64), 0
    if 1024 * facets + 5 * points > FRAME_BUDGET:
        what = "partition count" if lattice else "frame"
        raise DomainError(
            f"{what} of {domain.label()} k={k} is over the "
            f"{FRAME_BUDGET >> 20} MiB memory budget"
        )


def _triangle_frame(k: int) -> np.ndarray:
    """S^(k) of the triangle as a (2^k, 4) int64 array of endpoint numerators
    (ax, ay, bx, by) over the common denominator 2^(k+1), in units of pi.

    One step maps every facet s to U(s) and R(U(s)), interleaved: U sends
    (x, y) to ((x + y)/2, (x - y)/2), i.e. numerators (x + y, x - y) over the
    doubled denominator, and R sends (x, y) to (den - y, den - x).
    """
    rows = np.array([[1, 1, 2, 0]], dtype=np.int64)  # (1/2, 1/2)-(1, 0)
    for step in range(k):
        den = 2 ** (step + 2)
        xs, ys = rows[:, 0::2], rows[:, 1::2]
        nxt = np.empty((2 * len(rows), 4), dtype=np.int64)
        u = nxt[0::2]
        u[:, 0::2] = xs + ys
        u[:, 1::2] = xs - ys
        nxt[1::2, 0::2] = den - u[:, 1::2]
        nxt[1::2, 1::2] = den - u[:, 0::2]
        rows = nxt
    return rows


def build_frame(domain: Domain, k: int) -> KFrame:
    """S^(0) = L and S^(k) = U(S^(k-1)), stored exactly."""
    k = _frame_index(k)
    _check_budget(domain, k, lattice=False)
    if domain.kind == TRIANGLE:
        rows = _triangle_frame(k)
        den = 2 ** (k + 1)
        frac = {c: Fraction(c, den) for c in np.unique(rows).tolist()}
        segs = tuple(
            Segment((frac[ax], frac[ay]), (frac[bx], frac[by]))
            for ax, ay, bx, by in rows.tolist()
        )
        return KFrame(domain, k, segs)
    # box: hyperplanes cycle through the axes; wrapping from the last axis to
    # the first splits each plane in two
    slabs = [Slab(0, Fraction(1, 2))]
    for _ in range(k):
        nxt = []
        for s in slabs:
            if s.axis < domain.n - 1:
                nxt.append(Slab(s.axis + 1, s.frac))
            else:
                nxt.append(Slab(0, s.frac / 2))
                nxt.append(Slab(0, 1 - s.frac / 2))
        slabs = nxt
    return KFrame(domain, k, tuple(slabs))


# ---------------------------------------------------------------------------
# partition counting (exact)


def _triangle_partition_count(rows: np.ndarray, den: int) -> int:
    """Components of the open triangle minus the frame, on an exact lattice.

    Let D be the largest denominator of the facet endpoints (in units of pi;
    all are dyadic) and take the lattice of step pi/(4D).  Every facet and
    every side of the triangle is horizontal, vertical or at 45 degrees and
    lies on a line x, y or x +- y = c/D (c integer), so it passes through a
    lattice point at every lattice step, its endpoints are lattice points,
    and two of them cross only at lattice points.  These lines at spacing
    1/D cut the plane into small triangles (a 1/D square split by both
    diagonals, so their vertices are lattice points); each face of the
    partition is a union of them.  Each small triangle holds a free interior
    lattice point, and each of its edges that is not on the frame holds free
    lattice points 4-adjacent to it, so the free points of one face are
    4-connected.  Two 4-adjacent lattice points span an edge of length
    pi/(4D) that no facet crosses, so free points of different faces are
    never adjacent.  Hence the 4-connected components of the free lattice
    points are the faces: no offsets, no resolution, no certificate.

    rows holds the endpoint numerators over den (see _triangle_frame).
    """
    # every gcd is a power of two dividing den, so the smallest one belongs
    # to the largest reduced denominator, and den // d divides every numerator
    d = den // int(np.gcd(rows, den).min())
    size = 4 * d
    x0, y0, x1, y1 = (rows // (den // d) * 4).T
    dx, dy = x1 - x0, y1 - y0
    # one lattice point per step along each facet, endpoints included
    points = np.maximum(np.abs(dx), np.abs(dy)) + 1
    t = np.arange(points.sum()) - np.repeat(np.cumsum(points) - points, points)
    xs = np.repeat(x0, points) + t * np.repeat(np.sign(dx), points)
    ys = np.repeat(y0, points) + t * np.repeat(np.sign(dy), points)
    # free[x, y]: the open triangle 0 < y < x < 1, in lattice units
    free = np.tri(size + 1, k=-1, dtype=bool)
    free[:, 0] = free[size] = False
    free[xs, ys] = False
    _, count = _module.ndimage.label(free)
    return count


@lru_cache(maxsize=None)
def _partition_count(domain: Domain, k: int) -> int:
    _check_budget(domain, k, lattice=True)
    if domain.kind == TRIANGLE:
        return _triangle_partition_count(_triangle_frame(k), 2 ** (k + 1))
    cuts: list[set[Fraction]] = [set() for _ in range(domain.n)]
    for slab in build_frame(domain, k).facets:
        cuts[slab.axis].add(slab.frac)
    return math.prod(len(c) + 1 for c in cuts)


def partition_count(domain: Domain, k: int) -> int:
    """M(k): connected components of the open domain minus the k-frame.

    Exact.  Every box facet is a whole hyperplane, so the box count is the
    product over the axes of (distinct cut positions + 1); the triangle is
    counted on an exact lattice (see _triangle_partition_count).  k is
    checked before the cache sees it, so an unhashable or non-integer k
    (2.0, True, [3]) raises DomainError and never hits a cached entry.
    """
    return _partition_count(domain, _frame_index(k))


partition_count.cache_clear = _partition_count.cache_clear
partition_count.cache_info = _partition_count.cache_info


def box_partition_formula(n: int, k: int) -> int:
    """Closed-form M(k) for the n-dimensional box."""
    return 2 ** (k // n) + 1


# ---------------------------------------------------------------------------
# explicit subdomain spectra used by the degeneracy rule-out


def square_subdomain_value(p: int, q: int) -> AlgebraicValue:
    """Eigenvalue (2p+1)^2 + (2q+1)^2 of the square piece of the 1-frame
    partition (Dirichlet on the two frame edges, Neumann elsewhere)."""
    if p < 0 or q < 0:
        raise DomainError("square subdomain needs p, q >= 0")
    return algebra.integer_value(1, (2 * p + 1) ** 2 + (2 * q + 1) ** 2)


def rect_subdomain_value(k: int, p: int, q: int) -> AlgebraicValue:
    """Eigenvalue 2^(k-1) (p^2 + q^2) of the rectangular piece of the k-frame
    partition (k >= 2), with p >= 1 and q odd >= 1."""
    if k < 2:
        raise DomainError("rectangular subdomains exist for k >= 2")
    if p < 1 or q < 1 or q % 2 == 0:
        raise DomainError("rect subdomain needs p >= 1 and odd q >= 1")
    return algebra.integer_value(1, 2 ** (k - 1) * (p * p + q * q))
