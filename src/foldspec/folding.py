"""Folding of quantum numbers, k-frames and frame partitions.

Triangle frames are built as int64 arrays of endpoint numerators over the
common denominator 2^(k+1) (coordinates in units of pi); build_frame turns
them into exact segments with Fraction endpoints.  Box frames are unions
of hyperplanes perpendicular to a single axis; a facet is (axis, f) meaning
{x_axis = f * l_axis} with f an exact fraction.  partition_count answers
from the closed forms of M(k), which boundary_word_counts recounts on the
triangle; nothing here is rasterised or labelled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

import numpy as np

from .domains import TRIANGLE, Domain, triangle
from .errors import DomainError, FoldParityError
from .qlattice import QN

FracPoint = tuple[Fraction, Fraction]


def __getattr__(name: str):
    """scipy.ndimage, imported on first access."""
    # folding labels nothing, but bench/spans.py checks that folding.ndimage
    # is scipy.ndimage before it swaps in a tracer, so it stays an attribute
    if name == "ndimage":
        global ndimage
        from scipy import ndimage

        return ndimage
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# quantum-number maps


def unfold_rows(domain: Domain, m: np.ndarray) -> np.ndarray:
    """U on each row of a 2-d matrix of quantum numbers: (a, b) -> (a + b,
    a - b) on the triangle, (m_1, ..., m_n) -> (2 m_n, m_1, ..., m_(n-1))
    on the box.  Object rows are exact; int64 entries must stay below 2^62."""
    if domain.kind == TRIANGLE:
        return np.stack([m[:, 0] + m[:, 1], m[:, 0] - m[:, 1]], axis=1)
    return np.concatenate([2 * m[:, -1:], m[:, :-1]], axis=1)


def fold_rows(domain: Domain, m: np.ndarray) -> np.ndarray:
    """Inverse of unfold_rows, U/2 on the triangle; FoldParityError names the
    first odd row (a - b odd on the triangle, m_1 odd on the box)."""
    tri = domain.kind == TRIANGLE
    odd = np.flatnonzero((m[:, 0] - m[:, 1] if tri else m[:, 0]) % 2 == 1)
    if len(odd):
        what = "odd parity" if tri else "odd first entry"
        raise FoldParityError(f"{tuple(m[odd[0]].tolist())} has {what} and cannot be folded")
    if tri:
        return unfold_rows(domain, m) // 2
    return np.concatenate([m[:, 1:], m[:, :1] // 2], axis=1)


def unfold_qn(domain: Domain, m: QN) -> QN:
    return tuple(unfold_rows(domain, np.array([m], dtype=object))[0].tolist())


def fold_qn(domain: Domain, m: QN) -> QN:
    return tuple(fold_rows(domain, np.array([m], dtype=object))[0].tolist())


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


# Memory budget of one frame, partition count or boundary word count, checked
# before anything is built: a facet costs about 1 KiB of Python objects in
# build_frame (measured: 300 B per box slab, 470 B per triangle segment, with
# the frame arrays still alive); a partition count costs three times its
# answer; a boundary piece costs about 256 B at the last step of
# boundary_word_counts (tracemalloc peak: 188 B per piece at k = 28, 208 B at
# k = 29, with the union-find, the labels and the side words alive).
FRAME_BUDGET = 256 << 20


def _frame_index(k) -> int:
    """k as a Python int; DomainError unless it is an integer >= 0 (NumPy
    integers included, bool not)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise DomainError(f"frame index must be an integer, got {k!r}")
    if k < 0:
        raise DomainError("frame index must be >= 0")
    return int(k)


def _check_budget(domain: Domain, k: int, what: str, size: int) -> None:
    """Raise DomainError when what, of size bytes, is over FRAME_BUDGET."""
    if size > FRAME_BUDGET:
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
    facets = 2 ** min(k if domain.kind == TRIANGLE else k // domain.n, 64)
    _check_budget(domain, k, "frame", 1024 * facets)
    if domain.kind == TRIANGLE:
        rows = _triangle_frame(k)
        den = 2 ** (k + 1)
        frac = {c: Fraction(c, den) for c in np.unique(rows).tolist()}
        segs = tuple(
            Segment((frac[ax], frac[ay]), (frac[bx], frac[by]))
            for ax, ay, bx, by in rows.tolist()
        )
        return KFrame(domain, k, segs)
    # box: a step moves every plane to the next axis, and each of the k // n
    # wraps to the first axis splits a plane at f into f/2 and 1 - f/2
    fracs = [Fraction(1, 2)]
    for _ in range(k // domain.n):
        fracs = [g for f in fracs for g in (f / 2, 1 - f / 2)]
    return KFrame(domain, k, tuple(Slab(k % domain.n, f) for f in fracs))


# ---------------------------------------------------------------------------
# partition counting (exact)


@lru_cache(maxsize=None)
def _partition_count(domain: Domain, k: int) -> int:
    # M(k) has about k bits (k/n on the box); building it holds three such
    bits = k if domain.kind == TRIANGLE else k // domain.n
    _check_budget(domain, k, "partition count", 3 * bits // 8)
    if domain.kind != TRIANGLE:
        return (1 << (k // domain.n)) + 1
    if k < 2:
        return k + 2  # M(0) = 2, M(1) = 3
    # (2^(a-1) + 1)(2^(b-1) + 1) with a + b = k, expanded
    return (1 << (k - 2)) + (1 << (k // 2 - 1)) + (1 << ((k + 1) // 2 - 1)) + 1


def partition_count(domain: Domain, k: int) -> int:
    """M(k): connected components of the open domain minus the k-frame.

    Closed forms in Python ints: the box k-frame is 2^(k//n) hyperplanes at
    distinct positions on the axis k mod n, so M(k) = 2^(k//n) + 1; the
    triangle has M(0) = 2 and M(k) = (2^(floor(k/2)-1) + 1)(2^(ceil(k/2)-1)
    + 1) (see boundary_word_counts).  k is checked before the cache sees it,
    so an unhashable or non-integer k (2.0, True, [3]) raises DomainError.
    """
    return _partition_count(domain, _frame_index(k))


partition_count.cache_clear = _partition_count.cache_clear
partition_count.cache_info = _partition_count.cache_info


def boundary_word_counts(k: int) -> list[int]:
    """M(0), ..., M(k) of the triangle, counted by its 2-rep-tile split.

    In units of pi let A = (0, 0), B = (1, 0), C = (1, 1), M = (1/2, 1/2).
    U maps (A, B, C) to (A, M, B) and RU maps them to (C, M, B), so T is
    copy 1 = U(T) and copy 2 = RU(T) glued along L = MB, and S^(k+1) is
    U(S^(k)) + RU(S^(k)).  No facet lies on a side of T (true of S^(0) = L,
    kept by each step), so S^(k+1) meets L in finitely many points, and both
    maps send the leg BC onto L as B -> M, C -> B.  The state is the side
    words AB, BC, CA: the pieces meeting that side in order from its first
    corner, one entry per interval, adjacent repeats merged; interior pieces
    are only counted.  S^(0) leaves P = ABM and Q = BCM: AB = [P], BC = [Q],
    CA = [Q, P].  A step unites (copy 1, r) with (copy 2, r) for each r in
    BC_k, so M(k+1) = 2 M(k) - (unions that joined two classes), and sets
        AB_(k+1) = reverse(CA_k) in copy 1,   BC_(k+1) = CA_k in copy 2,
        CA_(k+1) = AB_k in copy 2, then reverse(AB_k) in copy 1,
    relabelled by union-find roots.  By induction on the words, (i) each
    piece meets each side in one interval at most, so the labels of BC_k
    are distinct and every union joins, and (ii) the only identification
    within CA_(k+1) is at M, where the piece at corner B of AB_k, which
    also meets BC_k, is merged across the copies.  So M(k+1) = 2 M(k) -
    |BC_k|, |BC_k| = 2^floor((k-1)/2) + 1 (k >= 1), and partition_count's
    closed form follows.  This count trusts neither invariant, and its
    union-find holds only the pieces on the boundary: after step k there
    are 2^(k/2 + 1) of them for even k and 3 * 2^((k-1)/2) for odd k, the
    size checked against FRAME_BUDGET before the first step.
    """
    k = _frame_index(k)
    _check_budget(triangle(), k, "boundary word count", 256 * ((2 + k % 2) << (k // 2)))
    counts = [2]
    ab, bc, ca = [0], [1], [1, 0]  # P = 0, Q = 1
    n = 2  # boundary pieces, labelled 0 .. n-1
    for _ in range(k):
        # node p is piece p in copy 1, node n + p the same piece in copy 2
        parent = list(range(2 * n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        joined = 0
        for r in bc:
            a, b = find(r), find(n + r)
            if a != b:
                parent[b] = a
                joined += 1
        counts.append(2 * counts[-1] - joined)
        labels: dict[int, int] = {}
        ab, bc, ca = [
            [r for r, _ in groupby(labels.setdefault(find(x), len(labels)) for x in nodes)]
            for nodes in (ca[::-1], [n + p for p in ca], [n + p for p in ab] + ab[::-1])
        ]
        n = len(labels)
    return counts

