"""Sampled oracle for the exact reflection, frame and folding rules.

Deterministic low-discrepancy points (additive Kronecker sequences) in the
interior of a domain and on the facets of a k-frame, and the float checks
made on them: a function is even, odd or vanishing when it is so at every
sampled point within a tolerance relative to a bound on its sup norm.
The sequences support at most 6 coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from foldspec import eigenfn
from foldspec.domains import TRIANGLE, Domain
from foldspec.folding import KFrame

# fractional parts of square roots of primes: irrational, pairwise independent
_ALPHAS = (
    math.sqrt(2) - 1,
    math.sqrt(3) - 1,
    math.sqrt(5) - 2,
    math.sqrt(7) - 2,
    math.sqrt(11) - 3,
    math.sqrt(13) - 3,
)


def kronecker(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """count x dim array of points equidistributed in (0, 1)^dim."""
    assert dim <= len(_ALPHAS), f"sampling supports at most {len(_ALPHAS)} dimensions"
    idx = np.arange(1, count + 1, dtype=float)
    cols = []
    golden = (math.sqrt(5) - 1) / 2
    for d in range(dim):
        offset = math.modf(0.5 + seed * golden + d * math.pi / 7)[0]
        cols.append(np.modf(offset + idx * _ALPHAS[d])[0])
    return np.stack(cols, axis=1)


def sup_estimate(f: eigenfn.Combo) -> float:
    """Upper bound on sup |f|: sum of |coefficient| * (basis sup norm)."""
    per_basis = 2.0 if f.domain.kind == TRIANGLE else 1.0
    return sum(abs(c) for c, _ in f.terms) * per_basis


def sample_interior(domain: Domain, count: int, seed: int = 0) -> np.ndarray:
    """count interior points, deterministic for a given seed."""
    u = kronecker(count, domain.coords, seed)
    if domain.kind == TRIANGLE:
        x = np.maximum(u[:, 0], u[:, 1]) * math.pi
        y = np.minimum(u[:, 0], u[:, 1]) * math.pi
        return np.stack([x, y], axis=1)
    return u * np.array(domain.edge_lengths())


def sampled_symmetry(f: eigenfn.Combo, samples: int = 256, tol: float = 1e-9) -> str:
    """"even", "odd" or "neither" under the reflection across L, at samples."""
    pts = sample_interior(f.domain, samples, seed=11)
    refl = pts.copy()
    if f.domain.kind == TRIANGLE:
        refl[:, 0] = math.pi - pts[:, 1]
        refl[:, 1] = math.pi - pts[:, 0]
    else:
        refl[:, 0] = math.pi - pts[:, 0]
    a = eigenfn.eval_points(f, pts)
    b = eigenfn.eval_points(f, refl)
    scale = max(sup_estimate(f), 1e-300)
    if np.all(np.abs(a - b) <= tol * scale):
        return "even"
    if np.all(np.abs(a + b) <= tol * scale):
        return "odd"
    return "neither"


def frame_points(frame: KFrame, count: int, seed: int = 0) -> np.ndarray:
    """At least count points spread over all facets of the frame."""
    facets = frame.facets
    per = max(1, -(-count // len(facets)))
    pts = []
    if frame.domain.kind == TRIANGLE:
        for i, seg in enumerate(facets):
            t = kronecker(per, 1, seed + i)[:, 0]
            (ax, ay), (bx, by) = seg.floats()
            pts.append(np.stack([ax + t * (bx - ax), ay + t * (by - ay)], axis=1))
    else:
        lengths = frame.domain.edge_lengths()
        n = frame.domain.n
        for i, slab in enumerate(facets):
            u = kronecker(per, n - 1, seed + i)
            block = np.empty((per, n))
            col = 0
            for j in range(n):
                if j == slab.axis:
                    block[:, j] = float(slab.frac) * lengths[j]
                else:
                    block[:, j] = u[:, col] * lengths[j]
                    col += 1
            pts.append(block)
    return np.concatenate(pts, axis=0)


def sampled_vanishing(f: eigenfn.Combo, frame: KFrame, samples: int = 10_000) -> bool:
    """max |f| over sampled frame points is within 1e-9 of sup |f|; no
    check of the unfolding depth, so any frame may be tried."""
    max_abs = float(np.max(np.abs(eigenfn.eval_points(f, frame_points(frame, samples, seed=5)))))
    return max_abs <= 1e-9 * sup_estimate(f)
