"""Deterministic low-discrepancy sampling (additive Kronecker sequences)."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

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
    if dim > len(_ALPHAS):
        raise DomainError(f"sampling supports at most {len(_ALPHAS)} dimensions, got {dim}")
    idx = np.arange(1, count + 1, dtype=float)
    cols = []
    golden = (math.sqrt(5) - 1) / 2
    for d in range(dim):
        offset = math.modf(0.5 + seed * golden + d * math.pi / 7)[0]
        cols.append(np.modf(offset + idx * _ALPHAS[d])[0])
    return np.stack(cols, axis=1)
