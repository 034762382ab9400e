"""Scalar oracle for the columnar triangle verdicts.

The former per-level triangle classifier: one Level and one Verdict at a
time, the odd core through spectrum.odd_core, the fold through
folding.fold_qn, the subdomain values through the closed forms below and
the nodal counts through nodal.count_formula.  Every witness is checked as
it is built, one level after another, and every reference set point by
point, from the builders below.
"""

from __future__ import annotations

import numpy as np

from foldspec import algebra, courant, folding, nodal, spectrum
from foldspec.courant import Verdict
from foldspec.domains import triangle
from foldspec.errors import ConsistencyError, DomainError
from foldspec.qlattice import Level


def classify(cutoff) -> list[Verdict]:
    si = spectrum.build_index(triangle(), cutoff)
    return [classify_level(si, lv, int(si.starts[i]) + 1) for i, lv in enumerate(si.levels)]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConsistencyError(message)


def reference_points_diagonal(m: int) -> np.ndarray:
    """Lattice triangle {(i, j): 0 <= j <= i <= m} as an (N, 2) int64 array,
    one row per point; nodal-count reference for (m, m)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    return np.column_stack(np.tril_indices(m + 1)).astype(np.int64)


def reference_points_axis(m: int) -> np.ndarray:
    """Reference set {(m+j, m-i): 0 <= i <= m, -i <= j <= i} for (2m, 0) as
    an (N, 2) int64 array, one row per point."""
    if m < 0:
        raise DomainError("m must be >= 0")
    i = np.repeat(np.arange(m + 1, dtype=np.int64), 2 * np.arange(m + 1) + 1)
    j = np.arange(len(i)) - i * i - i  # row i holds i^2 earlier points
    return np.column_stack([m + j, m - i])


def square_subdomain_value(p: int, q: int) -> algebra.AlgebraicValue:
    """Eigenvalue (2p+1)^2 + (2q+1)^2 of the square piece of the 1-frame
    partition (Dirichlet on the two frame edges, Neumann elsewhere)."""
    if p < 0 or q < 0:
        raise DomainError("square subdomain needs p, q >= 0")
    return algebra.integer_value(1, (2 * p + 1) ** 2 + (2 * q + 1) ** 2)


def rect_subdomain_value(k: int, p: int, q: int) -> algebra.AlgebraicValue:
    """Eigenvalue 2^(k-1) (p^2 + q^2) of the rectangular piece of the k-frame
    partition (k >= 2), with p >= 1 and q odd >= 1."""
    if k < 2:
        raise DomainError("rectangular subdomains exist for k >= 2")
    if p < 1 or q < 1 or q % 2 == 0:
        raise DomainError("rect subdomain needs p >= 1 and odd q >= 1")
    return algebra.integer_value(1, 2 ** (k - 1) * (p * p + q * q))


def _base(lv: Level, position: int) -> dict:
    value = lv.value
    if value.is_zero():
        core, k = value, 0
    else:
        oc = spectrum.odd_core(value)
        core, k = oc.core, oc.k
    return {
        "position": position,
        "value": value,
        "multiplicity": lv.multiplicity,
        "parity": algebra.parity(value),
        "core": core,
        "core_k": k,
    }


def boundary_witnesses(value: algebra.AlgebraicValue, m: tuple) -> list:
    a, b = m
    w1 = (a - 1, b)
    w2 = (a, b - 1) if b >= 1 else (a - 1, 2)
    z = value.coeffs[0]
    for x, y in (w1, w2):
        _require(
            x >= y >= 0 and (x - y) % 2 == 0 and x * x + y * y < z <= (x + 1) ** 2 + y * y,
            f"boundary witness {(x, y)} failed for {value.text()}",
        )
    _require(w1 != w2, "boundary witnesses coincide")
    return [w1, w2]


def classify_level(si, lv: Level, position: int) -> Verdict:
    base = _base(lv, position)
    value, n_pos, d = lv.value, base["position"], lv.multiplicity
    if value.is_zero():
        return Verdict(**base, sharp=True, reason=courant.GROUND_STATE, nu=1)
    if base["parity"] == "odd":
        if lv.members == ((1, 0),):
            nu = nodal.count_formula(si.domain, (1, 0)).count
            _require(nu == n_pos, f"lambda_2 nodal count {nu} != N {n_pos}")
            return Verdict(**base, sharp=True, reason=courant.ORTHOGONALITY_SECOND, nu=nu)
        witnesses = boundary_witnesses(value, lv.members[0])
        return Verdict(
            **base, sharp=False, reason=courant.ODD_BOUNDARY, nu=None,
            witness={"boundary_even_points": witnesses},
        )
    if d > 1:
        return Verdict(
            **base, sharp=False, reason=courant.MULTIPLE_EIGENVALUE, nu=None,
            witness={"members": list(lv.members)},
        )
    member = lv.members[0]
    k = base["core_k"]
    core_qn = member
    for _ in range(k):
        core_qn = folding.fold_qn(si.domain, core_qn)
    cm, cn = core_qn
    if cn != 0:
        if k == 1:
            p1, q1 = (cm + cn - 1) // 2, (cm - cn - 1) // 2
        else:
            p1, q1 = cm + cn, cm - cn
        pairs = [(p1, q1), (q1, p1)]
        for p, q in pairs:
            sub = square_subdomain_value(p, q) if k == 1 else rect_subdomain_value(k, p, q)
            _require(sub.coeffs == value.coeffs, f"subdomain value {sub.text()} != {value.text()}")
        _require(pairs[0] != pairs[1], "subdomain witness pair degenerate")
        return Verdict(
            **base, sharp=False, reason=courant.SUBDOMAIN_MULTIPLICITY, nu=None,
            witness={"subdomain": "square" if k == 1 else f"rect_{k}", "pairs": pairs},
        )
    if cm == 1 and k <= 3:
        nu = nodal.count_formula(si.domain, member).count
        _require(nu == n_pos, f"explicit count {nu} != N {n_pos}")
        return Verdict(**base, sharp=True, reason=courant.EXPLICIT_COUNT, nu=nu)
    return _reference_set_verdict(si, lv, base, member)


def _reference_set_verdict(si, lv: Level, base: dict, member: tuple) -> Verdict:
    """The reference set as a Python set of closed-form points, each checked
    on the integer value; the member must lie on the level."""
    z, n_pos = lv.value.coeffs[0], base["position"]
    a, b = member
    if a == b:
        ref = set(map(tuple, reference_points_diagonal(a).tolist()))
        extra = (a + 1, 0)
    else:
        _require(b == 0 and a % 2 == 0, f"unexpected reference shape {member}")
        ref = set(map(tuple, reference_points_axis(a // 2).tolist()))
        extra = (a - 1, 2)
    _require(a * a + b * b == z, f"reference member {member} has value {a * a + b * b}, not {z}")
    nu = nodal.count_formula(si.domain, member).count
    for p in ref:
        _require(p[0] >= p[1] >= 0, f"reference point {p} is not a triangle-neumann quantum number")
        _require(p == member or p[0] ** 2 + p[1] ** 2 < z,
                 f"reference point {p} is not below {z}")
    _require(nu == len(ref), f"reference set size {len(ref)} != nu {nu}")
    _require(extra not in ref, f"strictness witness {extra} inside reference set")
    _require(extra[0] >= extra[1] >= 0 and extra[0] ** 2 + extra[1] ** 2 < z,
             f"strictness witness {extra} is not below {z}")
    _require(nu < n_pos, f"nu {nu} not below N {n_pos}")
    return Verdict(
        **base, sharp=False, reason=courant.REFERENCE_SET_STRICT, nu=nu,
        witness={"reference_size": len(ref), "extra_point": extra},
    )


def spectrum_columns(cutoff: int, bc: str = "neumann") -> tuple[np.ndarray, np.ndarray]:
    """The triangle's distinct eigenvalues below cutoff and their
    multiplicities, from one np.unique of a^2 + b^2 over the half disc
    0 <= b <= a (1 <= b < a for Dirichlet), a^2 + b^2 < cutoff: no foldspec
    code."""
    a, b = np.tril_indices(int(np.sqrt(cutoff)) + 2, 0 if bc == "neumann" else -1)
    z = (a * a + b * b).astype(np.int64)
    keep = (z < cutoff) & (b >= (0 if bc == "neumann" else 1))
    return np.unique(z[keep], return_counts=True)
