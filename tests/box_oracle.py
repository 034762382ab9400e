"""Scalar oracle for the columnar box verdicts.

The former per-level box classifier: the paper's case analysis as a
decision tree over one member at a time, each smaller point's value built
by domains.eigenvalue and compared with the level's by algebra.compare,
and every nu from nodal.count_formula.  The base fields come from the
triangle oracle's _base, which reads them off a Level.
"""

from __future__ import annotations

from foldspec import algebra, courant, nodal, spectrum
from foldspec.algebra import LESS
from foldspec.courant import Verdict
from foldspec.domains import box, eigenvalue
from foldspec.qlattice import QN
from triangle_oracle import _base, _require


def classify(n: int, cutoff) -> list[Verdict]:
    si = spectrum.build_index(box(n), cutoff)
    return [classify_level(si, lv, int(si.starts[i]) + 1) for i, lv in enumerate(si.levels)]


def smaller_point(m: QN, n: int) -> QN | None:
    """A lattice point outside the nodal box with a smaller eigenvalue, or
    None for the finitely many Courant-sharp exceptions."""

    def unit(pos: int, entry: int) -> QN:
        out = [0] * n
        out[pos] = entry
        return tuple(out)

    for j in range(n - 1):
        if m[j] < m[j + 1]:
            return unit(j, m[j] + 1)

    # non-increasing entries; first index holding the minimum
    low = min(m)
    idx = m.index(low)
    if idx == 0:  # constant vector
        if low == 0:
            return None  # ground state
        if n == 2 and low == 1:
            return None  # (1, 1), the fourth rectangle eigenvalue
        return unit(0, m[0] + 1)
    if idx >= 2:
        return unit(idx, m[idx] + 1)

    # idx == 1: m = (m1, m2, ..., m2) with m1 > m2
    m1, m2 = m[0], m[1]
    if n >= 3:
        if m2 >= 1:
            return unit(1, m2 + 1)
        if m1 >= 2:
            return unit(1, 1)
        return None  # (1, 0, ..., 0), the second eigenvalue
    if m2 >= 3:
        return unit(1, m2 + 1)
    if m2 == 2:
        return (0, 3) if m1 > 3 else (4, 0)
    if m2 == 1:
        return (0, 2) if m1 >= 3 else None  # (2, 1) is the sixth eigenvalue
    return unit(1, 1) if m1 >= 2 else None  # (1, 0) is the second eigenvalue


def classify_level(si, lv, position: int) -> Verdict:
    base = _base(lv, position)
    domain, value, n_pos = si.domain, lv.value, base["position"]
    n = domain.n
    if value.is_zero():
        return Verdict(**base, sharp=True, reason=courant.GROUND_STATE, nu=1)
    if lv.multiplicity > 1:
        return Verdict(
            **base, sharp=False, reason=courant.MULTIPLE_EIGENVALUE, nu=None,
            witness={"members": list(lv.members)},
        )
    member = lv.members[0]
    nu = nodal.count_formula(domain, member).count
    second = (1,) + (0,) * (n - 1)
    if member == second or (n == 2 and member in ((1, 1), (2, 1))):
        _require(nu == n_pos, f"sharp candidate {member}: nu {nu} != N {n_pos}")
        reason = courant.ORTHOGONALITY_SECOND if member == second else courant.EXPLICIT_COUNT
        return Verdict(**base, sharp=True, reason=reason, nu=nu)
    smaller = smaller_point(member, n)
    _require(smaller is not None, f"decision tree found no witness for {member}")
    _require(
        any(w > e for w, e in zip(smaller, member)),
        f"witness {smaller} lies inside the nodal box of {member}",
    )
    _require(
        algebra.compare(eigenvalue(domain, smaller), value) == LESS,
        f"witness {smaller} is not below {value.text()}",
    )
    _require(nu < n_pos, f"nu {nu} not below N {n_pos}")
    return Verdict(
        **base, sharp=False, reason=courant.BOX_CASE_ANALYSIS, nu=nu,
        witness={"smaller_point": smaller},
    )
