"""Courant-sharpness classification of every eigenvalue below a cutoff.

Each level receives exactly one verdict.  Non-sharp verdicts carry a
machine-checked witness (boundary lattice points, a degenerate subdomain
pair, a strict reference-set inclusion, a smaller lattice point outside the
nodal box, or multiplicity > 1); witness verification failures raise
ConsistencyError rather than classifying silently.  Triangle witnesses are
checked on the integer eigenvalue m^2 + n^2 and every nu comes from a closed
form, so the engine runs no grid; box witnesses are compared in Z[gamma^2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import algebra, folding, nodal, qlattice
from .algebra import LESS, AlgebraicValue
from .domains import NEUMANN, TRIANGLE, Domain, eigenvalue
from .errors import ConsistencyError, DomainError
from .qlattice import QN, Cutoff
from .spectrum import Level, SpectrumIndex, build_index, odd_core

GROUND_STATE = "ground_state"
ORTHOGONALITY_SECOND = "orthogonality_second"
EXPLICIT_COUNT = "explicit_count"
ODD_BOUNDARY = "odd_boundary"
SUBDOMAIN_MULTIPLICITY = "subdomain_multiplicity"
MULTIPLE_EIGENVALUE = "multiple_eigenvalue"
REFERENCE_SET_STRICT = "reference_set_strict"
BOX_CASE_ANALYSIS = "box_case_analysis"

SHARP_REASONS = {GROUND_STATE, ORTHOGONALITY_SECOND, EXPLICIT_COUNT}


# the keys of Verdict.as_dict, in order
VERDICT_FIELDS = (
    "position", "value", "float", "multiplicity", "parity", "core", "k",
    "sharp", "reason", "nu", "witness",
)


@dataclass(frozen=True)
class Verdict:
    position: int  # first spectral index of the eigenvalue
    value: AlgebraicValue
    multiplicity: int
    parity: str
    core: AlgebraicValue
    core_k: int
    sharp: bool
    reason: str
    nu: int | None  # exact nodal count when determined
    witness: dict = field(default_factory=dict)

    def row(self) -> tuple:
        """The values of as_dict, in VERDICT_FIELDS order."""
        return (
            self.position,
            self.value.text(),
            float(self.value),
            self.multiplicity,
            self.parity,
            self.core.text(),
            self.core_k,
            self.sharp,
            self.reason,
            self.nu,
            self.witness,
        )

    def as_dict(self) -> dict:
        return dict(zip(VERDICT_FIELDS, self.row()))


def classify(domain: Domain, cutoff: Cutoff) -> list[Verdict]:
    if domain.bc != NEUMANN:
        raise DomainError("Courant-sharpness classification covers the Neumann problem")
    si = build_index(domain, cutoff)
    level = _classify_triangle_level if domain.kind == TRIANGLE else _classify_box_level
    return [level(si, lv, si.position_at(i)) for i, lv in enumerate(si.levels)]


def _base(lv: Level, position: int) -> dict:
    value = lv.value
    if value.is_zero():
        core, k = value, 0
    else:
        oc = odd_core(value)
        core, k = oc.core, oc.k
    return {
        "position": position,
        "value": value,
        "multiplicity": lv.multiplicity,
        "parity": algebra.parity(value),
        "core": core,
        "core_k": k,
    }


def _require(cond: bool, message: Callable[[], str]) -> None:
    """Raise ConsistencyError with message() when cond fails; the message is
    built only then."""
    if not cond:
        raise ConsistencyError(message())


# ---------------------------------------------------------------------------
# triangle


def _boundary_witnesses(si: SpectrumIndex, value: AlgebraicValue, m: QN) -> list[QN]:
    """Two distinct even lattice points on the right boundary of Q(value),
    checked on the integer z = value: x^2 + y^2 < z <= (x + 1)^2 + y^2."""
    a, b = m
    w1 = (a - 1, b)
    w2 = (a, b - 1) if b >= 1 else (a - 1, 2)
    z = value.coeffs[0]
    for x, y in (w1, w2):
        _require(
            x >= y >= 0 and (x - y) % 2 == 0
            and x * x + y * y < z <= (x + 1) ** 2 + y * y,
            lambda: f"boundary witness {(x, y)} failed for {value.text()}",
        )
    _require(w1 != w2, lambda: "boundary witnesses coincide")
    return [w1, w2]


def _classify_triangle_level(si: SpectrumIndex, lv: Level, position: int) -> Verdict:
    base = _base(lv, position)
    value, n_pos, d = lv.value, base["position"], lv.multiplicity

    if value.is_zero():
        return Verdict(**base, sharp=True, reason=GROUND_STATE, nu=1)

    if base["parity"] == "odd":
        if lv.members == ((1, 0),):
            nu = nodal.count_formula(si.domain, (1, 0)).count
            _require(nu == n_pos, lambda: f"lambda_2 nodal count {nu} != N {n_pos}")
            return Verdict(**base, sharp=True, reason=ORTHOGONALITY_SECOND, nu=nu)
        witnesses = _boundary_witnesses(si, value, lv.members[0])
        return Verdict(
            **base,
            sharp=False,
            reason=ODD_BOUNDARY,
            nu=None,
            witness={"boundary_even_points": witnesses},
        )

    # even, nonzero: value = 2^k * core with k >= 1
    if d > 1:
        return Verdict(
            **base,
            sharp=False,
            reason=MULTIPLE_EIGENVALUE,
            nu=None,
            witness={"members": list(lv.members)},
        )

    member = lv.members[0]
    k = base["core_k"]
    core_qn = member
    for _ in range(k):
        core_qn = folding.fold_qn(si.domain, core_qn)
    cm, cn = core_qn

    if cn != 0:
        pairs = _subdomain_pairs(cm, cn, k)
        for p, q in pairs:
            sub_val = (
                folding.square_subdomain_value(p, q)
                if k == 1
                else folding.rect_subdomain_value(k, p, q)
            )
            _require(
                sub_val.coeffs == value.coeffs,
                lambda: f"subdomain value {sub_val.text()} != {value.text()}",
            )
        _require(pairs[0] != pairs[1], lambda: "subdomain witness pair degenerate")
        return Verdict(
            **base,
            sharp=False,
            reason=SUBDOMAIN_MULTIPLICITY,
            nu=None,
            witness={
                "subdomain": "square" if k == 1 else f"rect_{k}",
                "pairs": pairs,
            },
        )

    # core of shape (m, 0): the unfolding chain of an odd axis point
    if cm == 1 and k <= 3:
        nu = nodal.count_formula(si.domain, member).count
        _require(nu == n_pos, lambda: f"explicit count {nu} != N {n_pos}")
        return Verdict(**base, sharp=True, reason=EXPLICIT_COUNT, nu=nu)

    return _reference_set_verdict(si, lv, base, member)


def _subdomain_pairs(cm: int, cn: int, k: int) -> list[tuple[int, int]]:
    if k == 1:
        p1, q1 = (cm + cn - 1) // 2, (cm - cn - 1) // 2
    else:
        p1, q1 = cm + cn, cm - cn
    return [(p1, q1), (q1, p1)]


def _reference_set_verdict(
    si: SpectrumIndex, lv: Level, base: dict, member: QN
) -> Verdict:
    """The nu reference points lie below value (the member aside) and extra
    lies below it outside them, so N(value) > nu.  Every reference point is
    checked, as a row of an int64 array."""
    value, n_pos = lv.value, base["position"]
    a, b = member
    if a == b:
        ref = qlattice.reference_points_diagonal(a)
        extra = (a + 1, 0)
    else:
        _require(b == 0 and a % 2 == 0, lambda: f"unexpected reference shape {member}")
        ref = qlattice.reference_points_axis(a // 2)
        extra = (a - 1, 2)
    nu = nodal.count_formula(si.domain, member).count
    p0, p1 = ref[:, 0], ref[:, 1]

    def first(bad: np.ndarray) -> QN:
        return tuple(ref[np.flatnonzero(bad)[0]].tolist())

    bad = (p1 < 0) | (p0 < p1)
    _require(
        not bad.any(),
        lambda: f"reference point {first(bad)} is not a {si.domain.label()} "
        "quantum number",
    )
    # exact in int64: enumerate_below refuses cutoffs of 2^44 or more, so the
    # value z is below 2^44; the builders' coordinates are at most a, with
    # a^2 <= z, so p0^2 + p1^2 < 2^45
    z = value.coeffs[0]
    above = (p0 * p0 + p1 * p1 >= z) & ((p0 != a) | (p1 != b))
    _require(
        not above.any(),
        lambda: f"reference point {first(above)} is not below {value.text()}",
    )
    side = max(int(ref.max()), *extra) + 1
    seen = np.zeros((side, side), dtype=bool)
    seen[p0, p1] = True
    size = int(seen.sum())
    _require(nu == size, lambda: f"reference set size {size} != nu {nu}")
    _require(
        not seen[extra], lambda: f"strictness witness {extra} inside reference set"
    )
    ex, ey = extra
    _require(
        ex >= ey >= 0 and ex * ex + ey * ey < z,
        lambda: f"strictness witness {extra} is not below {value.text()}",
    )
    _require(nu < n_pos, lambda: f"nu {nu} not below N {n_pos}")
    return Verdict(
        **base,
        sharp=False,
        reason=REFERENCE_SET_STRICT,
        nu=nu,
        witness={"reference_size": size, "extra_point": extra},
    )


# ---------------------------------------------------------------------------
# boxes


def _box_smaller_point(m: QN, n: int) -> QN | None:
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


def _classify_box_level(si: SpectrumIndex, lv: Level, position: int) -> Verdict:
    base = _base(lv, position)
    value, n_pos, d = lv.value, base["position"], lv.multiplicity
    n = si.domain.n

    if value.is_zero():
        return Verdict(**base, sharp=True, reason=GROUND_STATE, nu=1)

    if d > 1:
        return Verdict(
            **base,
            sharp=False,
            reason=MULTIPLE_EIGENVALUE,
            nu=None,
            witness={"members": list(lv.members)},
        )

    member = lv.members[0]
    nu = nodal.count_formula(si.domain, member).count

    sharp_reason = None
    if member == (1,) + (0,) * (n - 1):
        sharp_reason = ORTHOGONALITY_SECOND
    elif n == 2 and member in ((1, 1), (2, 1)):
        sharp_reason = EXPLICIT_COUNT
    if sharp_reason:
        _require(nu == n_pos, lambda: f"sharp candidate {member}: nu {nu} != N {n_pos}")
        return Verdict(**base, sharp=True, reason=sharp_reason, nu=nu)

    smaller = _box_smaller_point(member, n)
    _require(
        smaller is not None, lambda: f"decision tree found no witness for {member}"
    )
    _require(
        any(w > e for w, e in zip(smaller, member)),
        lambda: f"witness {smaller} lies inside the nodal box of {member}",
    )
    _require(
        algebra.compare(eigenvalue(si.domain, smaller), value) == LESS,
        lambda: f"witness {smaller} is not below {value.text()}",
    )
    _require(nu < n_pos, lambda: f"nu {nu} not below N {n_pos}")
    return Verdict(
        **base,
        sharp=False,
        reason=BOX_CASE_ANALYSIS,
        nu=nu,
        witness={"smaller_point": smaller},
    )


def sharp_positions(verdicts: list[Verdict]) -> list[int]:
    return [v.position for v in verdicts if v.sharp]


def explain(verdicts: list[Verdict], position: int) -> Verdict:
    for v in verdicts:
        if v.position <= position < v.position + v.multiplicity:
            return v
    raise DomainError(f"no verdict covers position {position}")
