"""Courant-sharpness classification of every eigenvalue below a cutoff.

Each level receives exactly one verdict.  Non-sharp verdicts carry a
machine-checked witness (boundary lattice points, a degenerate subdomain
pair, a strict reference-set inclusion, a smaller lattice point outside the
nodal box, or multiplicity > 1); witness verification failures raise
ConsistencyError rather than classifying silently.

The triangle is classified as columns, one row per level of the index: its
eigenvalue is the integer z = m^2 + n^2, so each reason is a mask decided
from z, the multiplicity and the level's first member, each witness is
checked by an array predicate that names the first failing row, and every
nu comes from a closed form; the engine runs no grid and no exact
comparison.  Only the reference sets are checked level by level, each over
an int64 point array.  classify returns Verdict objects built from those
columns; the CLI writes its rows from the columns directly.  Box levels are
classified one at a time, their witnesses compared in Z[gamma^2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import algebra, nodal, qlattice
from .algebra import LESS, AlgebraicValue
from .domains import NEUMANN, TRIANGLE, Domain, eigenvalue, triangle
from .errors import ConsistencyError, DomainError, FoldParityError
from .qlattice import QN, Cutoff, LatticeRegion
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
    if domain.kind == TRIANGLE:
        return classify_triangle(si).verdicts()
    return [_classify_box_level(si, lv, si.position_at(i)) for i, lv in enumerate(si.levels)]


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


def _require_rows(*checks: tuple[np.ndarray, Callable[[int], Exception]]) -> None:
    """The array form of _require.  Each check is a boolean column ok and the
    error for a row where ok fails, error(i), built only then; the checks
    come in the order one row is checked.  Raises the first failing check's
    error on the first row where any check fails."""
    bad = ~np.array([ok for ok, _ in checks], dtype=bool).reshape(len(checks), -1)
    rows = np.flatnonzero(bad.any(axis=0))
    if len(rows):
        i = int(rows[0])
        raise checks[int(np.flatnonzero(bad[:, i])[0])][1](i)


# ---------------------------------------------------------------------------
# triangle: one row per level, each reason decided by a mask over all rows


@dataclass(frozen=True, eq=False)
class TriangleVerdicts:
    """The verdict of every level of the Neumann triangle, as columns.

    value is the integer eigenvalue z = m^2 + n^2, core and k its odd part
    and exponent (both 0 for the ground state); nu is -1 where no count is
    determined.  points holds two witness points per row: the boundary
    points of odd_boundary, the pairs of subdomain_multiplicity, and the
    strictness point of reference_set_strict in its first slot, with the
    reference set's size in size.  The witness of multiple_eigenvalue is
    the level's members in region.
    """

    region: LatticeRegion
    position: np.ndarray
    value: np.ndarray
    multiplicity: np.ndarray
    core: np.ndarray
    k: np.ndarray
    sharp: np.ndarray
    reason: np.ndarray  # reason names, dtype object
    nu: np.ndarray
    points: np.ndarray  # (levels, 2, 2)
    size: np.ndarray

    def verdicts(self) -> list[Verdict]:
        """One Verdict per row."""
        members = qlattice.tuples(self.region.members)
        bounds = self.region.offsets.tolist()
        columns = (
            self.position, self.value, self.multiplicity, self.core, self.k,
            self.sharp, self.reason, self.nu, self.points, self.size,
        )
        out = []
        for i, (position, z, d, core, k, sharp, reason, nu, points, size) in enumerate(
            zip(*(c.tolist() for c in columns))
        ):
            witness: dict = {}
            if reason == ODD_BOUNDARY:
                witness = {"boundary_even_points": list(map(tuple, points))}
            elif reason == SUBDOMAIN_MULTIPLICITY:
                witness = {"subdomain": subdomain_name(k), "pairs": list(map(tuple, points))}
            elif reason == REFERENCE_SET_STRICT:
                witness = {"reference_size": size, "extra_point": tuple(points[0])}
            elif reason == MULTIPLE_EIGENVALUE:
                witness = {"members": members[bounds[i] : bounds[i + 1]]}
            out.append(Verdict(
                position, AlgebraicValue(1, (z,)), d, "odd" if z % 2 else "even",
                AlgebraicValue(1, (core,)), k, sharp, reason, None if nu < 0 else nu, witness,
            ))
        return out


def subdomain_name(k: int) -> str:
    """The frame subdomain a k-step subdomain witness lives on."""
    return "square" if k == 1 else f"rect_{k}"


def classify_triangle(si: SpectrumIndex) -> TriangleVerdicts:
    """The verdict of every level of a Neumann triangle index.

    Each reason is a mask over all levels, decided from the integer
    eigenvalue z, its multiplicity and the level's first member; each
    witness is checked by an array predicate that names the first failing
    row.  Only the few reference-set levels are checked one at a time.
    """
    domain = si.domain
    if domain != triangle():
        raise DomainError(
            f"classify_triangle takes a triangle-neumann index, not {domain.label()}"
        )
    region = si.region
    z = region.coeffs[:, 0]
    d = si.multiplicities
    position = si.starts + 1
    member = region.members[si.starts]
    # exact in int64: enumerate_below refuses cutoffs of 2^44 or more, so
    # z < 2^44 and every coordinate is below 2^22.  z = 2^k * core with core
    # odd: the lowest set bit of z is 2^k
    k = np.where(z > 0, np.frexp(z & -z)[1] - 1, 0)
    core = z >> k
    levels = len(z)
    reason = np.empty(levels, dtype=object)
    nu = np.full(levels, -1, dtype=np.int64)
    points = np.zeros((levels, 2, 2), dtype=np.int64)
    size = np.zeros(levels, dtype=np.int64)

    zero = z == 0
    odd = z % 2 == 1
    second = odd & (d == 1) & (member == (1, 0)).all(axis=1)
    boundary = odd & ~second
    even = ~odd & ~zero
    reason[zero] = GROUND_STATE
    nu[zero] = 1
    reason[boundary] = ODD_BOUNDARY
    points[boundary] = _boundary_witnesses(z[boundary], member[boundary])
    reason[even & (d > 1)] = MULTIPLE_EIGENVALUE

    # even and simple: fold the member k times to its core (cm, cn)
    simple = np.flatnonzero(even & (d == 1))
    cm, cn = _fold(member[simple], k[simple]).T
    off_axis = cn != 0
    sub = simple[off_axis]
    p, q = _subdomain_pairs(z[sub], k[sub], cm[off_axis], cn[off_axis])
    reason[sub] = SUBDOMAIN_MULTIPLICITY
    points[sub] = np.stack([np.column_stack([p, q]), np.column_stack([q, p])], axis=1)
    # a core (m, 0) ends the unfolding chain of an odd axis point
    explicit = ~off_axis & (cm == 1) & (k[simple] <= 3)
    reference = simple[~off_axis & ~explicit]
    explicit = simple[explicit]

    for at, name, label in (
        (np.flatnonzero(second), ORTHOGONALITY_SECOND, "lambda_2 nodal count"),
        (explicit, EXPLICIT_COUNT, "explicit count"),
    ):
        reason[at] = name
        nu[at] = [nodal.count_formula(domain, m).count for m in map(tuple, member[at].tolist())]
        counted, n_pos = nu[at], position[at]
        _require_rows(
            (counted == n_pos,
             lambda i: ConsistencyError(f"{label} {counted[i]} != N {n_pos[i]}")),
        )

    reason[reference] = REFERENCE_SET_STRICT
    for i in reference.tolist():
        nu[i], size[i], points[i, 0] = _reference_set_verdict(
            domain, int(z[i]), tuple(member[i].tolist()), int(position[i])
        )
    sharp = zero | second
    sharp[explicit] = True
    return TriangleVerdicts(
        region, position, z, d, core, k, sharp, reason, nu, points, size
    )


def _boundary_witnesses(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Two distinct even lattice points on the right boundary of Q(z) for
    each odd value z with member m, as a (rows, 2, 2) array, checked on the
    integers: x^2 + y^2 < z <= (x + 1)^2 + y^2."""
    a, b = m[:, 0], m[:, 1]
    w1 = np.column_stack([a - 1, b])
    w2 = np.where((b >= 1)[:, None], np.column_stack([a, b - 1]),
                  np.column_stack([a - 1, np.full_like(a, 2)]))
    w = np.stack([w1, w2], axis=1)
    x, y, zz = w[..., 0], w[..., 1], z[:, None]
    ok = (x >= y) & (y >= 0) & ((x - y) % 2 == 0) & (x * x + y * y < zz) & (
        zz <= (x + 1) ** 2 + y * y
    )

    def failed(j: int) -> Callable[[int], Exception]:
        return lambda i: ConsistencyError(
            f"boundary witness {tuple(w[i, j].tolist())} failed for {z[i]}"
        )

    _require_rows(
        (ok[:, 0], failed(0)),
        (ok[:, 1], failed(1)),
        ((w1 != w2).any(axis=1), lambda i: ConsistencyError("boundary witnesses coincide")),
    )
    return w


def _fold(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Each row of triangle quantum numbers folded k times, as
    folding.fold_qn folds one: (a, b) -> ((a + b)/2, (a - b)/2).  A row
    met with a - b odd raises FoldParityError, as fold_qn does; the first
    such row is named."""
    m = m.copy()
    bad = np.zeros(len(m), dtype=bool)
    for step in range(int(k.max(initial=0))):
        live = (k > step) & ~bad
        bad |= live & ((m[:, 0] - m[:, 1]) % 2 == 1)
        live &= ~bad
        a, b = m[live, 0], m[live, 1]
        m[live] = np.column_stack([(a + b) // 2, (a - b) // 2])
    if bad.any():
        row = tuple(m[np.flatnonzero(bad)[0]].tolist())
        raise FoldParityError(f"{row} has odd parity and cannot be folded")
    return m


def _subdomain_pairs(
    z: np.ndarray, k: np.ndarray, cm: np.ndarray, cn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The witness pairs (p, q), (q, p) of the odd cores (cm, cn), cn != 0,
    of the values z = 2^k (cm^2 + cn^2): two distinct quantum numbers of the
    k-frame subdomain with eigenvalue z, the square's (2p+1)^2 + (2q+1)^2 at
    k = 1 (p, q >= 0) or the rectangle's 2^(k-1) (p^2 + q^2) at k >= 2
    (p >= 1, q odd >= 1), as folding.square_subdomain_value and
    rect_subdomain_value state them."""
    square = k == 1
    p = np.where(square, (cm + cn - 1) // 2, cm + cn)
    q = np.where(square, (cm - cn - 1) // 2, cm - cn)
    checks = []
    for x, y in ((p, q), (q, p)):
        sub = np.where(square, (2 * x + 1) ** 2 + (2 * y + 1) ** 2,
                       (x * x + y * y) << np.maximum(k - 1, 0))
        checks += [
            (np.where(square, (x >= 0) & (y >= 0), (x >= 1) & (y >= 1) & (y % 2 == 1)),
             lambda i: DomainError(
                 "square subdomain needs p, q >= 0" if square[i]
                 else "rect subdomain needs p >= 1 and odd q >= 1")),
            (sub == z, lambda i, sub=sub: ConsistencyError(
                f"subdomain value {sub[i]} != {z[i]}")),
        ]
    checks.append((p != q, lambda i: ConsistencyError("subdomain witness pair degenerate")))
    _require_rows(*checks)
    return p, q


def _reference_set_verdict(
    domain: Domain, z: int, member: QN, position: int
) -> tuple[int, int, QN]:
    """The nu reference points lie below z (the member aside) and extra
    lies below it outside them, so N(z) > nu: (nu, reference size, extra).
    Every reference point is checked, as a row of an int64 array."""
    a, b = member
    if a == b:
        ref = qlattice.reference_points_diagonal(a)
        extra = (a + 1, 0)
    else:
        _require(b == 0 and a % 2 == 0, lambda: f"unexpected reference shape {member}")
        ref = qlattice.reference_points_axis(a // 2)
        extra = (a - 1, 2)
    nu = nodal.count_formula(domain, member).count
    p0, p1 = ref[:, 0], ref[:, 1]

    def first(bad: np.ndarray) -> QN:
        return tuple(ref[np.flatnonzero(bad)[0]].tolist())

    bad = (p1 < 0) | (p0 < p1)
    _require(
        not bad.any(),
        lambda: f"reference point {first(bad)} is not a {domain.label()} "
        "quantum number",
    )
    # exact in int64: enumerate_below refuses cutoffs of 2^44 or more, so the
    # value z is below 2^44; the builders' coordinates are at most a, with
    # a^2 <= z, so p0^2 + p1^2 < 2^45
    above = (p0 * p0 + p1 * p1 >= z) & ((p0 != a) | (p1 != b))
    _require(
        not above.any(),
        lambda: f"reference point {first(above)} is not below {z}",
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
        lambda: f"strictness witness {extra} is not below {z}",
    )
    _require(nu < position, lambda: f"nu {nu} not below N {position}")
    return nu, size, extra


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
