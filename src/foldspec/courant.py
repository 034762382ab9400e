"""Courant-sharpness classification of every eigenvalue below a cutoff.

Each level receives exactly one verdict.  Non-sharp verdicts carry a
machine-checked witness (boundary lattice points, a degenerate subdomain
pair, a strict reference-set inclusion, a smaller lattice point outside the
nodal box, or multiplicity > 1); witness verification failures raise
ConsistencyError rather than classifying silently.

classify returns one VerdictTable of columns for every Neumann domain, one
row per level.  The triangle's eigenvalue is the integer z = m^2 + n^2: each
of its reasons is a mask decided from z, the multiplicity and the level's
first member, each witness is checked by an array predicate that names the
first failing row, with no grid and no exact comparison.  Its reference sets
are decided by lemmas in the member's a (see _reference_witnesses), so no
reference point is built.  Every simple box level's smaller point comes
from one array rule over the members, and lies below the level when its
place in the index, whose order is certified exactly, comes first.  Each
group of rows reads nu from one call of nodal.formula_counts.  The table
builds a Verdict only for a row read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import algebra, folding, nodal, qlattice
from .algebra import AlgebraicValue
from .domains import NEUMANN, TRIANGLE, Domain, triangle
from .errors import ConsistencyError, DomainError
from .qlattice import QN, Cutoff, LatticeRegion
from .spectrum import SpectrumIndex, build_index, odd_core_columns

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


def witness(reason: str, points, nu, subdomain, members) -> dict:
    """A verdict's witness from its row's witness points, nu, subdomain name
    and members: the one definition of each reason's shape, filled with a
    row's values by VerdictTable and with placeholders or columns by the CLI."""
    if reason == ODD_BOUNDARY:
        return {"boundary_even_points": points}
    if reason == SUBDOMAIN_MULTIPLICITY:
        return {"subdomain": subdomain, "pairs": points}
    if reason == REFERENCE_SET_STRICT:  # nu is the reference set's size
        return {"reference_size": nu, "extra_point": points[0]}
    if reason == BOX_CASE_ANALYSIS:
        return {"smaller_point": points[0]}
    if reason == MULTIPLE_EIGENVALUE:
        return {"members": members}
    return {}


def subdomain_name(k: int) -> str:
    """The frame subdomain a k-step subdomain witness lives on."""
    return "square" if k == 1 else f"rect_{k}"


@dataclass(frozen=True, eq=False)
class VerdictTable(Sequence):
    """The verdict of every level of a Neumann index as columns, the
    coefficient rows and members being the region's.  core and k are the
    odd core's row and exponent (0 at the ground state); nu is -1 where no
    count is determined; points holds a row's two witness points, or one in
    the first slot (see witness).  A read-only sequence of Verdict, built
    one per row read."""

    region: LatticeRegion
    position: np.ndarray
    multiplicity: np.ndarray
    core: np.ndarray  # (levels, r)
    k: np.ndarray
    sharp: np.ndarray
    reason: np.ndarray  # reason names, dtype object
    nu: np.ndarray
    points: np.ndarray  # (levels, 2, coords)

    def __len__(self) -> int:
        return len(self.reason)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        level = self.region.level(i)
        value, reason, nu, k = level.value, self.reason[i], int(self.nu[i]), int(self.k[i])
        members = list(level.members)
        return Verdict(
            int(self.position[i]), value, int(self.multiplicity[i]), algebra.parity(value),
            AlgebraicValue(value.n, tuple(self.core[i].tolist())), k, bool(self.sharp[i]),
            reason, None if nu < 0 else nu,
            witness(reason, qlattice.tuples(self.points[i]), nu, subdomain_name(k), members),
        )


def classify(domain: Domain, cutoff: Cutoff) -> VerdictTable:
    return classify_index(build_index(domain, cutoff))


def classify_index(si: SpectrumIndex) -> VerdictTable:
    """The verdict of every level of a Neumann index: the ground state and
    odd cores alike for every domain, the other levels by its own rules."""
    domain = si.domain
    if domain.bc != NEUMANN:
        raise DomainError("Courant-sharpness classification covers the Neumann problem")
    region = si.region
    levels = len(si)
    core, k = odd_core_columns(domain.ring, region.coeffs)
    t = VerdictTable(
        region, si.starts + 1, si.multiplicities, core, k,
        sharp=np.zeros(levels, dtype=bool),
        reason=np.empty(levels, dtype=object),
        nu=np.full(levels, -1, dtype=np.int64),
        points=np.zeros((levels, 2, domain.n), dtype=np.int64),
    )
    zero = ~region.coeffs.any(axis=1)
    t.reason[zero] = GROUND_STATE
    t.nu[zero] = 1
    if domain.kind == TRIANGLE:
        _triangle_reasons(t, ~zero)
    else:
        _box_reasons(si, t, ~zero)
    t.sharp[:] = [reason in SHARP_REASONS for reason in t.reason.tolist()]
    return t


def _require_rows(*checks: tuple[np.ndarray, Callable[[int], Exception]]) -> None:
    """Each check is a boolean column ok and the error for a row where ok
    fails, error(i), built only then; the checks come in the order one row
    is checked.  Raises the first failing check's error on the first row
    where any check fails."""
    bad = ~np.array([ok for ok, _ in checks], dtype=bool).reshape(len(checks), -1)
    rows = np.flatnonzero(bad.any(axis=0))
    if len(rows):
        i = int(rows[0])
        raise checks[int(np.flatnonzero(bad[:, i])[0])][1](i)


# ---------------------------------------------------------------------------
# triangle: each reason decided by a mask over all levels


def _triangle_reasons(t: VerdictTable, live: np.ndarray) -> None:
    """The reasons, nu and witness points of the triangle's levels where
    live holds, each reason a mask over them (see the module docstring)."""
    region = t.region
    domain = region.domain
    z = region.coeffs[:, 0]
    d, k, position = t.multiplicity, t.k, t.position
    member = region.members[region.offsets[:-1]]
    # exact in int64: enumerate_below refuses cutoffs of 2^44 or more, so
    # z < 2^44 and every coordinate is below 2^22
    odd = z % 2 == 1
    second = odd & (d == 1) & (member == (1, 0)).all(axis=1)
    boundary = odd & ~second
    even = ~odd & live
    t.reason[boundary] = ODD_BOUNDARY
    t.points[boundary] = _boundary_witnesses(z[boundary], member[boundary])
    t.reason[even & (d > 1)] = MULTIPLE_EIGENVALUE

    # even and simple: fold the member k times to its core (cm, cn)
    simple = np.flatnonzero(even & (d == 1))
    cm, cn = _fold(member[simple], k[simple]).T
    off_axis = cn != 0
    sub = simple[off_axis]
    p, q = _subdomain_pairs(z[sub], k[sub], cm[off_axis], cn[off_axis])
    t.reason[sub] = SUBDOMAIN_MULTIPLICITY
    t.points[sub] = np.stack([np.column_stack([p, q]), np.column_stack([q, p])], axis=1)
    # a core (m, 0) ends the unfolding chain of an odd axis point
    explicit = ~off_axis & (cm == 1) & (k[simple] <= 3)
    reference = simple[~off_axis & ~explicit]
    explicit = simple[explicit]

    second = np.flatnonzero(second)
    t.reason[second] = ORTHOGONALITY_SECOND
    t.reason[explicit] = EXPLICIT_COUNT
    counted = np.concatenate([second, explicit])
    t.nu[counted] = nu = nodal.formula_counts(domain, member[counted])
    n_pos = position[counted]
    _require_rows((nu == n_pos, lambda i: ConsistencyError(
        f"{'lambda_2 nodal count' if i < len(second) else 'explicit count'} "
        f"{nu[i]} != N {n_pos[i]}")))

    t.reason[reference] = REFERENCE_SET_STRICT
    t.nu[reference] = nu = nodal.formula_counts(domain, member[reference])
    t.points[reference, 0] = _reference_witnesses(
        z[reference], member[reference], position[reference], nu
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
    """Each row of triangle quantum numbers folded k times by fold_rows,
    which refuses the first row met with a - b odd."""
    m = m.copy()
    for step in range(int(k.max(initial=0))):
        m[k > step] = folding.fold_rows(triangle(), m[k > step])
    return m


def _subdomain_pairs(
    z: np.ndarray, k: np.ndarray, cm: np.ndarray, cn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The witness pairs (p, q), (q, p) of the odd cores (cm, cn), cn != 0,
    of the values z = 2^k (cm^2 + cn^2): two distinct quantum numbers of the
    k-frame subdomain with eigenvalue z, the square's (2p+1)^2 + (2q+1)^2 at
    k = 1 (p, q >= 0) or the rectangle's 2^(k-1) (p^2 + q^2) at k >= 2
    (p >= 1, q odd >= 1)."""
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


def _reference_witnesses(
    z: np.ndarray, m: np.ndarray, position: np.ndarray, nu: np.ndarray
) -> np.ndarray:
    """The strictness witness of each reference-set row, as a (rows, 2)
    array: the row's nu reference points lie below its value z (the member
    aside), and the witness lies below z outside them, so N(z) > nu.

    A member (a, a) has the reference set {(i, j): 0 <= j <= i <= a} and
    the witness (a + 1, 0); a member (a, 0), a = 2h, has the set
    {(h + j, h - i): 0 <= i <= h, |j| <= i} and the witness (a - 1, 2).
    Given z = a^2 + b^2, two lemmas hold of every point of either set, so no
    point is built:

      * it is a quantum number p0 >= p1 >= 0: j <= i on the first set, and
        h + j >= h - i >= 0 on the second;
      * it lies below z or is the member: i^2 + j^2 <= 2a^2, with equality
        only at i = j = a; and, as h + j >= 0, (h + j)^2 + (h - i)^2 is at
        most (h + i)^2 + (h - i)^2 = 2h^2 + 2i^2 <= 4h^2, with equality
        only at i = j = h.

    Each row is checked on the integers, in this order: the member's shape,
    the lemmas' hypothesis z = a^2 + b^2, the set's size (a + 1)(a + 2)/2
    or (h + 1)^2 (the map (i, j) -> (h + j, h - i) is one to one) against
    nu, the witness outside the set by the set's definition (a + 1 > a, and
    (a - 1, 2) would need j = h - 1 > i = h - 2) and below z, and nu < N.
    The witness lies below z iff a >= 3 on the first set and h >= 2 on the
    second, which the levels sent here meet.  Exact in int64, as z < 2^44.
    """
    a, b = m[:, 0], m[:, 1]
    h = a // 2
    diagonal = a == b
    ex = np.where(diagonal, a + 1, a - 1)
    ey = np.where(diagonal, 0, 2)
    w = np.column_stack([ex, ey])
    size = np.where(diagonal, (a + 1) * (a + 2) // 2, (h + 1) ** 2)
    shape = (a >= b) & (b >= 0) & (diagonal | ((b == 0) & (a % 2 == 0)))
    inside = (ey >= 0) & np.where(diagonal, (ey <= ex) & (ex <= a), np.abs(ex - h) <= h - ey)

    def row(x: np.ndarray, i: int) -> QN:
        return tuple(x[i].tolist())

    _require_rows(
        (shape, lambda i: ConsistencyError(f"unexpected reference shape {row(m, i)}")),
        (a * a + b * b == z, lambda i: ConsistencyError(
            f"reference member {row(m, i)} has value {a[i] ** 2 + b[i] ** 2}, not {z[i]}")),
        (size == nu, lambda i: ConsistencyError(f"reference set size {size[i]} != nu {nu[i]}")),
        (~inside, lambda i: ConsistencyError(
            f"strictness witness {row(w, i)} inside reference set")),
        ((ex >= ey) & (ey >= 0) & (ex * ex + ey * ey < z), lambda i: ConsistencyError(
            f"strictness witness {row(w, i)} is not below {z[i]}")),
        (nu < position, lambda i: ConsistencyError(f"nu {nu[i]} not below N {position[i]}")),
    )
    return w


# ---------------------------------------------------------------------------
# boxes


def _box_witnesses(m: np.ndarray) -> np.ndarray:
    """The paper's smaller lattice point outside the nodal box of each
    member row m: m[j] + 1 at j, every other entry 0, where j is the first
    ascent m[j] < m[j + 1], or the first minimum where m has none.  For
    n = 2, a row (m1, m2) with m1 > m2 takes (0, 3) if m1 > 3, else (4, 0),
    at m2 = 2 and (0, 2) at m2 = 1.  A row of zeros is no witness."""
    ascent = m[:, :-1] < m[:, 1:]
    j = np.where(ascent.any(axis=1), ascent.argmax(axis=1), m.argmin(axis=1))
    rows = np.arange(len(m))
    w = np.zeros_like(m)
    w[rows, j] = m[rows, j] + 1
    if m.shape[1] == 2:
        m1, m2 = m.T
        w[(m1 > m2) & (m2 == 2)] = (4, 0)
        w[(m1 > 3) & (m2 == 2)] = (0, 3)
        w[(m1 > m2) & (m2 == 1)] = (0, 2)
    return w


def _box_reasons(si: SpectrumIndex, t: VerdictTable, live: np.ndarray) -> None:
    """The reasons, nu and witness points of the box's levels where live
    holds: a sharp candidate's count, or a smaller point outside the nodal
    box, found below the level by its place in the index's exact order."""
    region = t.region
    domain = region.domain
    n = domain.n
    t.reason[live & (t.multiplicity > 1)] = MULTIPLE_EIGENVALUE
    simple = np.flatnonzero(live & (t.multiplicity == 1))
    m = region.members[region.offsets[simple]]
    second = (m == (1,) + (0,) * (n - 1)).all(axis=1)
    explicit = np.zeros_like(second)
    for c in ((1, 1), (2, 1)) if n == 2 else ():
        explicit |= (m == c).all(axis=1)
    sharp = second | explicit
    t.nu[simple] = nodal.formula_counts(domain, m)
    nu, n_pos = t.nu[simple], t.position[simple]
    w = _box_witnesses(m)
    # the index's order is exact; a witness it does not hold (-1) lies at or
    # above the cutoff
    at = si.level_indices(algebra.coefficient_rows(domain.ring, w))
    below = (at >= 0) & (at < simple)

    def member(i: int) -> QN:
        return tuple(m[i].tolist())

    def point(i: int) -> QN:
        return tuple(w[i].tolist())

    def value(i: int) -> str:
        return algebra.coeffs_text(domain.ring, tuple(region.coeffs[simple[i]].tolist()))

    _require_rows(
        (~sharp | (nu == n_pos), lambda i: ConsistencyError(
            f"sharp candidate {member(i)}: nu {nu[i]} != N {n_pos[i]}")),
        (sharp | w.any(axis=1), lambda i: ConsistencyError(
            f"decision tree found no witness for {member(i)}")),
        (sharp | (w > m).any(axis=1), lambda i: ConsistencyError(
            f"witness {point(i)} lies inside the nodal box of {member(i)}")),
        (sharp | below, lambda i: ConsistencyError(
            f"witness {point(i)} is not below {value(i)}")),
        (sharp | (nu < n_pos), lambda i: ConsistencyError(f"nu {nu[i]} not below N {n_pos[i]}")),
    )
    t.reason[simple] = BOX_CASE_ANALYSIS
    t.reason[simple[second]] = ORTHOGONALITY_SECOND
    t.reason[simple[explicit]] = EXPLICIT_COUNT
    t.points[simple[~sharp], 0] = w[~sharp]


def sharp_positions(verdicts: VerdictTable) -> list[int]:
    return verdicts.position[verdicts.sharp].tolist()


def explain(verdicts: VerdictTable, position: int) -> Verdict:
    """The verdict of the level that covers a spectral position."""
    i = int(np.searchsorted(verdicts.position, position, side="right")) - 1
    if i < 0 or position >= verdicts.position[i] + verdicts.multiplicity[i]:
        raise DomainError(f"no verdict covers position {position}")
    return verdicts[i]
