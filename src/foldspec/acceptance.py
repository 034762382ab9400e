"""Acceptance criteria, runnable from both pytest and `foldspec selftest`.

Each criterion verifies one headline claim end to end; every expected value
is either exact arithmetic or certified by an independent oracle.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import algebra, courant, eigenfn, folding, nodal, qlattice, spectrum
from .domains import DIRICHLET, TRIANGLE, Domain, box, qn_parity, triangle
from .errors import FoldParityError


@dataclass
class CriterionResult:
    ok: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    cid: str
    name: str
    run: Callable[[], CriterionResult]


def _fail(detail: str) -> CriterionResult:
    return CriterionResult(False, detail)


def _ok(detail: str) -> CriterionResult:
    return CriterionResult(True, detail)


# -- 1: triangle Courant-sharp set -------------------------------------------


def criterion_triangle_sharp_set() -> CriterionResult:
    t0 = time.perf_counter()
    verdicts = courant.classify(triangle(), 5000)
    elapsed = time.perf_counter() - t0
    sharp = [(v.position, float(v.value)) for v in verdicts if v.sharp]
    if sharp != [(1, 0.0), (2, 1.0), (3, 2.0), (4, 4.0), (6, 8.0)]:
        return _fail(f"sharp set {sharp}")
    missing = [
        v.position for v in verdicts if not v.sharp and not v.witness
    ]
    if missing:
        return _fail(f"non-sharp levels without witness at positions {missing}")
    if elapsed >= 30.0:
        return _fail(f"took {elapsed:.1f}s (limit 30s)")
    return _ok(
        f"{len(verdicts)} levels below 5000; sharp positions 1,2,3,4,6; "
        f"{elapsed:.1f}s"
    )


# -- 2: box Courant-sharp sets ------------------------------------------------


def criterion_box_sharp_sets() -> CriterionResult:
    t0 = time.perf_counter()
    cases = [(2, 2000, [1, 2, 4, 6]), (3, 500, [1, 2]), (4, 500, [1, 2])]
    details = []
    for n, cutoff, want in cases:
        verdicts = courant.classify(box(n), cutoff)
        got = courant.sharp_positions(verdicts)
        if got != want:
            return _fail(f"n={n}: sharp positions {got}, wanted {want}")
        details.append(f"n={n}: {len(verdicts)} levels")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        return _fail(f"took {elapsed:.1f}s (limit 60s)")
    return _ok("; ".join(details) + f"; {elapsed:.1f}s")


# -- 3: nodal formula vs grid oracle ------------------------------------------


def criterion_nodal_formula_vs_grid() -> CriterionResult:
    checked = 0
    pinned = {
        (triangle(), (3, 3)): 10,
        (triangle(), (6, 0)): 16,
        (triangle(), (5, 0)): 12,
        (box(2), (1, 1)): 4,
        (box(2), (2, 1)): 6,
    }
    for (dom, qn), want in pinned.items():
        if nodal.count_formula(dom, qn).count != want:
            return _fail(f"formula {dom.label()} {qn} != {want}")
    for n in (2, 3):
        dom = box(n)
        for m in itertools.product(range(9), repeat=n):
            grid = nodal.count_grid(eigenfn.basis_fn(dom, m)).count
            formula = nodal.count_formula(dom, m).count
            if grid != formula:
                return _fail(f"box n={n} {m}: grid {grid} != formula {formula}")
            checked += 1
    dom = triangle()
    for m in range(1, 7):
        for qn in ((m, m), (2 * m, 0), (2 * m - 1, 0)):
            grid = nodal.count_grid(eigenfn.basis_fn(dom, qn)).count
            formula = nodal.count_formula(dom, qn).count
            if grid != formula:
                return _fail(f"triangle {qn}: grid {grid} != formula {formula}")
            checked += 1
    return _ok(f"{checked} basis functions, grid == formula, all grids stable")


# -- 4: multiplicity arithmetic ------------------------------------------------


def criterion_multiplicity_arithmetic() -> CriterionResult:
    for z in range(2001):
        base = spectrum.r2(z)
        for k in range(1, 7):
            if spectrum.r2((1 << k) * z) != base:
                return _fail(f"r2({z}) != r2(2^{k} * {z})")
    for n in (3, 5):
        si = spectrum.build_index(box(n), 200)
        worst = max(lv.multiplicity for lv in si.levels)
        if worst != 1:
            return _fail(f"n={n}: found multiplicity {worst}")
    checked = 0
    for n in (2, 4):
        si = spectrum.build_index(box(n), 200)
        for lv in si.levels:
            by_fact = spectrum.multiplicity_by_factorization(n, lv.value)
            if by_fact != lv.multiplicity:
                return _fail(
                    f"n={n} {lv.value.text()}: factorization {by_fact} != "
                    f"enumeration {lv.multiplicity}"
                )
            checked += 1
    return _ok(f"r2 doubling to 2000; odd-n simple; {checked} even-n levels factor")


# -- 5: partitions and deficiency bounds --------------------------------------


def criterion_partitions_and_deficiency() -> CriterionResult:
    # the closed forms against the triangle's recursion and the box's cuts
    counted = [(triangle(), k, m) for k, m in enumerate(folding.boundary_word_counts(30))]
    for n, k in itertools.product((2, 3), range(9)):
        facets = folding.build_frame(box(n), k).facets
        cuts = [len({s.frac for s in facets if s.axis == a}) + 1 for a in range(n)]
        counted.append((box(n), k, math.prod(cuts)))
    for dom, k, m in counted:
        if folding.partition_count(dom, k) != m:
            return _fail(f"M({k}) of {dom.label()} is not the counted {m}")
    checked = 0
    for dom in (triangle(), box(2), box(3)):
        si = spectrum.build_index(dom, 200)
        for lv in si.levels:
            if lv.multiplicity != 1 or lv.value.is_zero():
                continue
            report = nodal.deficiency_bound(si, lv.value)
            nu = nodal.count_auto(dom, lv.members[0]).count
            delta = si.position_of(lv.value) - nu
            if delta < 0:
                return _fail(f"{dom.label()} {lv.value.text()}: delta {delta} < 0")
            if report.bound_unfolding > delta:
                return _fail(
                    f"{dom.label()} {lv.value.text()}: unfolding bound "
                    f"{report.bound_unfolding} > delta {delta}"
                )
            if report.bound_boundary is not None and report.bound_boundary > delta:
                return _fail(
                    f"{dom.label()} {lv.value.text()}: boundary bound "
                    f"{report.bound_boundary} > delta {delta}"
                )
            checked += 1
    return _ok(
        f"M(k) counted for the triangle k<=30 (M(30) = {counted[30][2]}), box2 and "
        f"box3 k<=8: {len(counted)} counts; bounds <= delta on {checked} simple levels"
    )


# -- 6: frame vanishing --------------------------------------------------------


def criterion_frame_vanishing() -> CriterionResult:
    # every member of every odd level, unfolded k times, against the
    # k-frame; a combination of one level's members vanishes wherever each
    # member does, by linearity, so this covers every combo of those levels
    members = 0
    for dom in (triangle(), box(2), box(3)):
        si = spectrum.build_index(dom, 120)
        levels = [np.array(lv.members) for lv in si.levels if algebra.parity(lv.value) == "odd"]
        for k in range(5):
            frame = folding.build_frame(dom, k)
            for rows in levels:
                unfolded = [(1.0, tuple(m)) for m in rows.tolist()]
                failing = eigenfn.frame_vanishing(eigenfn.combo(dom, unfolded), frame)
                if failing is not None:
                    m, facet = failing
                    return _fail(f"{dom.label()} {m} k={k}: does not vanish on {facet}")
                members += len(unfolded)
            levels = [folding.unfold_rows(dom, rows) for rows in levels]
    return _ok(
        f"{members} unfolded members of the odd levels below 120, k=0..4, "
        f"vanish exactly on their k-frames, and so every combo of them"
    )


# -- 7: folding algebra ---------------------------------------------------------
#
# The quantum-number maps are checked on whole matrices, each coefficient row
# computed once.  A value v != 0 is gamma^(2k) times a unique odd core, so
# v' = gamma^2 v exactly when v and v' share an odd core and k' = k + 1.
#
# Points are in normalised coordinates: units of pi on the triangle, and
# t_j = x_j / l_j on the box, where a basis function is prod cos(pi m_j t_j)
# and gamma^n = 2 turns into the factor 1/2 of the wrapped axis.


def unfold_matrix(dom: Domain) -> list[list[Fraction]]:
    """U: domain -> half domain; (x, y) -> ((x+y)/2, (x-y)/2) on the
    triangle, t -> (t_n / 2, t_1, ..., t_(n-1)) on the box."""
    if dom.kind == TRIANGLE:
        return [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]]
    n = dom.n
    return [[Fraction(j == (i - 1) % n) / (2 if i == 0 else 1) for j in range(n)] for i in range(n)]


def fold_matrix(dom: Domain) -> list[list[Fraction]]:
    """F = U^(-1): half domain -> domain."""
    if dom.kind == TRIANGLE:
        return [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    n = dom.n
    return [[Fraction(j == (i + 1) % n) * (2 if i == n - 1 else 1) for j in range(n)] for i in range(n)]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def cosine_terms(f: eigenfn.Combo, matrix=None) -> dict[tuple[Fraction, ...], Fraction]:
    """The Neumann combo f composed with t -> matrix t (the identity when
    None), as a sum of w cos(pi l.t): {l: w} with the rational form l taken
    up to sign and w a Fraction.  prod_j cos(theta_j) is 2^(1-n) times the
    sum of cos(theta_1 +- theta_2 ... +- theta_n) over the sign choices."""
    n = f.domain.n
    matrix = matrix or _identity(n)
    out: dict[tuple[Fraction, ...], Fraction] = {}
    for k, c in eigenfn.normalised_terms(f).items():
        for signs in itertools.product((1, -1), repeat=n - 1):
            form = [
                sum(s * kj * row[i] for s, kj, row in zip((1, *signs), k, matrix))
                for i in range(n)
            ]
            if next((x for x in form if x), 0) < 0:
                form = [-x for x in form]
            key = tuple(form)
            out[key] = out.get(key, 0) + Fraction(c) / 2 ** (n - 1)
    return {l: w for l, w in out.items() if w}


def _fold_pair_failure(dom: Domain, m: np.ndarray) -> str | None:
    """The first row of m that breaks the folding algebra, or None.  U(m)
    must be a quantum number with value gamma^2 value(m) and F(U(m)) = m;
    so must F(m), with gamma^-2 and U(F(m)) = m, on the rows of even value
    (c_0 even), where fold_rows also checks that the lattice parity agrees."""
    ring, maps = dom.ring, {"unfold": folding.unfold_rows, "fold": folding.fold_rows}
    value = algebra.coefficient_rows(ring, m)
    core, k = spectrum.odd_core_columns(ring, value)
    even, zero = value[:, 0] % 2 == 0, ~value.any(axis=1)
    for go, back, sel, step in (("unfold", "fold", slice(None), 1), ("fold", "unfold", even, -1)):
        src = m[sel]
        try:
            moved = maps[go](dom, src)
            valid = (moved >= 0).all(axis=1)
            if dom.kind == TRIANGLE:
                valid &= moved[:, 0] >= moved[:, 1]
            moved_value = algebra.coefficient_rows(ring, moved)
            moved_core, moved_k = spectrum.odd_core_columns(ring, moved_value)
            # v' = gamma^(2 step) v: the same odd core, and k' = k + step unless v = 0
            scaled = (moved_core == core[sel]).all(axis=1) & ((moved_k == k[sel] + step) | zero[sel])
            ok = valid & scaled
            ok[ok] = (maps[back](dom, moved[ok]) == src[ok]).all(axis=1)
        except FoldParityError as err:
            return str(err)
        for i in np.flatnonzero(~ok)[:1]:
            row, out = tuple(src[i].tolist()), tuple(moved[i].tolist())
            if not valid[i]:
                return f"{go}({row}) = {out} is not a quantum number"
            if not scaled[i]:
                return f"value({go}({row})) is not gamma^{2 * step} * value"
            return f"{back}({go}({row})) != {row}"
    return None


def criterion_folding_algebra() -> CriterionResult:
    rng = np.random.default_rng(7)
    checked = 0
    for name, dom, qns in (
        ("triangle", triangle(), [(a, b) for a in range(21) for b in range(a + 1)]),
        *((f"box n={n}", box(n), list(itertools.product(range(21), repeat=n))) for n in (2, 3, 4)),
        *((f"box n={n}", box(n), rng.integers(0, 21, size=(50_000, n))) for n in (5, 6)),
    ):
        err = _fold_pair_failure(dom, np.array(qns, dtype=np.int64))
        if err:
            return _fail(f"{name}: {err}")
        checked += len(qns)

    # the pointwise folding laws, as identities of trig polynomials:
    # unfold_fn(phi) o U = phi, i.e. (U phi)(q) = phi(F(q)) on the half
    # domain, and fold_fn(phi) = phi o U
    laws = 0
    for dom, qns in (
        (triangle(), [(a, b) for a in range(11) for b in range(a + 1)]),
        (box(2), list(itertools.product(range(6), repeat=2))),
        (box(3), list(itertools.product(range(4), repeat=3))),
    ):
        u, f_map = unfold_matrix(dom), fold_matrix(dom)
        u_f = [[sum(x * y for x, y in zip(row, col)) for col in zip(*f_map)] for row in u]
        if u_f != _identity(dom.n):
            return _fail(f"{dom.label()}: U F is not the identity")
        for qn in qns:
            f = eigenfn.basis_fn(dom, qn)
            if cosine_terms(eigenfn.unfold_fn(f), u) != cosine_terms(f):
                return _fail(f"{dom.label()} {qn}: unfolding law fails")
            if qn_parity(dom, qn) == "even":
                if cosine_terms(eigenfn.fold_fn(f)) != cosine_terms(f, u):
                    return _fail(f"{dom.label()} {qn}: folding law fails")
            laws += 1
    return _ok(f"{checked} quantum numbers; pointwise laws exact on {laws} basis functions")


# -- 8: Dirichlet variants -------------------------------------------------------


def criterion_dirichlet_identities() -> CriterionResult:
    dom = box(2, DIRICHLET)
    si = spectrum.build_index(dom, 300)
    pairs = 0
    seen_six = False
    for lv in si.levels:
        value = lv.value
        if algebra.parity(value) != "even" or lv.multiplicity != 1:
            continue
        folded = algebra.scale_gamma2(value, -1)
        fl = si.level_of(folded)
        if fl is None or fl.multiplicity != 1:
            continue
        check = nodal.dirichlet_deficiency_check(si, value)
        if check.lhs != check.rhs:
            return _fail(
                f"identity fails at {value.text()}: {check.lhs} != {check.rhs}"
            )
        if value.coeffs == (6,):
            seen_six = True
            if check.lhs != 0:
                return _fail(f"delta(6) = {check.lhs}, expected 0")
        pairs += 1
    if not seen_six:
        return _fail("the hand-checked value 6 was not among the tested pairs")

    flips = 0
    for dom in (triangle(DIRICHLET), box(2, DIRICHLET), box(3, DIRICHLET)):
        si = spectrum.build_index(dom, 200)
        for lv in si.levels:
            for m in lv.members:
                got = eigenfn.symmetry_check(eigenfn.basis_fn(dom, m))
                want = "even" if algebra.parity(lv.value) == "odd" else "odd"
                if got != want:
                    return _fail(
                        f"{dom.label()} {m}: symmetry {got}, expected {want}"
                    )
                flips += 1
    return _ok(f"{pairs} simple-pair identities hold exactly; {flips} parity flips")


# -- 9: half-triangle spectrum ----------------------------------------------------


def criterion_dnn_counting() -> CriterionResult:
    dnn = spectrum.build_dnn_index(2001)
    # |O(lambda)| from the lattice side: points with m - n odd, each value once
    pts = qlattice.enumerate_below(triangle(), 2001).members
    odd_values = np.sort(algebra.coefficient_rows(1, pts[(pts[:, 0] - pts[:, 1]) % 2 == 1])[:, 0])
    last = -1
    for lam, want in enumerate(np.searchsorted(odd_values, np.arange(2001)).tolist()):
        got = dnn.counting(algebra.integer_value(1, lam)).below
        if got != want:
            return _fail(f"DNN lower count at {lam}: {got} != |O({lam})| = {want}")
        if got < last:
            return _fail(f"DNN lower count decreases at {lam}")
        last = got
    return _ok("DNN lower counting equals odd-lattice size for all lambda <= 2000")


CRITERIA: list[Criterion] = [
    Criterion("1", "triangle Courant-sharp set at cutoff 5000", criterion_triangle_sharp_set),
    Criterion("2", "box Courant-sharp sets (n=2,3,4)", criterion_box_sharp_sets),
    Criterion("3", "nodal formula vs grid oracle", criterion_nodal_formula_vs_grid),
    Criterion("4", "multiplicity arithmetic (r2, odd-n, factorization)", criterion_multiplicity_arithmetic),
    Criterion("5", "partition sizes and deficiency bounds", criterion_partitions_and_deficiency),
    Criterion("6", "frame vanishing of unfolded eigenfunctions", criterion_frame_vanishing),
    Criterion("7", "folding algebra on quantum numbers", criterion_folding_algebra),
    Criterion("8", "Dirichlet deficiency identity and parity flip", criterion_dirichlet_identities),
    Criterion("9", "half-triangle spectrum counting", criterion_dnn_counting),
]
