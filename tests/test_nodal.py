from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st
from scipy import ndimage

from foldspec import algebra, cli, eigenfn, nodal, qlattice, spectrum
from foldspec.eigenfn import product_terms
from foldspec.domains import DIRICHLET, box, triangle
from foldspec.errors import DomainError, GridInstabilityError


def test_formula_examples():
    assert nodal.count_formula(triangle(), (3, 3)).count == 10
    assert nodal.count_formula(triangle(), (6, 0)).count == 16
    assert nodal.count_formula(box(2), (2, 1)).count == 6
    assert nodal.count_formula(box(3), (0, 0, 0)).count == 1


def test_formula_unsupported_shapes():
    with pytest.raises(DomainError):
        nodal.count_formula(triangle(), (3, 1))
    # an odd axis point has straight nodal lines too: (a + 2)^2 // 4 cells
    assert nodal.count_formula(triangle(), (5, 0)).count == 12
    with pytest.raises(DomainError):
        nodal.count_formula(triangle("dirichlet"), (2, 1))


def test_grid_examples():
    assert nodal.count_grid(eigenfn.basis_fn(triangle(), (1, 0))).count == 2
    assert nodal.count_grid(eigenfn.basis_fn(triangle(), (3, 3))).count == 10
    assert nodal.count_grid(eigenfn.basis_fn(box(2), (1, 1))).count == 4
    assert nodal.count_grid(eigenfn.basis_fn(box(2), (2, 1))).count == 6


def test_grid_marks_stability():
    c = nodal.count_grid(eigenfn.basis_fn(triangle(), (4, 2)))
    assert c.method == "grid" and c.stable


def test_grid_resolution_floor():
    with pytest.raises(DomainError):
        nodal.count_grid(eigenfn.basis_fn(triangle(), (1, 0)), resolution=8)


def _count_once(f, cells, halve):
    return nodal._grid_counts(f, (cells,), halve)[0]


def test_grid_instability_is_reported(monkeypatch):
    # counts that never agree under a doubling: the oracle must refuse
    # rather than guess
    f = eigenfn.basis_fn(triangle(), (3, 1))
    cells = []

    def alternating(f, resolutions, halve):
        cells.extend(resolutions)
        return [k % 2 for k in range(len(cells) - len(resolutions), len(cells))]

    monkeypatch.setattr(nodal, "_grid_counts", alternating)
    with pytest.raises(GridInstabilityError, match="after 3 doublings"):
        nodal.count_grid(f, resolution=64)
    assert cells == [64, 128, 256, 512]  # each grid is counted once


def test_undecided_edge_is_refused(monkeypatch):
    # with a rounding margin above sup |f| no interval is ever proven, so
    # every same-sign edge is still undecided at the depth limit
    monkeypatch.setattr(nodal, "_rounding_margin", lambda terms: 4.0)
    monkeypatch.setattr(nodal, "_BISECT_DEPTH", 3)
    f = eigenfn.basis_fn(triangle(), (4, 2))
    with pytest.raises(GridInstabilityError, match="not proven after 3 bisections"):
        nodal.count_grid(f, resolution=64)


def test_undecided_edge_names_its_grid(monkeypatch):
    # both grids of a batch hold undecided edges; the error names the grid
    # of the first one, whichever resolution comes first
    monkeypatch.setattr(nodal, "_rounding_margin", lambda terms: 4.0)
    monkeypatch.setattr(nodal, "_BISECT_DEPTH", 3)
    f = eigenfn.basis_fn(triangle(), (4, 2))
    for resolutions in ((64, 128), (128, 64), (128,)):
        with pytest.raises(GridInstabilityError, match=f"undecided at {resolutions[0]} cells"):
            nodal._grid_counts(f, resolutions, False)


def test_edge_bisection_budget_fails_fast(monkeypatch):
    # the 64-cell grid fits the budget, the doubling live intervals do not
    monkeypatch.setattr(nodal, "_rounding_margin", lambda terms: 4.0)
    monkeypatch.setattr(nodal, "GRID_BUDGET", 1 << 16)
    f = eigenfn.basis_fn(triangle(), (4, 2))
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="edge bisection .* over the budget"):
        nodal.count_grid(f, resolution=64)
    assert time.perf_counter() - t0 < 0.5


def test_proven_joins_pin_eight_triangle_counts():
    # counts the edge-sample joins got wrong or refused: the first three were
    # GridInstabilityError, the other five stable undercounts
    pinned = {
        (16, 4): 47, (16, 10): 40, (18, 8): 54, (8, 2): 18,
        (12, 2): 28, (12, 3): 30, (16, 6): 42, (18, 3): 48,
    }
    for qn, want in pinned.items():
        f = eigenfn.basis_fn(triangle(), qn)
        for res in (None, 64, 512):
            assert nodal.count_grid(f, res).count == want, (qn, res)


def _arrangement_regions(chords) -> int:
    """Regions of the open triangle 0 < y < x < pi cut by straight chords.

    A chord (u, v, c) is the line u x + v y = c pi, with c a Fraction, and
    crosses the interior.  Each chord adds one region, and each interior point
    where r chords meet adds r - 1 more.
    """
    meets: dict[tuple[Fraction, Fraction], set] = {}
    for one, two in itertools.combinations(chords, 2):
        (u1, v1, c1), (u2, v2, c2) = one, two
        det = u1 * v2 - u2 * v1
        if det == 0:
            continue
        x, y = (c1 * v2 - c2 * v1) / det, (u1 * c2 - u2 * c1) / det
        if 0 < y < x < 1:
            meets.setdefault((x, y), set()).update((one, two))
    return 1 + len(chords) + sum(len(through) - 1 for through in meets.values())


def _straight_nodal_chords(qn) -> list[tuple[int, int, Fraction]]:
    """Nodal lines of the triangle's (a, a) and (a, 0) basis functions.

    2 cos ax cos ay vanishes on x, y = (k + 1/2) pi / a, and
    cos ax + cos ay = 2 cos(a(x + y)/2) cos(a(x - y)/2) on x + y and x - y =
    (2k + 1) pi / a; unfolding maps (a, a) to (2a, 0).
    """
    a, b = qn
    if a == b:
        cuts = [Fraction(2 * k + 1, 2 * a) for k in range(a)]
        return [(1, 0, c) for c in cuts] + [(0, 1, c) for c in cuts]
    cuts = [Fraction(2 * k + 1, a) for k in range(a)]
    return [(1, 1, c) for c in cuts] + [(1, -1, c) for c in cuts if c < 1]


STRAIGHT_FAMILIES = [(a, a) for a in range(1, 11)] + [(a, 0) for a in range(1, 21)]


def test_line_arrangement_oracle_is_exact():
    assert _arrangement_regions(_straight_nodal_chords((20, 0))) == 1 + 30 + 90
    assert _arrangement_regions(_straight_nodal_chords((5, 0))) == 1 + 7 + 4
    for qn in STRAIGHT_FAMILIES + [(a, 0) for a in range(21, 42)]:
        chords = _straight_nodal_chords(qn)
        assert _arrangement_regions(chords) == nodal.count_formula(triangle(), qn).count
    # three chords through one interior point add 2 regions there, not 3
    star = [(1, 0, Fraction(1, 2)), (0, 1, Fraction(1, 4)), (1, 1, Fraction(3, 4))]
    assert _arrangement_regions(star) == 1 + 3 + 2


@pytest.mark.parametrize("res", [None, 256, 512, 1024])
def test_grid_matches_line_arrangements(res):
    families = STRAIGHT_FAMILIES if res != 1024 else [(5, 5), (10, 10), (10, 0), (20, 0)]
    for qn in families:
        want = _arrangement_regions(_straight_nodal_chords(qn))
        assert nodal.count_grid(eigenfn.basis_fn(triangle(), qn), res).count == want, qn


def _simple_triangle_levels(cutoff):
    si = spectrum.build_index(triangle(), cutoff)
    return si, [lv for lv in si.levels if lv.multiplicity == 1 and not lv.value.is_zero()]


def test_triangle_counts_agree_across_resolutions():
    # the simple triangle levels of acceptance criterion 5
    _, levels = _simple_triangle_levels(200)
    for lv in levels:
        f = eigenfn.basis_fn(triangle(), lv.members[0])
        default = max(16, 8 * nodal._max_halfperiods(f))
        counts = {nodal.count_grid(f, k * default).count for k in (1, 3, 5)}
        assert len(counts) == 1, (lv.members[0], counts)


@pytest.mark.parametrize("dom", [triangle(), box(2), box(3)], ids=lambda d: d.label())
def test_criterion_5_counts_equal_the_grid_counts(dom):
    # criterion 5 reads nu by count_auto, a closed form on every box level
    # and on the triangle's (a, a) and (a, 0); the grid stays its oracle
    methods = []
    for lv in spectrum.build_index(dom, 200).levels:
        if lv.multiplicity != 1 or lv.value.is_zero():
            continue
        m = lv.members[0]
        auto = nodal.count_auto(dom, m)
        assert auto.count == nodal.count_grid(eigenfn.basis_fn(dom, m)).count, m
        methods.append(auto.method)
    assert "formula" in methods
    assert dom.kind == "triangle" or set(methods) == {"formula"}


def test_triangle_deficiency_band_counts_without_refusal():
    # 403 is the top of the triangle cutoffs of the nodal-deficiency benchmark
    si, levels = _simple_triangle_levels(403)
    for lv in levels:
        nu = nodal.count_grid(eigenfn.basis_fn(triangle(), lv.members[0])).count
        bound = nodal.deficiency_bound(si, lv.value).bound
        assert 0 <= bound <= si.position_of(lv.value) - nu, lv.members[0]


def _signs_and_joins(f, cells0, halve, cut_signs):
    """The sign of f at each cell of the full grid inside the (half)
    triangle, 0 outside, and per axis the same-sign edges that are proven,
    each axis's unproven edges bisected on their own.  cut_signs collects
    the sign of every cut edge."""
    n = max(8, cells0)
    h = math.pi / n
    axes = tuple((np.arange(n) + off) * h for off in nodal._GRID_OFFS[:2])
    ax, ay = axes
    vals = eigenfn.eval_on_axes(f, axes)
    inside = ay[None, :] < ax[:, None]
    if halve:
        inside &= ax[:, None] + ay[None, :] < math.pi
    sign = np.where(inside, np.sign(vals), 0.0).astype(np.int8)
    mag = np.abs(vals)
    terms = product_terms(f)
    eps = nodal._rounding_margin(terms)
    step = max(np.diff(ax).max(), np.diff(ay).max())
    joins = []
    for k, (a, b) in enumerate(((np.s_[:-1], np.s_[1:]), (np.s_[:, :-1], np.s_[:, 1:]))):
        join = (sign[a] == sign[b]) & (sign[a] != 0)
        curv = sum(abs(c) * freqs[k] ** 2 for c, freqs in terms) / 8.0
        unsure = join & (np.minimum(mag[a], mag[b]) <= curv * step**2 + eps)
        i, j = np.nonzero(unsure)
        i1, j1 = i + (k == 0), j + (k == 1)
        cut = nodal._cut_edges(
            f, np.stack((ax[i], ay[j]), axis=1), np.stack((ax[i1], ay[j1]), axis=1),
            vals[i, j], vals[i1, j1], np.full(i.size, curv), eps, np.full(i.size, cells0),
        )
        cut_signs.extend(sign[i[cut], j[cut]].tolist())
        join[i[cut], j[cut]] = False
        joins.append(join)
    return sign, joins


def _doubled_image_label_count(sign, joins):
    """Components of the doubled-resolution image whose even pixels are the
    nonzero cells of a sign grid and whose odd pixels carry the joins."""
    n0, n1 = sign.shape
    img = np.zeros((2 * n0 - 1, 2 * n1 - 1), dtype=bool)
    img[::2, ::2] = sign != 0
    img[1::2, ::2], img[::2, 1::2] = joins
    return ndimage.label(img)[1]


def _doubled_image_count(f, cells0, halve, cut_signs):
    """Oracle: the triangle count as one labelling of a doubled-resolution
    image of the full grid, whose odd pixels carry the joins."""
    count = _doubled_image_label_count(*_signs_and_joins(f, cells0, halve, cut_signs))
    return 2 * count if halve else count


def _assert_grid_counts_match_the_doubled_image(f, cells, cut_signs):
    for halve in (False, True):
        want = _doubled_image_count(f, cells, halve, cut_signs)
        assert _count_once(f, cells, halve) == want, (f.terms, cells, halve)


def test_grid_counts_match_the_doubled_image_on_the_deficiency_band():
    # every simple level of the nodal-deficiency benchmark's triangle, at the
    # two resolutions count_grid starts from, and the Dirichlet basis
    cut_signs = []
    _, levels = _simple_triangle_levels(403)
    for lv in levels:
        f = eigenfn.basis_fn(triangle(), lv.members[0])
        default = max(16, 8 * nodal._max_halfperiods(f))
        for cells in (default, 2 * default):
            _assert_grid_counts_match_the_doubled_image(f, cells, cut_signs)
    # cuts in both signs: joins of either sign are left out of the image
    assert {1, -1} <= set(cut_signs)
    for lv in spectrum.build_index(triangle("dirichlet"), 200).levels:
        for m in lv.members:
            f = eigenfn.basis_fn(triangle("dirichlet"), m)
            default = max(16, 8 * nodal._max_halfperiods(f))
            _assert_grid_counts_match_the_doubled_image(f, default, [])


def test_a_batch_counts_each_grid_as_alone():
    # one bisection for both grids of a doubling pair couples nothing: the
    # pair's counts are those of the two grids counted one at a time
    _, levels = _simple_triangle_levels(403)
    fns = [eigenfn.basis_fn(triangle(), lv.members[0]) for lv in levels] + [
        eigenfn.basis_fn(triangle("dirichlet"), m)
        for lv in spectrum.build_index(triangle("dirichlet"), 200).levels
        for m in lv.members
    ]
    for f in fns:
        default = max(16, 8 * nodal._max_halfperiods(f))
        for halve in (False, True):
            pair = nodal._grid_counts(f, (default, 2 * default), halve)
            alone = [_count_once(f, cells, halve) for cells in (default, 2 * default)]
            assert pair == alone, (f.terms, halve)


def test_grid_counts_lie_between_the_uncut_labelling_and_one_split_per_cut():
    # a check that labels no doubled image: S counts the 4-connected
    # components of each sign with every same-sign edge kept, and each of
    # the C cut edges can split at most one component, so S <= count <= S + C
    _, levels = _simple_triangle_levels(403)
    tight = 0
    for lv in levels:
        f = eigenfn.basis_fn(triangle(), lv.members[0])
        default = max(16, 8 * nodal._max_halfperiods(f))
        for cells in (default, 2 * default):
            for halve in (False, True):
                cut_signs = []
                sign, _ = _signs_and_joins(f, cells, halve, cut_signs)
                uncut = ndimage.label(sign > 0)[1] + ndimage.label(sign < 0)[1]
                per_half = _count_once(f, cells, halve) // (2 if halve else 1)
                case = (lv.members[0], cells, halve)
                assert uncut <= per_half <= uncut + len(cut_signs), case
                if not cut_signs:
                    assert per_half == uncut, case
                    tight += 1
    assert tight > 0


@st.composite
def _sign_grids_and_cuts(draw):
    """An int8 n0 x n1 sign grid of -1, 0 and 1 with n1 <= n0 and every
    nonzero cell strictly below its diagonal, as on the full and the half
    triangle, in blocks of one to three cells a side (the same blocks along
    both axes), and per axis a random set of its same-sign edges to cut,
    with whole lines of cut edges among them."""
    base = draw(hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                           elements=st.integers(-1, 1)))
    base = base[:, : len(base)]
    side = draw(st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)))
    sign = np.repeat(np.repeat(base, side, axis=0), side[: base.shape[1]], axis=1)
    sign = np.tril(sign, -1)
    cuts = []
    for k, (a, b) in enumerate(((np.s_[:-1], np.s_[1:]), (np.s_[:, :-1], np.s_[:, 1:]))):
        same = (sign[a] == sign[b]) & (sign[a] != 0)
        cut = np.zeros(same.shape, dtype=bool)
        if draw(st.booleans()):
            cut = draw(hnp.arrays(bool, same.shape, elements=st.booleans()))
        lines = draw(st.sets(st.integers(0, max(same.shape[k] - 1, 0))))
        if same.size:
            np.moveaxis(cut, k, 0)[sorted(lines)] = True
        cuts.append(cut & same)
    return sign, cuts


def _both_signs_cut_on_adjacent_crossing_border_lines():
    # positive left, negative right, below the diagonal; every edge of the
    # axis-0 rows 1, 2 and 4 (the first two adjacent, 4 on the border) and
    # of the axis-1 columns 0 and 2 (2 on the border) is cut, which leaves
    # 11 domains
    sign = np.tril(np.array([[1, 1, -1, -1]] * 6, dtype=np.int8), -1)
    cut0 = np.zeros((5, 4), dtype=bool)
    cut0[[1, 2, 4]] = True
    cut1 = np.zeros((6, 3), dtype=bool)
    cut1[:, [0, 2]] = True
    same = [(sign[:-1] == sign[1:]) & (sign[:-1] != 0), (sign[:, :-1] == sign[:, 1:]) & (sign[:, :-1] != 0)]
    return sign, [cut0 & same[0], cut1 & same[1]]


@settings(max_examples=300, deadline=None)
@given(case=_sign_grids_and_cuts())
@example(case=_both_signs_cut_on_adjacent_crossing_border_lines())
def test_sign_planes_label_like_the_doubled_image(case):
    sign, cut = case
    joins = [
        (sign[a] == sign[b]) & (sign[a] != 0) & ~c
        for c, (a, b) in zip(cut, ((np.s_[:-1], np.s_[1:]), (np.s_[:, :-1], np.s_[:, 1:])))
    ]
    img = nodal._sign_plane(sign, [np.nonzero(c) for c in cut])
    # a join row (column) per plane row (column) that holds the lower end of
    # a cut edge of either sign; a negative cell (i, j) sits at
    # (n0 - 1 - i, n0 - 1 - j), so its edge's lower end is the turned upper end
    n0 = len(sign)
    (i0, j0), (i1, j1) = (np.nonzero(c) for c in cut)
    rows = np.unique(np.where(sign[i0, j0] < 0, n0 - 2 - i0, i0)).size
    cols = np.unique(np.where(sign[i1, j1] < 0, n0 - 2 - j1, j1)).size
    assert img.shape == (n0 + rows, n0 + cols)
    assert ndimage.label(img)[1] == _doubled_image_label_count(sign, joins)


def _cut_edges_by_min(f, lo, hi, f_lo, f_hi, curv, eps, cells):
    """Oracle: the edge bisection that proves an interval of length l by
    its smaller end alone, min(f_lo, f_hi) > curv * l^2 + eps in their sign,
    and halves every edge passed in before it tests any."""
    sign = np.sign(f_lo)
    cut = np.zeros(len(sign), dtype=bool)
    edge = np.arange(len(sign))
    for _ in range(nodal._BISECT_DEPTH):
        if not edge.size:
            return cut
        mid = 0.5 * (lo + hi)
        f_mid = eigenfn.eval_points(f, mid)
        cut[edge[np.sign(f_mid) != sign[edge]]] = True
        keep = ~cut[edge]
        edge, lo, hi, f_lo, f_hi, mid, f_mid = (
            a[keep] for a in (edge, lo, hi, f_lo, f_hi, mid, f_mid)
        )
        edge = np.concatenate((edge, edge))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
        length = (hi - lo).sum(axis=1)
        s = sign[edge]
        live = np.minimum(s * f_lo, s * f_hi) <= curv[edge] * length**2 + eps
        edge, lo, hi, f_lo, f_hi = (a[live] for a in (edge, lo, hi, f_lo, f_hi))
    assert not edge.size, "an edge the min rule leaves undecided"
    return cut


def _margin_and_curv(f):
    """The rounding margin and the per-axis curv of _triangle_grid_counts."""
    terms = product_terms(f)
    curv = np.array([sum(abs(c) * fr[k] ** 2 for c, fr in terms) / 8.0 for k in (0, 1)])
    return nodal._rounding_margin(terms), curv


def test_interpolation_bound_cuts_the_edges_the_min_rule_cuts(monkeypatch):
    # the simple levels of the deficiency band and the Dirichlet triangle
    # below 200, at the two resolutions count_grid starts from, full and
    # halved: the same cut flags as the min rule, from fewer midpoints
    _, levels = _simple_triangle_levels(403)
    fns = [eigenfn.basis_fn(triangle(), lv.members[0]) for lv in levels] + [
        eigenfn.basis_fn(triangle("dirichlet"), m)
        for lv in spectrum.build_index(triangle("dirichlet"), 200).levels
        for m in lv.members
    ]
    midpoints = []

    def counted(f, pts):
        midpoints.append(len(pts))
        return eigenfn.eval_points(f, pts)

    monkeypatch.setattr(nodal, "eval_points", counted)
    cuts = by_min = 0
    for f in fns:
        eps, curv = _margin_and_curv(f)
        default = max(16, 8 * nodal._max_halfperiods(f))
        for cells in (default, 2 * default):
            for halve in (False, True):
                _, (i, _, axis, lo, hi, f_lo, f_hi) = nodal._signs_and_edges(
                    f, cells, halve, curv, eps
                )
                args = (f, lo, hi, f_lo, f_hi, curv[axis], eps, np.full(i.size, cells))
                cut = nodal._cut_edges(*args)
                assert (cut == _cut_edges_by_min(*args)).all(), (f.terms, cells, halve)
                cuts += int(cut.sum())
                by_min += i.size
    assert cuts > 0
    # the min rule halves every unsure edge at least once
    assert sum(midpoints) < by_min


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.25), (1.0, 1.4), (3.0, 0.1)])
@pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 4.0])
def test_interval_floor_is_the_least_value_of_the_extreme_parabola(a, b, k):
    # g(s) = a + (b - a) s - k s (1 - s) has the end values a and b and
    # |g''| = 2k / l^2 = M2 on an interval of length l with k = M2 l^2 / 2;
    # the floor is its least value over [0, 1], in either of its two forms
    s = np.linspace(0.0, 1.0, 200001)
    least = (a + (b - a) * s - k * s * (1 - s)).min()
    got = nodal._interval_floor(np.array([a]), np.array([b]), np.array([k]))[0]
    d = abs(b - a)
    cases = min(a, b) if d >= k else (a + b) / 2 - k / 4 - d * d / (4 * k)
    assert got == pytest.approx(cases, abs=1e-12)
    assert least - 1e-9 <= got <= least + 1e-12
    assert got >= min(a, b) - k / 4


@settings(max_examples=300, deadline=None)
@given(
    bc=st.sampled_from(["neumann", "dirichlet"]),
    a=st.integers(2, 40),
    axis=st.integers(0, 1),
    data=st.data(),
)
def test_interpolation_bound_proves_only_intervals_that_keep_their_sign(bc, a, axis, data):
    b = data.draw(st.integers(0 if bc == "neumann" else 1, a - 1))
    coeff = data.draw(st.sampled_from([1.0, -0.5, 3.0]))
    f = eigenfn.combo(triangle(bc), [(coeff, (a, b))])
    eps, curv = _margin_and_curv(f)
    start = np.array([data.draw(st.floats(0.0, math.pi)) for _ in range(2)])
    # up to a quarter period of the fastest term: some intervals the bound
    # proves and some it leaves to the bisection
    length = data.draw(st.floats(1e-6, 1.0)) * math.pi / (2 * a)
    end = start.copy()
    end[axis] += length
    f_lo, f_hi = eigenfn.eval_points(f, np.stack((start, end)))
    s = np.sign(f_lo)
    assume(s != 0 and np.sign(f_hi) == s)
    k = np.array([4.0 * curv[axis] * (end[axis] - start[axis]) ** 2])
    if nodal._interval_floor(np.array([s * f_lo]), np.array([s * f_hi]), k)[0] > eps:
        t = np.linspace(0.0, 1.0, 257)[:, None]
        inside = eigenfn.eval_points(f, start + t * (end - start))
        assert (np.sign(inside) == s).all(), (f.terms, start, end)


_MULTIPLE_LEVELS = {
    bc: [lv for lv in spectrum.build_index(triangle(bc), 200).levels if lv.multiplicity > 1]
    for bc in ("neumann", "dirichlet")
}


@settings(max_examples=40, deadline=None)
@given(bc=st.sampled_from(sorted(_MULTIPLE_LEVELS)), scale=st.sampled_from([1, 2]), data=st.data())
def test_grid_counts_match_the_doubled_image_on_random_combos(bc, scale, data):
    lv = data.draw(st.sampled_from(_MULTIPLE_LEVELS[bc]))
    coeffs = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    f = eigenfn.combo(triangle(bc), [(data.draw(coeffs), m) for m in lv.members])
    default = max(16, 8 * nodal._max_halfperiods(f))
    _assert_grid_counts_match_the_doubled_image(f, scale * default, [])


def test_grid_dirichlet_box():
    # Dirichlet box basis: m_j sign runs per axis
    assert nodal.count_grid(eigenfn.basis_fn(box(2, "dirichlet"), (2, 1))).count == 2
    assert nodal.count_grid(eigenfn.basis_fn(box(2, "dirichlet"), (3, 2))).count == 6


def _antisymmetric_wrt_cut(f: eigenfn.Combo) -> bool:
    """Oracle: every eigenfunction of f's eigenvalue is odd across the cut L.

    Neumann functions are odd exactly for odd eigenvalues, Dirichlet functions
    exactly for even ones (the parity correspondence flips).
    """
    return algebra.parity(f.value) == ("even" if f.domain.bc == DIRICHLET else "odd")


def test_count_grid_halves_where_the_parity_rule_says(monkeypatch):
    # count_grid halves a triangle combo when eigenfn.symmetry_check finds it
    # odd across L; the parity rule agrees on the all-member combo of every
    # level below 2000 of both triangle problems
    halves = []

    def record(f, resolutions, halve):
        halves.append(halve)
        return [0] * len(resolutions)

    monkeypatch.setattr(nodal, "_grid_counts", record)
    want = []
    for bc in ("neumann", "dirichlet"):
        dom = triangle(bc)
        for lv in spectrum.build_index(dom, 2000).levels:
            f = eigenfn.combo(dom, [((-1) ** i * (i + 1.0), m) for i, m in enumerate(lv.members)])
            assert nodal.count_grid(f).count == 0
            want.append(_antisymmetric_wrt_cut(f))
    assert len(want) == 1188 and halves == want


def test_antisymmetric_counts_double_the_half_domain():
    # odd Neumann eigenvalues: the count is even, and at coarse frequencies
    # (where the full-domain grid resolves the cut reliably) it equals the
    # independently computed full-domain count
    dom = triangle()
    si = spectrum.build_index(dom, 200)
    for lv in si.levels:
        if lv.multiplicity != 1 or algebra.parity(lv.value) != "odd":
            continue
        f = eigenfn.basis_fn(dom, lv.members[0])
        certified = nodal.count_grid(f)
        halved = certified.count
        assert halved % 2 == 0, lv.members[0]
        if float(lv.value) <= 100:
            # the full domain counted at the resolution the halved count was
            # certified at, and at the doubling that certified it
            cells = certified.resolution
            for res in (cells, 2 * cells):
                full = _count_once(f, res, halve=False)
                assert halved == full, (lv.members[0], res)


def test_odd_counts_obey_the_half_domain_courant_bound():
    # nu(phi) <= 2 (|O(lambda)| + 1) for odd eigenvalues: the Courant bound
    # of the mixed problem on the half triangle
    dom = triangle()
    si = spectrum.build_index(dom, 200)
    dnn = spectrum.build_dnn_index(200)
    for lv in si.levels:
        if lv.multiplicity != 1 or algebra.parity(lv.value) != "odd":
            continue
        nu = nodal.count_grid(eigenfn.basis_fn(dom, lv.members[0])).count
        assert nu <= 2 * (dnn.counting(lv.value).below + 1), lv.members[0]


def test_courant_bound_for_basis_functions():
    # nu <= N for every basis eigenfunction, both boundary conditions, and
    # the oracle certifies every one of them
    unresolved = []
    for dom in (triangle(), triangle("dirichlet"), box(2), box(2, "dirichlet")):
        si = spectrum.build_index(dom, 300)
        for lv in si.levels:
            n_pos = si.position_of(lv.value)
            for m in lv.members:
                try:
                    nu = nodal.count_grid(eigenfn.basis_fn(dom, m)).count
                except GridInstabilityError:
                    unresolved.append((dom.label(), m, float(lv.value)))
                    continue
                assert nu <= n_pos, (dom.label(), m, nu, n_pos)
    assert unresolved == []


def test_courant_bound_box3():
    dom = box(3)
    si = spectrum.build_index(dom, 120)
    for lv in si.levels:
        n_pos = si.position_of(lv.value)
        for m in lv.members:
            assert nodal.count_grid(eigenfn.basis_fn(dom, m)).count <= n_pos


def test_deficiency_report_for_50():
    si = spectrum.build_index(triangle(), 60)
    rep = nodal.deficiency_bound(si, algebra.integer_value(1, 50))
    assert rep.core.coeffs == (25,) and rep.k == 1
    assert rep.core_multiplicity == 2
    assert rep.partition_size == 3
    assert rep.bound_unfolding == 2
    assert rep.bound >= 1


def test_deficiency_report_for_ground_chain():
    si = spectrum.build_index(triangle(), 60)
    rep = nodal.deficiency_bound(si, algebra.integer_value(1, 1))
    assert rep.core_multiplicity == 1 and rep.k == 0
    assert rep.bound == 0


def test_deficiency_box_example():
    si = spectrum.build_index(box(2), 20)
    rep = nodal.deficiency_bound(si, algebra.integer_value(2, 9))
    assert rep.core_multiplicity == 2 and rep.k == 0
    assert rep.bound_unfolding == 1
    assert rep.bound >= 1


def test_deficiency_rejects_bad_inputs():
    si = spectrum.build_index(triangle(), 60)
    with pytest.raises(DomainError):
        nodal.deficiency_bound(si, algebra.integer_value(1, 0))
    with pytest.raises(DomainError):
        nodal.deficiency_bound(si, algebra.integer_value(1, 3))


def test_deficiency_ring_error_names_the_value_given():
    # the ring is checked before the odd core is taken: the message names
    # 4 and 2 + 1*g^2, not their cores 1 and 1 + 1*g^4
    si = spectrum.build_index(box(3), 60)
    for coeffs, text in (((4, 0, 0), "4"), ((2, 1, 0), "2 + 1*g^2")):
        with pytest.raises(DomainError) as err:
            nodal.deficiency_bound(si, algebra.AlgebraicValue(6, coeffs))
        assert str(err.value) == f"{text} lives in ring n=6, the box3-neumann spectrum in n=3"


def test_dirichlet_identity_hand_cases():
    si = spectrum.build_index(box(2, "dirichlet"), 40)
    chk = nodal.dirichlet_deficiency_check(si, algebra.integer_value(2, 6))
    assert (chk.lhs, chk.rhs) == (0, 0)
    assert chk.boundary_odd == 1
    chk = nodal.dirichlet_deficiency_check(si, algebra.integer_value(2, 12))
    assert (chk.lhs, chk.rhs) == (1, 1)


def test_dirichlet_identity_preconditions():
    si = spectrum.build_index(box(2, "dirichlet"), 40)
    with pytest.raises(DomainError):
        nodal.dirichlet_deficiency_check(si, algebra.integer_value(2, 3))  # odd
    sin = spectrum.build_index(box(2), 40)
    with pytest.raises(DomainError):
        nodal.dirichlet_deficiency_check(sin, algebra.integer_value(2, 6))


def test_deficiency_reads_no_point_tuples(monkeypatch, capsys):
    # both deficiency identities read the index's right-boundary column and
    # never list a region's points
    def refuse(region):
        raise AssertionError("a deficiency path listed a region's points")

    monkeypatch.setattr(qlattice.LatticeRegion, "points", property(refuse))
    for dom, cutoff in ((triangle(), 2000), (box(3), 200)):
        si = spectrum.build_index(dom, cutoff)
        simple = np.flatnonzero(si.multiplicities == 1)[1:]  # the ground state has no bound
        for i in simple.tolist():
            nodal.deficiency_bound(si, si.region.value(i))
    si = spectrum.build_index(box(2, DIRICHLET), 300)
    checked = 0
    for i in np.flatnonzero(si.multiplicities == 1).tolist():
        value = si.region.value(i)
        if algebra.parity(value) != "even":
            continue
        if si.multiplicity_of(algebra.scale_gamma2(value, -1)) != 1:
            continue
        assert nodal.dirichlet_deficiency_check(si, value).as_dict()["holds"]
        checked += 1
    assert checked > 10
    for argv in (
        ["deficiency", "--domain", "triangle", "--lambda", "4225"],
        ["deficiency", "--domain", "box", "--dim", "3", "--lambda", "1,8,4"],
        ["dirichlet-check", "--dim", "2", "--lambda", "300"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_grid_budget_is_checked_before_evaluating():
    # a triangle at 8192 cells: 6.7e7 grid points
    f = eigenfn.basis_fn(triangle(), (3, 1))
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="grid at 8192 cells: .* over the budget"):
        nodal.count_grid(f, resolution=8192)
    assert time.perf_counter() - t0 < 0.5
    # a basis function is counted on its axes, whose samples are few even
    # where the n-D grid would be far over the budget
    assert nodal.count_grid(eigenfn.basis_fn(box(6), (1, 0, 0, 0, 0, 0)), resolution=64).count == 2
    assert nodal.count_grid(eigenfn.basis_fn(box(5), (1, 0, 0, 0, 0))).count == 2
    assert nodal.count_grid(eigenfn.basis_fn(box(3), (1, 6, 0)), resolution=112).count == 14
    # ... and the total of those samples is held to the budget too
    with pytest.raises(DomainError, match="axes at .* over the budget"):
        nodal.count_grid(eigenfn.basis_fn(box(2), (1, 0)), resolution=nodal.GRID_BUDGET)


def test_triangle_grid_peak_memory_per_point_is_as_stated():
    # the figures of the GRID_BUDGET comment: at most 16.2 bytes per point of
    # the n x n grid, 9.1 when halved, with and without cut edges; a doubling
    # pair at most 16.5 (9.2) per point of its larger grid
    for qn in ((16, 6), (17, 4), (8, 2)):
        f = eigenfn.basis_fn(triangle(), qn)
        for resolutions, full, halved in (
            ((1024,), 16.2, 9.1), ((2048,), 16.2, 9.1),
            ((512, 1024), 16.5, 9.2), ((1024, 2048), 16.5, 9.2),
        ):
            for halve, stated in ((False, full), (True, halved)):
                tracemalloc.start()
                try:
                    nodal._grid_counts(f, resolutions, halve)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                per_point = peak / max(resolutions) ** 2
                assert per_point <= stated, (qn, resolutions, halve, per_point)


def test_box_axes_peak_memory_per_sample_is_as_stated():
    # the figure of the GRID_BUDGET comment: 40 bytes per sample of a batch
    for dom, m in ((box(2), (1, 0)), (box(3, DIRICHLET), (2, 1, 1)), (box(6), (1, 0, 0, 0, 0, 1))):
        f = eigenfn.basis_fn(dom, m)
        resolutions = (1 << 17, 1 << 18)
        samples = sum(sum(_box_shape(dom, cells)) for cells in resolutions)
        tracemalloc.start()
        try:
            nodal._grid_counts(f, resolutions, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / samples <= 40.1, (dom.label(), peak / samples)


def test_box_combos_of_several_terms_are_refused():
    f = eigenfn.combo(box(2), [(1.0, (3, 0)), (1.0, (1, 2))])
    with pytest.raises(DomainError, match="several terms"):
        nodal.count_grid(f)


def test_sign_runs_are_split_by_sign_changes_and_zeros():
    def runs(vals, starts=(0,)):
        return nodal._sign_runs(np.sign(np.array(vals)), np.array(starts)).tolist()

    assert runs([1.0, 0.0, 1.0, -1.0, -3.0, 0.0, 0.0, 2.0]) == [4]
    assert runs([0.0, -1.0, -2.0]) == [1]
    assert runs(np.zeros(5)) == [0]
    # axes side by side: an all-zero axis has no run, a run of one sign
    # going on across an axis boundary is split there, and a sign change
    # at a boundary starts one run, not two
    vals = [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, -1.0, -1.0, -2.0, 3.0, 0.0, 1.0]
    assert runs(vals, (0, 2, 5, 7, 9)) == [1, 0, 2, 1, 2]


def _box_shape(dom, cells):
    """Sample counts per axis of the box grid with `cells` cells along axis 0."""
    lengths = dom.edge_lengths()
    return tuple(max(8, int(math.ceil(cells * lj / lengths[0]))) for lj in lengths)


def _box_axes(dom, cells):
    """Per-axis oracle of the box samples: each axis's coordinates built on
    their own, (arange(n_j) + off_j) * (l_j / n_j)."""
    shape, lengths = _box_shape(dom, cells), dom.edge_lengths()
    return [
        (np.arange(nj) + nodal._GRID_OFFS[j % 3]) * (lj / nj)
        for j, (nj, lj) in enumerate(zip(shape, lengths))
    ]


def _label_count(f, cells):
    """n-D oracle: components of {f > 0} plus those of {f < 0} on the full
    sampling grid, 4-connected (2n-connected in n dimensions)."""
    vals = eigenfn.eval_on_axes(f, tuple(_box_axes(f.domain, cells)))
    return ndimage.label(vals > 0.0)[1] + ndimage.label(vals < 0.0)[1]


# largest n-D grid the oracle labels.  Left out above it: 3 box3 grids at 2x
# the default resolution, 9 box4 grids at 1x and 180 at 2x, 107 box5 grids at
# 1x and all 155 at 2x (up to 2.8e8 points); the random test below reaches
# box5 and box6 on coarser grids
_ORACLE_POINTS = 1 << 20


def test_axis_runs_match_the_labelled_grid():
    compared = skipped = 0
    for dom, cutoff in (
        (box(2), 400), (box(3), 60), (box(2, "dirichlet"), 400),
        (box(3, "dirichlet"), 60), (box(4), 30), (box(5), 16),
    ):
        for lv in spectrum.build_index(dom, cutoff).levels:
            for m in lv.members:
                f = eigenfn.basis_fn(dom, m)
                default = max(16, 8 * nodal._max_halfperiods(f))
                for cells in (default, 2 * default):
                    if math.prod(_box_shape(dom, cells)) > _ORACLE_POINTS:
                        skipped += 1
                        continue
                    got = _count_once(f, cells, False)
                    assert got == _label_count(f, cells), (dom.label(), m, cells)
                    compared += 1
    assert (compared, skipped) == (1648, 454)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    dirichlet=st.booleans(),
    coeff=st.sampled_from([1.0, -1.0, 2.5, -0.25]),
    data=st.data(),
)
def test_axis_runs_match_the_labelled_grid_on_random_qn(n, dirichlet, coeff, data):
    dom = box(n, "dirichlet" if dirichlet else "neumann")
    m = tuple(data.draw(st.lists(st.integers(int(dirichlet), 7), min_size=n, max_size=n)))
    # keep the n-D grid under about 3e5 points
    top = {2: 512, 3: 64, 4: 24, 5: 14, 6: 8}[n]
    cells = data.draw(st.integers(8, top))
    f = eigenfn.combo(dom, [(coeff, m)])
    assert _count_once(f, cells, False) == _label_count(f, cells)


def test_axis_count_comes_from_the_samples(monkeypatch):
    # doubling every frequency doubles the sign changes on each axis; a
    # count that read m_j + 1 off the quantum number would not notice
    def doubled(f):
        return [(c, tuple(2 * w for w in freqs)) for c, freqs in product_terms(f)]

    monkeypatch.setattr(nodal, "product_terms", doubled)
    for m in ((1, 0), (2, 3), (0, 4), (2, 1, 3)):
        f = eigenfn.basis_fn(box(len(m)), m)
        assert nodal.count_grid(f).count == math.prod(2 * mj + 1 for mj in m), m


# box2-8 indexes of a few dozen to a few hundred members each, per
# boundary condition
_PHASE_CUTOFFS = {
    2: (100, 100), 3: (40, 50), 4: (24, 38), 5: (18, 34), 6: (16, 34), 7: (14, 34), 8: (14, 36),
}


def test_one_pass_phases_equal_the_per_axis_oracle():
    # bit for bit: every axis of the batch at 1x, 2x and 4x the default
    # resolution against each axis built on its own, times its frequency
    members = 0
    for n, cutoffs in _PHASE_CUTOFFS.items():
        for bc, cutoff in zip(("neumann", DIRICHLET), cutoffs):
            dom = box(n, bc)
            for m in spectrum.build_index(dom, cutoff).region.points:
                f = eigenfn.basis_fn(dom, m)
                default = max(16, 8 * nodal._max_halfperiods(f))
                resolutions = (default, 2 * default, 4 * default)
                x, starts = nodal._box_phases(f, resolutions)
                [(_, freqs)] = product_terms(f)
                axes = [
                    ax * w for cells in resolutions for ax, w in zip(_box_axes(dom, cells), freqs)
                ]
                assert np.array_equal(x, np.concatenate(axes)), (dom.label(), m)
                assert starts.tolist() == list(itertools.accumulate(map(len, axes[:-1]), initial=0))
                members += 1
    assert members == 2654


# sha256 of json.dumps of [label, member, count, resolution, stable] from
# count_grid on every member of box2@400, box3@60, box4@30, box5@16 and
# box6@12, Neumann and Dirichlet, recorded before the axes of a batch were
# sampled in one pass
BOX_GRID_PIN = "aeef55eb41cf7303356b45a415cce8ec498d817afec4a24630b1229065ca8963"


def test_box_grid_counts_are_pinned():
    rows = []
    for n, cutoff in ((2, 400), (3, 60), (4, 30), (5, 16), (6, 12)):
        for bc in ("neumann", DIRICHLET):
            dom = box(n, bc)
            for m in spectrum.build_index(dom, cutoff).region.points:
                c = nodal.count_grid(eigenfn.basis_fn(dom, m))
                rows.append([dom.label(), list(m), c.count, c.resolution, c.stable])
    assert len(rows) == 1257
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == BOX_GRID_PIN


_NINES = int("9" * 400)  # past the float range


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dom,m", [(triangle(), (3, 1)), (box(2), (2, 1))])
def test_a_non_finite_coefficient_is_refused(dom, m, c):
    # a NaN coefficient was counted: 0 nodal domains on the triangle, 6 on box2
    message = rf"^the coefficient of term {re.escape(str(m))} is not a finite float: {c}$"
    with pytest.raises(DomainError, match=message):
        eigenfn.combo(dom, [(c, m)])


def test_an_int_coefficient_past_the_float_range_is_refused():
    with pytest.raises(DomainError, match=r"term \(2, 1\) is not a finite float: inf$"):
        eigenfn.combo(triangle(), [(1.0, (1, 0)), (10**400, (2, 1))])


@pytest.mark.parametrize("dom", [triangle(), box(2)])
def test_a_frequency_past_the_float_range_is_refused(dom):
    f = eigenfn.basis_fn(dom, (_NINES, 1))
    for call in (
        lambda: product_terms(f), lambda: eigenfn.eval_at(f, (1.0, 0.5)),
        lambda: nodal.count_grid(f),
    ):
        with pytest.raises(DomainError, match=r"pass the float range of the evaluation$"):
            call()
    # the exact checks read the quantum number alone and still answer
    assert eigenfn.symmetry_check(f) in ("even", "odd", "neither")


@pytest.mark.parametrize("dom", [triangle(), box(2)])
def test_a_resolution_past_the_budget_is_refused_before_float_arithmetic(dom):
    f = eigenfn.basis_fn(dom, (3, 1))
    for resolution in (nodal.GRID_BUDGET + 1, _NINES):
        message = rf"^the nodal grid at {resolution} cells is over the budget"
        with pytest.raises(DomainError, match=message):
            nodal.count_grid(f, resolution)


def test_a_ring_too_wide_for_one_coefficient_row_is_refused():
    # one int64 row of the widest ring fills the lattice's column budget
    assert 8 * algebra.MAX_BASIS_LEN == qlattice.COLUMN_BUDGET
    assert algebra.basis_len(2 * algebra.MAX_BASIS_LEN) == algebra.MAX_BASIS_LEN
    for n in (2 * algebra.MAX_BASIS_LEN + 2, 10**9, _NINES):
        message = rf"^ring n={n} needs \d+ coefficients per value, over the budget"
        with pytest.raises(DomainError, match=message):
            algebra.basis_len(n)
    # a 400-digit ring fails before anything n-sized, so a wrong guess here
    # cannot take the memory a 10^9-wide one would
    for call in (
        lambda: algebra.integer_value(_NINES, 1),
        lambda: spectrum.build_index(box(_NINES), 2),
    ):
        with pytest.raises(DomainError, match="coefficients per value, over the budget"):
            call()


_WIDE = [
    ["spectrum", "--domain", "box", "--dim", "{dim}", "--cutoff", "2"],
    ["verdicts", "--domain", "box", "--dim", "{dim}", "--cutoff", "2"],
    ["deficiency", "--domain", "box", "--dim", "{dim}", "--lambda", "1"],
    ["dirichlet-check", "--dim", "{dim}", "--lambda", "5"],
]


def _refused(code: int, out: str, err: str) -> bool:
    """Exit 1 with one error line and nothing else."""
    return code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nodal", "--domain", "triangle", "--qn", f"{_NINES},1"],
        ["eval", "--domain", "triangle", "--qn", f"{_NINES},1", "--at", "1,0.5"],
        ["eval", "--domain", "box", "--qn", f"{_NINES},1", "--at", "1,0.5"],
        ["nodal", "--domain", "triangle", "--qn", "3,1", "--grid", str(_NINES)],
        ["nodal", "--domain", "box", "--qn", "3,1", "--grid", str(_NINES)],
        *([a.format(dim=_NINES) for a in argv] for argv in _WIDE),
    ],
    ids=["nodal-qn", "eval-triangle-qn", "eval-box-qn", "nodal-triangle-grid", "nodal-box-grid"]
    + [f"{argv[0]}-dim-400-digits" for argv in _WIDE],
)
def test_a_huge_integer_ends_in_one_error_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert _refused(code, captured.out, captured.err), captured.err


def _fresh_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """foldspec in a new interpreter whose address space is held to 2 GiB,
    so that a wide input that reached an n-sized allocation would end in
    MemoryError there rather than take the machine's memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "foldspec", *argv], env=env, capture_output=True,
        text=True, timeout=120, preexec_fn=limit,
    )


@pytest.mark.parametrize("argv", _WIDE, ids=[argv[0] for argv in _WIDE])
def test_a_dimension_too_wide_for_one_coefficient_row_ends_in_one_error_line(argv):
    run = _fresh_cli([a.format(dim=10**9) for a in argv])
    assert _refused(run.returncode, run.stdout, run.stderr), run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("dim", [10**9, _NINES], ids=["1e9", "400-digits"])
def test_a_frame_of_a_wide_box_is_still_drawn(dim):
    run = _fresh_cli(["frame", "--domain", "box", "--dim", str(dim), "--k", "2"])
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert json.loads(run.stdout)["facets"] == [{"axis": 2, "position": "1/2"}]


@pytest.mark.parametrize("n,below", [(4, 5), (5, 3), (6, 3)])
def test_grid_matches_formula_in_higher_dimensions(n, below):
    dom = box(n)
    for m in itertools.product(range(below), repeat=n):
        c = nodal.count_grid(eigenfn.basis_fn(dom, m))
        assert c.stable and c.count == nodal.count_formula(dom, m).count, m


# sha256 of json.dumps of the deficiency reports of every nonzero level of
# triangle@400, box2@400 and box3@60 (the sizes of the nodal-deficiency
# benchmark), recorded before regions became lists of levels, so that the
# boundary parity counts are pinned to the earlier code's output
DEFICIENCY_PIN = "7100ce588e2890ea1b6194a3473c03e476d382666617c99d50d0348890592e38"


def test_deficiency_reports_are_pinned():
    rows = []
    for dom, cutoff in ((triangle(), 400), (box(2), 400), (box(3), 60)):
        si = spectrum.build_index(dom, cutoff)
        rows += [
            nodal.deficiency_bound(si, lv.value).as_dict()
            for lv in si.levels
            if not lv.value.is_zero()
        ]
    assert len(rows) == 476
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DEFICIENCY_PIN


def test_deficiency_needs_the_index_through_the_odd_core_only():
    # every report of DEFICIENCY_PIN's band is the same on the index through
    # its odd core + 1 as on the index through lambda + 1
    reports = 0
    for dom, cutoff in ((triangle(), 400), (box(2), 400), (box(3), 60)):
        for lv in spectrum.build_index(dom, cutoff).levels:
            if lv.value.is_zero():
                continue
            core = spectrum.odd_core(lv.value).core
            assert (
                nodal.deficiency_bound(cli._index_through(dom, core), lv.value).as_dict()
                == nodal.deficiency_bound(cli._index_through(dom, lv.value), lv.value).as_dict()
            ), lv.value.text()
            reports += 1
    assert reports == 476


@pytest.mark.parametrize("n,cutoff,simple", [(2, 400, 98), (3, 60, 79), (4, 30, 37)])
def test_dirichlet_box_formula_is_the_grid_count(n, cutoff, simple):
    # prod(m_j) on every simple Dirichlet level, against the sampled sines
    dom = box(n, DIRICHLET)
    si = spectrum.build_index(dom, cutoff)
    members = si.region.members[si.starts[si.multiplicities == 1]]
    assert len(members) == simple
    grid = [nodal.count_grid(eigenfn.basis_fn(dom, tuple(m))).count for m in members.tolist()]
    assert nodal.formula_counts(dom, members).tolist() == grid


@pytest.mark.parametrize("n,cutoff", [(2, 400), (3, 60), (6, 80)])
def test_formula_counts_are_the_box_products(n, cutoff):
    members = spectrum.build_index(box(n), cutoff).region.members
    counts = nodal.formula_counts(box(n), members)
    assert counts.tolist() == [math.prod(e + 1 for e in m) for m in members.tolist()]


def test_formula_counts_are_the_triangle_closed_forms():
    a = np.arange(301)
    members = np.concatenate([np.column_stack([a, a]), np.column_stack([a, 0 * a])])
    counts = nodal.formula_counts(triangle(), members)
    assert counts.tolist() == [(x + 1) * (x + 2) // 2 for x in range(301)] + [
        (x + 2) ** 2 // 4 for x in range(301)
    ]


@pytest.mark.parametrize(
    "dom,rows,first,message",
    [
        (triangle(), [(4, 0), (3, 1), (5, 2)], 1,
         r"^no closed-form nodal count for triangle \(3, 1\); use count_grid$"),
        (triangle("dirichlet"), [(2, 1)], 0,
         r"^closed-form nodal counts cover the Neumann triangle and the box only$"),
        (triangle(), [(2, 2), (5, 1), (1, -1), (-1, -1)], 2,
         r"^\(1, -1\) is not a triangle-neumann quantum number$"),
        (box(3), [(0, 0, 0), (2, -1, 0)], 1,
         r"^\(2, -1, 0\) is not a box3-neumann quantum number$"),
    ],
    ids=["shape", "dirichlet", "triangle-negative", "box-negative"],
)
def test_formula_count_refusals_keep_their_messages(dom, rows, first, message):
    # the rule names the first refused row; count_formula refuses that row alike
    with pytest.raises(DomainError, match=message):
        nodal.formula_counts(dom, np.array(rows, dtype=np.int64))
    with pytest.raises(DomainError, match=message):
        nodal.count_formula(dom, rows[first])


@pytest.mark.parametrize(
    "dom,m,count",
    [
        (triangle(), (2**40, 2**40), (2**40 + 1) * (2**40 + 2) // 2),
        (triangle(), (10**20, 0), (10**20 + 2) ** 2 // 4),
        (box(3), (2**30,) * 3, (2**30 + 1) ** 3),
    ],
)
def test_count_formula_is_exact_past_int64(dom, m, count):
    assert count > 2**63
    assert nodal.count_formula(dom, m) == nodal.NodalCount(count, "formula")
