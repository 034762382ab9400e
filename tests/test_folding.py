from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sampled_oracle import sample_interior, sup_estimate
from scipy import ndimage

from foldspec import acceptance, algebra, eigenfn, folding
from foldspec.domains import TRIANGLE, Domain, box, check_point, eigenvalue, qn_parity, triangle
from foldspec.errors import DomainError, FoldParityError

PI = math.pi


# -- test-only oracle: the folding maps on points, in floats and radians -------


def in_half_domain(domain: Domain, p: tuple[float, ...], tol: float = 1e-9) -> bool:
    if domain.kind == TRIANGLE:
        return p[0] + p[1] <= math.pi + tol
    return p[0] <= math.pi / 2 + tol


def fold_point(domain: Domain, p: tuple[float, ...]) -> tuple[float, ...]:
    """F: half-domain -> domain, scaling lengths up by gamma(Omega)."""
    check_point(domain, p)
    if not in_half_domain(domain, p):
        raise DomainError(f"point {p} outside the half {domain.kind}")
    if domain.kind == TRIANGLE:
        x, y = p
        return (x + y, x - y)
    g = 2.0 ** (1.0 / domain.n)
    return tuple(g * c for c in p[1:] + p[:1])


def unfold_point(domain: Domain, p: tuple[float, ...]) -> tuple[float, ...]:
    """U = F^(-1): domain -> half-domain."""
    check_point(domain, p)
    if domain.kind == TRIANGLE:
        u, v = p
        return ((u + v) / 2, (u - v) / 2)
    g = 2.0 ** (1.0 / domain.n)
    return tuple(c / g for c in p[-1:] + p[:-1])


def reflect(domain: Domain, p: tuple[float, ...]) -> tuple[float, ...]:
    """Reflection across the symmetry cut L; an involution fixing L."""
    if domain.kind == TRIANGLE:
        x, y = p
        return (math.pi - y, math.pi - x)
    return (math.pi - p[0],) + tuple(p[1:])


def test_fold_unfold_points_triangle():
    dom = triangle()
    assert fold_point(dom, (PI / 2, 0)) == pytest.approx((PI / 2, PI / 2))
    assert unfold_point(dom, (PI, 0)) == pytest.approx((PI / 2, PI / 2))
    # U o F = id on the half triangle
    p = (1.1, 0.3)
    assert unfold_point(dom, fold_point(dom, p)) == pytest.approx(p)


def test_fold_point_box2():
    dom = box(2)
    got = fold_point(dom, (PI / 4, 0))
    assert got == pytest.approx((0.0, PI * math.sqrt(2) / 4))


def test_fold_point_domain_errors():
    dom = triangle()
    with pytest.raises(DomainError):
        fold_point(dom, (3.0, 1.0))  # outside the half triangle
    with pytest.raises(DomainError):
        unfold_point(dom, (4.0, 0.1))  # outside the triangle


def test_reflect():
    dom = triangle()
    assert reflect(dom, (PI / 2, PI / 2)) == pytest.approx((PI / 2, PI / 2))
    assert reflect(dom, (PI, PI / 4)) == pytest.approx((3 * PI / 4, 0))
    b = box(2)
    assert reflect(b, (0.0, 0.7)) == pytest.approx((PI, 0.7))
    # involution
    p = (0.3, 0.5)
    assert reflect(b, reflect(b, p)) == pytest.approx(p)


def test_qn_maps_triangle():
    dom = triangle()
    assert folding.unfold_qn(dom, (1, 1)) == (2, 0)
    assert folding.unfold_qn(dom, (2, 0)) == (2, 2)
    assert folding.unfold_qn(dom, (2, 2)) == (4, 0)
    assert folding.fold_qn(dom, (2, 0)) == (1, 1)


def test_qn_maps_box():
    assert folding.unfold_qn(box(3), (1, 0, 2)) == (4, 1, 0)
    assert folding.fold_qn(box(3), (4, 1, 0)) == (1, 0, 2)


def test_fold_qn_parity_error():
    with pytest.raises(FoldParityError):
        folding.fold_qn(triangle(), (2, 1))
    with pytest.raises(FoldParityError):
        folding.fold_qn(box(2), (1, 4))


def test_unfold_scales_eigenvalue():
    for dom, shapes in (
        (triangle(), [(3, 1), (5, 2)]),
        (box(3), [(1, 0, 2), (2, 2, 1)]),
    ):
        for m in shapes:
            v = eigenvalue(dom, m)
            up = folding.unfold_qn(dom, m)
            assert eigenvalue(dom, up).coeffs == algebra.scale_gamma2(v, 1).coeffs


def test_frame_facet_counts():
    dom = triangle()
    for k in range(7):
        assert len(folding.build_frame(dom, k).facets) == 2**k
    # box frames double only when the axis wraps around
    for n in (2, 3):
        for k in range(9):
            frame = folding.build_frame(box(n), k)
            assert len(frame.facets) == 2 ** (k // n)
            axes = {slab.axis for slab in frame.facets}
            assert axes == {k % n}


def test_frame_zero_is_the_cut():
    frame = folding.build_frame(triangle(), 0)
    (seg,) = frame.facets
    assert {seg.a, seg.b} == {
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    }
    (slab,) = folding.build_frame(box(2), 0).facets
    assert (slab.axis, slab.frac) == (0, Fraction(1, 2))


def test_frame_one_triangle():
    frame = folding.build_frame(triangle(), 1)
    segs = {frozenset((s.a, s.b)) for s in frame.facets}
    half = Fraction(1, 2)
    assert segs == {
        frozenset(((half, Fraction(0)), (half, half))),
        frozenset(((half, half), (Fraction(1), half))),
    }


# oracle for the nesting check: the image of a facet under F, or under F o R
# when it lies in the far half, exactly


def frame_parent_facet(dom, facet):
    def f(p):
        return (p[0] + p[1], p[0] - p[1])

    def r(p):
        return (1 - p[1], 1 - p[0])

    if dom.kind == "triangle":
        a, b = facet.a, facet.b
        if a[0] + a[1] <= 1 and b[0] + b[1] <= 1:
            return folding.Segment(f(a), f(b))
        return folding.Segment(f(r(a)), f(r(b)))
    if facet.axis > 0:
        return folding.Slab(facet.axis - 1, facet.frac)
    if facet.frac <= Fraction(1, 2):
        return folding.Slab(dom.n - 1, 2 * facet.frac)
    return folding.Slab(dom.n - 1, 2 * (1 - facet.frac))


def segment_contains(outer, inner) -> bool:
    """inner lies inside outer: collinear and within its range."""

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    if cross(outer.a, outer.b, inner.a) != 0 or cross(outer.a, outer.b, inner.b) != 0:
        return False
    dx = outer.b[0] - outer.a[0]
    dy = outer.b[1] - outer.a[1]

    def param(p):
        return (p[0] - outer.a[0]) / dx if dx else (p[1] - outer.a[1]) / dy

    ta, tb = param(inner.a), param(inner.b)
    return 0 <= min(ta, tb) and max(ta, tb) <= 1


def test_frame_nesting():
    # every facet of S^(k) maps into a facet of S^(k-1) under F or F o R
    for dom in (triangle(), box(2), box(3)):
        prev = folding.build_frame(dom, 0)
        for k in range(1, 7):
            frame = folding.build_frame(dom, k)
            for facet in frame.facets:
                parent = frame_parent_facet(dom, facet)
                if dom.kind == "triangle":
                    assert any(segment_contains(p, parent) for p in prev.facets)
                else:
                    assert parent in prev.facets
            prev = frame


def test_partition_counts_triangle():
    # k = 0..3 equal the nodal counts of the Courant-sharp chain; M(4) = 9
    # was derived independently by an Euler-characteristic count; k = 5..13
    # are the values of the earlier float flood fill
    want = [2, 3, 4, 6, 9, 15, 25, 45, 81, 153, 289, 561, 1089, 2145]
    for k, m in enumerate(want):
        assert folding.partition_count(triangle(), k) == m


def cut_position_count(dom, k: int) -> int:
    """Product over the axes of (distinct cut positions + 1): every box facet
    is a whole hyperplane."""
    facets = folding.build_frame(dom, k).facets
    return math.prod(len({s.frac for s in facets if s.axis == a}) + 1 for a in range(dom.n))


def test_partition_counts_box_formula():
    for n in range(2, 7):
        for k in range(13):
            assert folding.partition_count(box(n), k) == cut_position_count(box(n), k), (n, k)


# -- test-only oracle: pixel flood fill of the frame ---------------------------

_OFFS = (0.4142135623730951, 0.7320508075688772, 0.2360679774997896)  # irrational


def _raster_triangle(frame, cells: int) -> int:
    h = 1.0 / cells  # work in units of pi
    cx = (np.arange(cells) + _OFFS[0]) * h
    cy = (np.arange(cells) + _OFFS[1]) * h
    alive = cy[None, :] < cx[:, None]  # strict interior of the triangle
    for seg in frame.facets:
        (ax, ay), (bx, by) = ((float(c) for c in p) for p in (seg.a, seg.b))
        x0, x1 = sorted((ax, bx))
        y0, y1 = sorted((ay, by))
        i0 = max(0, math.floor(x0 / h) - 1)
        i1 = min(cells - 1, math.ceil(x1 / h))
        j0 = max(0, math.floor(y0 / h) - 1)
        j1 = min(cells - 1, math.ceil(y1 / h))
        if i0 > i1 or j0 > j1:
            continue
        xlo = np.arange(i0, i1 + 1) * h
        xhi = xlo + h
        ylo = np.arange(j0, j1 + 1) * h
        yhi = ylo + h
        # a cell square meets the segment iff it meets the supporting line and
        # both bounding-box projections overlap; facets are vertical,
        # horizontal or at 45 degrees
        bbox = ((xlo <= x1) & (xhi >= x0))[:, None] & ((ylo <= y1) & (yhi >= y0))[None, :]
        if ax == bx:
            line = ((xlo <= ax) & (xhi >= ax))[:, None] & np.ones(len(ylo), bool)[None, :]
        elif ay == by:
            line = np.ones(len(xlo), bool)[:, None] & ((ylo <= ay) & (yhi >= ay))[None, :]
        elif (bx - ax) * (by - ay) > 0:  # x - y = c
            c = ax - ay
            line = (xlo[:, None] - yhi[None, :] <= c) & (c <= xhi[:, None] - ylo[None, :])
        else:  # x + y = c
            c = ax + ay
            line = (xlo[:, None] + ylo[None, :] <= c) & (c <= xhi[:, None] + yhi[None, :])
        alive[i0 : i1 + 1, j0 : j1 + 1] &= ~(line & bbox)
    return ndimage.label(alive)[1]


def _raster_box(frame, cells: int, n: int) -> int:
    alive = np.ones((cells,) * n, dtype=bool)
    for slab in frame.facets:
        f = float(slab.frac)
        i = int(f * cells)  # the plane falls inside cell i
        idx = [slice(None)] * n
        lo = max(0, i - (1 if f * cells == i else 0))
        idx[slab.axis] = slice(lo, min(cells, i + 1))
        alive[tuple(idx)] = False
    return ndimage.label(alive)[1]


def raster_partition_count(dom, k: int) -> int:
    """Flood fill at two resolutions that must agree, with one escalation."""
    frame = folding.build_frame(dom, k)
    if dom.kind == "triangle":
        cells = max(64, 16 * 2 ** ((k + 1) // 2))
    else:
        cells = max(32, 8 * 2 ** (k // dom.n))

    def count(cells: int) -> int:
        if dom.kind == "triangle":
            return _raster_triangle(frame, cells)
        return _raster_box(frame, cells, dom.n)

    for _ in range(2):
        c1, c2 = count(cells), count(2 * cells)
        if c1 == c2:
            return c1
        cells *= 2
    raise AssertionError(f"raster count unstable for {dom.label()} k={k}")


@pytest.mark.parametrize("dom", [triangle(), box(2), box(3)], ids=lambda d: d.label())
def test_partition_counts_match_raster_oracle(dom):
    for k in range(9):
        assert folding.partition_count(dom, k) == raster_partition_count(dom, k), k


# -- test-only oracle: the Fraction recursion and its exact lattice count ------


def fraction_frame(k: int) -> tuple:
    """S^(k) of the triangle built one Segment at a time in Fractions."""

    def u(p):
        return ((p[0] + p[1]) / 2, (p[0] - p[1]) / 2)

    def r(p):
        return (1 - p[1], 1 - p[0])

    segs = [folding.Segment((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)))]
    for _ in range(k):
        nxt = []
        for s in segs:
            ua, ub = u(s.a), u(s.b)
            nxt.append(folding.Segment(ua, ub))
            nxt.append(folding.Segment(r(ua), r(ub)))
        segs = nxt
    return tuple(segs)


def fraction_lattice_count(facets) -> int:
    """Free lattice points of step pi/(4D) labelled 4-connected, each facet
    marked in its own loop (the argument is in folding's docstring)."""
    d = max(c.denominator for seg in facets for p in (seg.a, seg.b) for c in p)
    size = 4 * d
    i = np.arange(size + 1)
    free = (i[None, :] > 0) & (i[None, :] < i[:, None]) & (i[:, None] < size)
    for seg in facets:
        (x0, y0), (x1, y1) = (
            tuple(c.numerator * (size // c.denominator) for c in p) for p in (seg.a, seg.b)
        )
        t = np.arange(max(abs(x1 - x0), abs(y1 - y0)) + 1)
        free[x0 + t * np.sign(x1 - x0), y0 + t * np.sign(y1 - y0)] = False
    return ndimage.label(free)[1]


def test_triangle_frame_facets_match_the_fraction_recursion():
    for k in range(13):
        assert folding.build_frame(triangle(), k).facets == fraction_frame(k), k


def test_triangle_counts_match_the_fraction_lattice_oracle():
    for k in range(15):
        want = fraction_lattice_count(fraction_frame(k))
        assert folding.partition_count(triangle(), k) == want, k


# -- test-only oracle: the frame's exact lattice, labelled --------------------


def lattice_partition_count(k: int) -> int:
    """Components of the open triangle minus the k-frame, on an exact lattice.

    Let D be the largest denominator of the facet endpoints (in units of pi;
    all are dyadic) and take the lattice of step pi/(4D).  Every facet and
    every side of the triangle is horizontal, vertical or at 45 degrees and
    lies on a line x, y or x +- y = c/D (c integer), so it passes through a
    lattice point at every lattice step, its endpoints are lattice points,
    and two of them cross only at lattice points.  These lines at spacing
    1/D cut the plane into small triangles (a 1/D square split by both
    diagonals, so their vertices are lattice points); each face of the
    partition is a union of them.  Each small triangle holds a free interior
    lattice point, and each of its edges that is not on the frame holds free
    lattice points 4-adjacent to it, so the free points of one face are
    4-connected.  Two 4-adjacent lattice points span an edge of length
    pi/(4D) that no facet crosses, so free points of different faces are
    never adjacent.  Hence the 4-connected components of the free lattice
    points are the faces: no offsets, no resolution, no certificate.
    """
    rows, den = folding._triangle_frame(k), 2 ** (k + 1)
    # every gcd is a power of two dividing den, so the smallest one belongs
    # to the largest reduced denominator, and den // d divides every numerator
    d = den // int(np.gcd(rows, den).min())
    size = 4 * d
    x0, y0, x1, y1 = (rows // (den // d) * 4).T
    dx, dy = x1 - x0, y1 - y0
    # one lattice point per step along each facet, endpoints included
    points = np.maximum(np.abs(dx), np.abs(dy)) + 1
    t = np.arange(points.sum()) - np.repeat(np.cumsum(points) - points, points)
    xs = np.repeat(x0, points) + t * np.repeat(np.sign(dx), points)
    ys = np.repeat(y0, points) + t * np.repeat(np.sign(dy), points)
    # free[x, y]: the open triangle 0 < y < x < 1, in lattice units
    free = np.tri(size + 1, k=-1, dtype=bool)
    free[:, 0] = free[size] = False
    free[xs, ys] = False
    return ndimage.label(free)[1]


def test_boundary_recursion_matches_the_lattice_oracle():
    counts = folding.boundary_word_counts(17)
    assert counts == [lattice_partition_count(k) for k in range(18)]
    assert counts[17] == 33153


def test_boundary_recursion_matches_the_closed_form():
    counts = folding.boundary_word_counts(36)
    assert counts == [folding.partition_count(triangle(), k) for k in range(37)]
    assert counts[36] == (2**17 + 1) ** 2


def test_triangle_denominator_bound_is_tight():
    # the lattice oracle's size follows from this bound
    for k in range(18):
        rows, den = folding._triangle_frame(k), 2 ** (k + 1)
        assert rows.shape == (2**k, 4)
        reduced = den // np.gcd(rows, den)
        assert int(reduced.max()) == 2 ** (k // 2 + 1), k


def test_frame_index_must_be_an_integer():
    # the cache must not answer 2.0 or True from the entries of 2 and 1
    assert folding.partition_count(triangle(), 2) == 4
    assert folding.partition_count(triangle(), 1) == 3
    for k in (2.0, True, False, "3", None, Fraction(2), np.float64(1.0), np.bool_(True)):
        for fn in (folding.partition_count, folding.build_frame):
            with pytest.raises(DomainError, match="integer"):
                fn(triangle(), k)
            with pytest.raises(DomainError, match="integer"):
                fn(box(2), k)
    for fn in (folding.partition_count, folding.build_frame):
        with pytest.raises(DomainError, match=">= 0"):
            fn(triangle(), -1)
    # NumPy integers count as the int they hold
    assert folding.partition_count(triangle(), np.int64(4)) == 9
    assert folding.partition_count(box(3), np.int32(7)) == 5
    assert folding.build_frame(triangle(), np.uint8(3)).facets == fraction_frame(3)
    with pytest.raises(DomainError, match="budget"):
        folding.build_frame(triangle(), np.int64(63))
    assert folding.boundary_word_counts(np.int64(4))[-1] == 9
    for k in (2.0, True, -1):
        with pytest.raises(DomainError):
            folding.boundary_word_counts(k)


def test_partition_count_peak_memory_is_within_the_budget():
    # past k = 17, the largest frame the lattice oracle labels in tier-1 time
    assert folding.partition_count(triangle(), 18) == 66049 == 257**2
    # the budget charges three times the answer's bytes
    for dom, k in ((triangle(), 2**20), (box(2), 2**21)):
        tracemalloc.start()
        try:
            m = folding._partition_count.__wrapped__(dom, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.bit_length() in (2**20 - 1, 2**20 + 1)
        assert peak <= 3 * m.bit_length() // 8, (dom.label(), peak)


def test_partition_count_budget_fails_fast():
    # an answer over the budget raises before it is built; the frame itself
    # stays bounded by the facet budget
    for dom, k in ((triangle(), 10**9), (triangle(), 2**64), (box(2), 2**31), (box(6), 10**10)):
        with pytest.raises(DomainError, match="partition count .* budget"):
            folding.partition_count(dom, k)
    for dom, k in ((triangle(), 60), (box(2), 120)):
        with pytest.raises(DomainError, match="frame .* budget"):
            folding.build_frame(dom, k)


def test_square_subdomain_values():
    assert folding.square_subdomain_value(1, 0).coeffs == (10,)
    assert folding.square_subdomain_value(0, 1).coeffs == (10,)
    assert folding.square_subdomain_value(0, 0).coeffs == (2,)
    with pytest.raises(DomainError):
        folding.square_subdomain_value(-1, 0)


def test_rect_subdomain_values():
    assert folding.rect_subdomain_value(2, 3, 1).coeffs == (20,)
    with pytest.raises(DomainError):
        folding.rect_subdomain_value(1, 1, 1)
    with pytest.raises(DomainError):
        folding.rect_subdomain_value(2, 1, 2)  # q must be odd


def brute_square_spectrum(limit: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    p = 0
    while (2 * p + 1) ** 2 < limit:
        q = 0
        while (2 * p + 1) ** 2 + (2 * q + 1) ** 2 < limit:
            v = (2 * p + 1) ** 2 + (2 * q + 1) ** 2
            counts[v] = counts.get(v, 0) + 1
            q += 1
        p += 1
    return counts


def brute_rect_spectrum(k: int, limit: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in range(1, int(math.isqrt(limit)) + 2):
        for q in range(1, int(math.isqrt(limit)) + 2, 2):
            v = 2 ** (k - 1) * (p * p + q * q)
            if v < limit:
                counts[v] = counts.get(v, 0) + 1
    return counts


def test_unfolded_interior_cores_are_degenerate_in_subdomains():
    # odd (m, n) with n != 0: the unfolded eigenvalue repeats in the square
    # subdomain spectrum, and the k-fold unfolding repeats in the k-rectangle
    square = brute_square_spectrum(2 * (12**2 + 11**2) + 1)
    for m in range(1, 13):
        for n in range(1, m + 1):
            if (m - n) % 2 == 0 or n == 0:
                continue
            assert square[2 * (m * m + n * n)] >= 2, (m, n)
            for k in range(2, 6):
                value = 2**k * (m * m + n * n)
                rect = brute_rect_spectrum(k, value + 1)
                assert rect[value] >= 2, (m, n, k)


def test_partition_count_rejects_an_unhashable_index():
    for k in ([3], {3: 3}):
        with pytest.raises(DomainError, match="integer"):
            folding.partition_count(triangle(), k)
    # the wrapper keeps the cache API that the benchmark resets and reads
    folding.partition_count.cache_clear()
    folding.partition_count(box(2), 3)
    folding.partition_count(box(2), np.int64(3))
    info = folding.partition_count.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- criterion 7's matrices and laws against the float maps and samples --------


def _apply(matrix, t) -> np.ndarray:
    return np.array([sum(float(a) * x for a, x in zip(row, t)) for row in matrix])


@pytest.mark.parametrize("dom", [triangle()] + [box(n) for n in range(2, 7)], ids=lambda d: d.label())
def test_unfold_and_fold_matrices_match_the_point_maps(dom):
    # the matrices act on normalised coordinates t_j = x_j / l_j
    lengths = np.array(dom.edge_lengths())
    u, f = acceptance.unfold_matrix(dom), acceptance.fold_matrix(dom)
    for p in sample_interior(dom, 200, seed=2):
        half = np.array(unfold_point(dom, tuple(p)))
        assert half == pytest.approx(_apply(u, p / lengths) * lengths, abs=1e-12)
        assert np.array(fold_point(dom, tuple(half))) == pytest.approx(p, abs=1e-12)
        assert fold_point(dom, tuple(half)) == pytest.approx(
            _apply(f, half / lengths) * lengths, abs=1e-12
        )


def _sampled_laws(f, g) -> tuple[bool, bool]:
    """(g o U == f, g == f o U) at 1000 interior points, within 1e-12."""
    dom = f.domain
    pts = sample_interior(dom, 1000, seed=3)
    half = np.array([unfold_point(dom, tuple(p)) for p in pts])
    tol = 1e-12 * max(sup_estimate(f), sup_estimate(g))
    unfold = np.max(np.abs(eigenfn.eval_points(g, half) - eigenfn.eval_points(f, pts)))
    fold = np.max(np.abs(eigenfn.eval_points(g, pts) - eigenfn.eval_points(f, half)))
    return bool(unfold <= tol), bool(fold <= tol)


def _exact_laws(f, g) -> tuple[bool, bool]:
    u = acceptance.unfold_matrix(f.domain)
    return (
        acceptance.cosine_terms(g, u) == acceptance.cosine_terms(f),
        acceptance.cosine_terms(g) == acceptance.cosine_terms(f, u),
    )


def test_folding_laws_match_the_oracle_on_every_criterion_7_case():
    cases = 0
    for dom, qns in (
        (triangle(), [(a, b) for a in range(11) for b in range(a + 1)]),
        (box(2), list(itertools.product(range(6), repeat=2))),
        (box(3), list(itertools.product(range(4), repeat=3))),
    ):
        for qn in qns:
            f = eigenfn.basis_fn(dom, qn)
            up = eigenfn.unfold_fn(f)
            assert _exact_laws(f, up)[0] and _sampled_laws(f, up)[0], (dom, qn)
            if qn_parity(dom, qn) == "even":
                down = eigenfn.fold_fn(f)
                assert _exact_laws(f, down)[1] and _sampled_laws(f, down)[1], (dom, qn)
            cases += 1
    assert cases == 166


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([0, 2, 3, 4, 5, 6]),
    a=st.lists(st.integers(0, 8), min_size=6, max_size=6),
    b=st.lists(st.integers(0, 8), min_size=6, max_size=6),
)
def test_folding_laws_match_the_oracle_on_random_pairs(n, a, b):
    # g against f, where g is the unfolding or folding of f only when a == b
    dom = triangle() if n == 0 else box(n)
    size = dom.n
    m = tuple(sorted(a[:size], reverse=True)) if n == 0 else tuple(a[:size])
    m2 = tuple(sorted(b[:size], reverse=True)) if n == 0 else tuple(b[:size])
    f, f2 = eigenfn.basis_fn(dom, m), eigenfn.basis_fn(dom, m2)
    up = eigenfn.basis_fn(dom, folding.unfold_qn(dom, m2))
    assert _exact_laws(f, up)[0] == _sampled_laws(f, up)[0] == (m == m2)
    if qn_parity(dom, m2) == "even":
        down = eigenfn.fold_fn(f2)
        assert _exact_laws(f, down)[1] == _sampled_laws(f, down)[1] == (m == m2)


# -- round trips of the quantum-number maps, at random -------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    entries=st.lists(st.integers(0, 10**6), min_size=12, max_size=12),
    k=st.integers(0, 30),
)
def test_fold_unfold_and_scale_round_trips(n, entries, k):
    # n = 1 stands for the triangle
    dom = triangle() if n == 1 else box(n)
    m = tuple(sorted(entries[:2], reverse=True)) if n == 1 else tuple(entries[:n])
    value = eigenvalue(dom, m)
    up = m
    for _ in range(k):
        up = folding.unfold_qn(dom, up)
    assert eigenvalue(dom, up).coeffs == algebra.scale_gamma2(value, k).coeffs
    assert algebra.scale_gamma2(algebra.scale_gamma2(value, k), -k).coeffs == value.coeffs
    down = up
    for _ in range(k):
        down = folding.fold_qn(dom, down)
    assert down == m
