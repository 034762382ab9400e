"""Nodal-domain counting and nodal-deficiency bounds.

The closed-form counts cover box basis functions and the two Neumann triangle
shapes with straight nodal lines, (a, a) and every (a, 0); the grid oracle counts
everything from samples on an irrationally offset grid and certifies the
count by agreement under one resolution doubling.  A box basis function is
a product of one factor per axis (eigenfn.trig), so the oracle counts the
runs of one strict sign on each sampled axis and multiplies them; it never
reads the quantum number or the eigenvalue, and it samples every axis of a
batch from one index column.  Box combos of several terms are refused.  A
triangle combo is sampled on the full grid, and two same-sign orthogonal
neighbors are joined only where f is proven to keep that sign on the
segment between them:
by the interpolation-error bound of its second derivative along the
segment, bisecting where that bound does not suffice.  So no join bridges
two nodal domains; what the grid can still miss is a neck of one domain
narrower than a cell, which splits it and over-counts, and the doubling
check guards against that.  Each triangle grid is labelled once, on one
sign plane at cell resolution: the positive cells in place and the negative
cells turned by 180 degrees across its empty diagonal, with a row
(column) of join pixels only after a plane row (column) that holds a cut
edge.  The two grids of a doubling pair are counted in one batch, with one
edge bisection.  A triangle combo that eigenfn.symmetry_check finds odd
across the cut L is counted on the half triangle and doubled.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import algebra, folding
from .algebra import AlgebraicValue
from .domains import DIRICHLET, NEUMANN, TRIANGLE, Domain, check_qn
from .eigenfn import Combo, basis_fn, eval_on_axes, eval_points, product_terms, symmetry_check, trig
from .errors import DivisibilityError, DomainError, GridInstabilityError
from .qlattice import QN
from .spectrum import SpectrumIndex, odd_core


def __getattr__(name: str):
    """scipy.ndimage, imported on first access: only the labelling needs it."""
    # bench/spans.py swaps nodal.ndimage for a tracer, so it stays an attribute
    if name == "ndimage":
        global ndimage
        from scipy import ndimage

        return ndimage
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the labelling reads _module.ndimage, which the first read imports
_module = sys.modules[__name__]

_GRID_OFFS = (0.4142135623730951, 0.7320508075688772, 0.23606797749978969)
# 4-connectivity, scipy.ndimage.label's default, built once
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# Largest sampling grid, in points, that count_grid evaluates.  The grids of
# one batch (_grid_counts: the doubling pair, or a later doubling alone) are
# checked before any of them is evaluated, so a count fails only when a grid
# it needs is too large, and ends in DomainError instead of a numpy
# allocation error.  A box basis function is counted on its axes alone, so
# for it the budget bounds the total of the axis sample counts of the batch;
# only triangle combos are sampled on the full grid, each grid held to the
# budget on its own; the budget counts the full n x n grid even for a halved
# count, which samples half its columns.  The edge bisection of a triangle
# batch holds the live intervals of both axes of all its grids together to
# the budget too, counting _INTERVAL_POINTS points for each.  Peak memory,
# measured with tracemalloc over the simple triangle levels below 403 at
# 1024 and 2048 cells: a triangle grid at most 16.2 bytes per point of the
# n x n grid with or without a cut edge (9.1 when halved), while f is
# evaluated (the float samples and one product term); its sign plane and
# the plane's int32 labels, which come after the samples are freed, hold
# about 5.1, halved or not (the negative cells turned into the empty upper
# half of the n x n plane).  A doubling pair, at 512 and 1024 or 1024 and 2048 cells,
# at most 16.5 (9.2) per point of its larger grid, whose samples are taken
# while the signs of the smaller are live.  A live interval takes about 283
# bytes and the axes of a box basis function 40 per sample (the samples and
# their axis's four terms repeated beside them, see _box_phases), so the
# budget holds peak memory near 0.5, 1.1 and 1.3 GiB.  In the test
# suite, the largest grid count_grid samples has 4.2e6 points (a triangle at
# 2048 cells) and its largest batch of axes 885 samples (a box at 64 and
# 128 cells).
GRID_BUDGET = 1 << 25
_INTERVAL_POINTS = 8


@dataclass(frozen=True)
class NodalCount:
    count: int
    method: str  # "formula" or "grid"
    resolution: int | None = None
    stable: bool = True


def formula_counts(domain: Domain, m: np.ndarray) -> np.ndarray:
    """The closed-form nodal count of each row of a quantum-number matrix m;
    raises DomainError where none is available, naming the first such row.

    A box basis function is a product of one cosine per axis, or one sine
    (Dirichlet, m_j >= 1), so its nodal domains are the prod(m_j + 1), or
    prod(m_j), cells of a grid of planes.  On the Neumann triangle two
    shapes have straight nodal lines:

      * (a, a): 2 cos ax cos ay vanishes on x, y = (2i+1) pi / (2a), and the
        triangle 0 <= y <= x <= pi keeps i + 1 cells of column i, i = 0..a,
        so nu = (a+1)(a+2)/2;
      * (a, 0): cos ax + cos ay = 2 cos(a s/2) cos(a d/2) with s = x+y and
        d = x-y.  In (s, d) the triangle is 0 <= d <= s <= 2 pi - d, and the
        nodal lines are s = (2i+1) pi / a and d = (2j+1) pi / a < pi.  The
        d-lines cut it into the strips j = 0..floor(a/2), strip j lying
        between d = (2j-1) pi / a (or 0) and d = (2j+1) pi / a (or pi).
        Exactly the a - 2j lines s = (2i+1) pi / a, i = j..a-1-j, cross strip
        j from side to side; they are parallel, so strip j holds a - 2j + 1
        cells.  The sum over j is floor((a+2)^2 / 4): (m+1)^2 at a = 2m and
        (m+1)(m+2) at a = 2m + 1.

    On an index's int64 members no count overflows: coordinates are below
    2^22, and a box count is the number of lattice points in the nodal box,
    each at or below the member, so inside the region and its POINT_BUDGET.
    """
    triangle, neumann = domain.kind == TRIANGLE, domain.bc == NEUMANN
    if triangle and not neumann:
        raise DomainError("closed-form nodal counts cover the Neumann triangle and the box only")
    valid = (m >= 1 - neumann).all(axis=1) & (m[:, 0] >= m[:, 1] if triangle else True)
    for row in m[~valid][:1].tolist():
        check_qn(domain, tuple(row))  # refuses the first invalid row with its message
    if not triangle:
        return np.prod(m + neumann, axis=1)
    a, b = m.T
    for row in m[(a != b) & (b != 0)][:1].tolist():
        raise DomainError(f"no closed-form nodal count for triangle {tuple(row)}; use count_grid")
    return np.where(a == b, (a + 1) * (a + 2) // 2, (a + 2) ** 2 // 4)


def count_formula(domain: Domain, m: QN) -> NodalCount:
    """formula_counts of one checked quantum number, exact at any size."""
    row = np.array([check_qn(domain, m)], dtype=object)
    return NodalCount(int(formula_counts(domain, row)[0]), "formula")


def _max_halfperiods(f: Combo) -> int:
    """Max number of sign half-periods along any axis, rescaled to axis 0:
    w l_j / pi along axis j, times l_0 / l_j for one cell size everywhere."""
    l0 = math.pi  # edge_lengths()[0], bit for bit, on every domain
    return math.ceil(max([1.0] + [w * l0 / math.pi for _, freqs in product_terms(f) for w in freqs]))


# bisections of a grid edge before its join is refused as undecided: an
# interval is then 2^-32 of a cell long, still far above the float spacing
# of the coordinates at any grid the budget admits
_BISECT_DEPTH = 32


def _rounding_margin(terms) -> float:
    """Bound on the rounding error of one value of f at a point of [0, pi]^2.

    A term c * trig(wx x) * trig(wy y) is evaluated within a few units in the
    last place of |c| * (1 + pi (wx + wy)): the phases w x are rounded once,
    and trig, the products and the sum add a few more roundings.  2^-46 is
    over a hundred times that.
    """
    return 2.0**-46 * sum(abs(c) * (4.0 + math.pi * sum(freqs)) for c, freqs in terms)


def _interval_floor(a, b, k):
    """A lower bound on g over an interval where g has the end values a and b
    and |g''| <= M2, with k = M2 l^2 / 2 for its length l, at once for arrays.

    Linear interpolation between the ends is within M2 t (l - t) / 2 of g at
    distance t from an end, so with s = t / l, g >= a + (b - a) s - k s (1 - s).
    Over s in [0, 1] that is smallest at an end when |b - a| >= k, and else at
    s = (k - (b - a)) / 2k, where it is (a + b)/2 - k/4 - (b - a)^2 / 4k.  Both
    are min(a, b) - max(k - |b - a|, 0)^2 / 4k, which is never below
    min(a, b) - k/4, the bound of the interval's smaller end alone.
    """
    e = np.maximum(k - np.abs(b - a), 0.0)
    # e > 0 only where k > 0
    return np.minimum(a, b) - np.divide(e * e, 4.0 * k, out=np.zeros_like(e), where=e > 0)


def _cut_edges(
    f: Combo, lo, hi, f_lo, f_hi, curv: np.ndarray, eps: float, cells: np.ndarray
) -> np.ndarray:
    """Bisect grid edges whose join is not yet proven; True where an edge is cut.

    Edge e runs from the point lo[e] to hi[e] along one axis of the grid with
    cells[e] cells, and f takes the values f_lo[e] and f_hi[e] of one strict
    sign at its ends.  curv[e] is an eighth of a bound M2 on |f''| along the
    edge's axis, so edges of both axes and of several grids go in one call.
    An interval of length l is proven when its end values, taken in their
    sign, give _interval_floor with k = 4 curv[e] l^2 = M2 l^2 / 2 above eps;
    the live intervals are the others.  Before each round, the first
    included, the proven intervals are dropped; then every live interval is
    halved through eval_points, all edges at once, and a midpoint of the
    other sign, or zero, cuts its edge.  Each edge is decided by its own
    intervals alone, so the grids of one call do not interact.  The live
    intervals of all edges together are held to the budget.  An edge still
    undecided after _BISECT_DEPTH halvings raises GridInstabilityError,
    which names the grid of the first such edge.
    """
    sign = np.sign(f_lo)
    cut = np.zeros(len(sign), dtype=bool)
    edge = np.arange(len(sign))
    for depth in range(_BISECT_DEPTH + 1):
        # an edge moves along one axis only, so its length is the sum of its
        # coordinate differences
        length = (hi - lo).sum(axis=1)
        s = sign[edge]
        live = _interval_floor(s * f_lo, s * f_hi, 4.0 * curv[edge] * length**2) <= eps
        edge, lo, hi, f_lo, f_hi = (a[live] for a in (edge, lo, hi, f_lo, f_hi))
        if not edge.size:
            return cut
        if depth == _BISECT_DEPTH:
            break
        _check_budget(_INTERVAL_POINTS * edge.size, cells, "edge bisection")
        mid = 0.5 * (lo + hi)
        f_mid = eval_points(f, mid)
        cut[edge[np.sign(f_mid) != sign[edge]]] = True
        keep = ~cut[edge]
        edge, lo, hi, f_lo, f_hi, mid, f_mid = (
            a[keep] for a in (edge, lo, hi, f_lo, f_hi, mid, f_mid)
        )
        edge = np.concatenate((edge, edge))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
    at = cells[edge.min()]
    raise GridInstabilityError(
        f"nodal count undecided at {at} cells: "
        f"{np.unique(edge[cells[edge] == at]).size} grid edges keep their "
        f"sign at every sample but are not proven after {_BISECT_DEPTH} bisections"
    )


def _triangle_grid_counts(f: Combo, resolutions: tuple[int, ...], halve: bool) -> list[int]:
    """Triangle counts with proven joins, one labelling per grid.

    Two orthogonal same-sign neighbors are joined only when f is proven to
    keep that strict sign on the segment between their centers: at once when
    min(|f0|, |f1|) > M2 h^2 / 8 + eps, with M2 = sum |c| w^2 over the terms
    and w their frequency along the segment, and otherwise by the sharper
    interpolation bound and bisection (_cut_edges, one call for the unsure
    edges of every grid).  A nodal line between the centers always leaves a
    sample of the other sign or an unproven interval, so diagonal nodal
    lines and their crossings cannot silently bridge distinct domains.
    Each count is the number of components of the sign plane (_sign_plane)
    of its grid and cut edges.  On the full and the half grid, ay[j] < ax[i]
    exactly when j <= i - 1: the offsets put ay[j] 0.318 h above ax[j], far
    over any rounding.  So every inside cell lies strictly below the
    diagonal, and the plane is n x n.
    """
    terms = product_terms(f)
    eps = _rounding_margin(terms)
    curv = np.array([sum(abs(c) * fr[k] ** 2 for c, fr in terms) / 8.0 for k in (0, 1)])
    signs, edges = zip(*(_signs_and_edges(f, cells0, halve, curv, eps) for cells0 in resolutions))
    grid = np.repeat(np.arange(len(signs)), [len(e[0]) for e in edges])
    i, j, axis, lo, hi, f_lo, f_hi = map(np.concatenate, zip(*edges))
    cut = _cut_edges(f, lo, hi, f_lo, f_hi, curv[axis], eps, np.asarray(resolutions)[grid])
    counts = []
    for k, sign in enumerate(signs):
        on = [cut & (grid == k) & (axis == a) for a in (0, 1)]
        plane = _sign_plane(sign, [(i[e], j[e]) for e in on])
        count = _module.ndimage.label(plane, _CROSS)[1]
        counts.append(2 * count if halve else count)
    return counts


def _signs_and_edges(f: Combo, cells0: int, halve: bool, curv: np.ndarray, eps: float):
    """The sign of f at each cell of the (half) triangle, 0 outside, and its
    unsure edges: the same-sign edges whose join is not proven at once, each
    as the cell (i, j) of its lower end, its axis, its end points and the
    values of f there.  The float samples live here alone, so they are
    freed before the bisection."""
    n = max(8, cells0)
    h = math.pi / n
    ax, ay = ((np.arange(n) + off) * h for off in _GRID_OFFS[:2])
    step = max(np.diff(ax).max(), np.diff(ay).max())
    if halve:
        # ax > ay >= fl(pi/2) = fl(pi) / 2 puts fl(ax + ay) at or above
        # fl(pi), so no cell of the half domain lies in a later column
        ay = ay[: np.searchsorted(ay, math.pi / 2)]
    vals = eval_on_axes(f, (ax, ay))
    inside = ay[None, :] < ax[:, None]
    if halve:
        inside &= ax[:, None] + ay[None, :] < math.pi
    # np.sign of each inside value, and 0 outside
    sign = np.subtract(vals > 0, vals < 0, dtype=np.int8) * inside

    bound = curv * step**2 + eps
    # an edge is unsure when its ends share a strict sign and one of them is
    # at or below its axis's bound, min(|f0|, |f1|) <= bound; the cells at or
    # below the larger bound are few, so the edges are found from them
    flat_vals, flat_sign = vals.ravel(), sign.ravel()
    low = np.flatnonzero((vals <= bound.max()) & (vals >= -bound.max()))
    n1 = sign.shape[1]
    ends = []
    for k, stride in enumerate((n1, 1)):
        # each low cell as the lower end of its edge, then as the upper end
        # of the edge whose lower end is not low
        lo = low[np.abs(flat_vals[low]) <= bound[k]]
        up = lo[lo >= stride] - stride
        lo = np.concatenate((lo, up[np.abs(flat_vals[up]) > bound[k]]))
        lo = lo[lo + stride < flat_sign.size]
        if k == 1:
            lo = lo[lo % n1 < n1 - 1]  # no edge leaves the last column
        same = (flat_sign[lo] == flat_sign[lo + stride]) & (flat_sign[lo] != 0)
        ends.append(lo[same])
    axis = np.repeat((0, 1), [e.size for e in ends])
    lo = np.concatenate(ends)
    hi = lo + np.where(axis == 0, n1, 1)
    i, j = np.divmod(lo, n1)
    i1, j1 = np.divmod(hi, n1)
    return sign, (
        i, j, axis, np.stack((ax[i], ay[j]), axis=1), np.stack((ax[i1], ay[j1]), axis=1),
        flat_vals[lo], flat_vals[hi],
    )


def _sign_plane(sign: np.ndarray, cuts) -> np.ndarray:
    """The image whose 4-connected components are the grid's nodal domains.

    sign is an int8 n0 x n1 grid of -1, 0 and 1 with n1 <= n0 and every
    nonzero cell strictly below the diagonal (j < i), as on the full and the
    half triangle, and cuts[k] holds the lower ends (i, j) of the cut edges
    along axis k, each between two cells of one strict sign.  Every other
    edge between two cells of one strict sign is a join.  The plane is
    n0 x n0: the positive cells keep their place, and the negative cells are
    turned into it by 180 degrees, cell (i, j) to (n0 - 1 - i, n0 - 1 - j),
    strictly above the diagonal; so a negative cut edge's lower end goes to
    the turned upper end.  A row of join pixels follows each plane row that
    holds a cut axis-0 edge of either sign, and a column of join pixels each
    plane column that holds a cut axis-1 edge; a join pixel copies the pixel
    above (left of) it and is 0 where its edge is cut, and a pixel where
    such a row meets such a column is 0.

    Why the components are the nodal domains.  No positive cell is
    4-adjacent to a turned negative one: the empty diagonal keeps them
    apart.  A positive cell (r, c) has c < r and a turned one c > r, so in
    one row they are two columns apart or more, and below a positive
    (turned) cell (r, c) the cell (r + 1, c) has c < r + 1 (c >= r + 1) and
    can only be positive (turned) too.  So two set pixels on either side of
    a join pixel share their sign, and a set join pixel lies on a join
    unless the pixel after it is unset; then it hangs from the one before,
    and touches no other set pixel but copies of that one's neighbours, so
    it changes no component.  Take the doubled image whose even pixels are
    the plane's cells, whose pixels between two cells are the joins and
    whose pixels with two odd coordinates are 0: its components are the
    nodal domains of both signs, the turned ones turned, which changes no
    adjacency.  Deleting a row of join pixels that holds no cut neither
    joins nor splits a component.  Each deleted set pixel had both its
    neighbours across the row set, and these become adjacent.  Two cells
    that become adjacent are set together exactly when their join was.  Two
    join pixels of a kept column that become adjacent are set together only
    when the four cells around them are set, so of one sign, and then those
    cells were already joined across the deleted row.  The same holds for a
    column, and deleting every such row and column leaves this image
    without its hanging pixels.
    """
    n0, n1 = sign.shape
    plane = np.zeros((n0, n0), dtype=bool)
    np.greater(sign, 0, out=plane[:, :n1])
    plane[::-1, ::-1][:, :n1] |= sign < 0
    ends = []
    for k, (i, j) in enumerate(cuts):
        # a negative edge's lower end in the plane is its turned upper end
        turned = sign[i, j] < 0
        ends.append((
            np.where(turned, n0 - 1 - (i + (k == 0)), i),
            np.where(turned, n0 - 1 - (j + (k == 1)), j),
        ))
    (i0, j0), (i1, j1) = ends
    rows, cols = np.unique(i0), np.unique(j1)
    # where the join rows and columns go in the image
    new_rows = rows + np.arange(1, rows.size + 1)
    new_cols = cols + np.arange(1, cols.size + 1)
    img = plane
    if rows.size:
        # each plane row, and where a join row follows, a copy with the cut edges cleared
        img = plane.take(np.sort(np.concatenate((np.arange(n0), rows))), axis=0)
        img[new_rows[np.searchsorted(rows, i0)], j0] = False
    if cols.size:
        # the same along axis 1, over the rows above; where a join row
        # crosses a join column the pixel is 0
        img = img.take(np.sort(np.concatenate((np.arange(n0), cols))), axis=1)
        img[i1 + np.searchsorted(rows, i1), new_cols[np.searchsorted(cols, j1)]] = False
        img[np.ix_(new_rows, new_cols)] = False
    return img


def _box_phases(f: Combo, resolutions: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The phase w_j x_j of every sample of every axis of the box grids at
    these resolutions, axis by axis and grid by grid in one array, and where
    each axis starts in it.

    f must be one product of a factor per axis, of frequencies w_j.  Axis j
    of the grid with `cells` cells along axis 0 holds the n_j = max(8,
    ceil(cells l_j / l_0)) samples x = (k + off_j) (l_j / n_j), k < n_j, over
    the edge lengths l_j.  Their total is held to GRID_BUDGET before anything
    is allocated.  Every axis comes from one index column: k is the index
    minus the start of its axis, and each phase is rounded as ((k + off_j) *
    (l_j / n_j)) * w_j, with the terms of its axis repeated along the column.
    """
    terms = product_terms(f)
    if len(terms) != 1:
        raise DomainError(
            f"no grid nodal count for box combos of several terms ({len(terms)} given)"
        )
    [(_, freqs)] = terms
    lengths = f.domain.edge_lengths()
    sizes = [max(8, math.ceil(cells * lj / lengths[0])) for cells in resolutions for lj in lengths]
    _check_budget(sum(sizes), resolutions, "axes")
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    per_axis = [
        (start, _GRID_OFFS[j % 3], lengths[j] / nj, freqs[j])
        for start, nj, j in zip(starts, sizes, itertools.cycle(range(len(lengths))))
    ]
    start, off, step, w = np.repeat(np.array(per_axis), sizes, axis=0).T
    x = np.arange(len(start), dtype=float)
    x -= start
    x += off
    x *= step
    x *= w
    return x, np.array(starts)


def _sign_runs(s: np.ndarray, starts) -> np.ndarray:
    """Maximal runs of one nonzero sign on each sampled axis, where axis k
    holds the signs s[starts[k]:starts[k + 1]] and starts[0] is 0; a zero
    splits a run."""
    first = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    first[starts] = True
    return np.add.reduceat(np.logical_and(first, s, out=first), starts, dtype=np.intp)


def _check_budget(points: int, cells, what: str) -> None:
    """Refuse `points` over GRID_BUDGET; cells are the resolutions they serve."""
    if points > GRID_BUDGET:
        at = " and ".join(map(str, np.unique(cells)))
        raise DomainError(
            f"the nodal {what} at {at} cells: {points:.3g} points, "
            f"over the budget of {GRID_BUDGET}"
        )


def _grid_counts(f: Combo, resolutions: tuple[int, ...], halve: bool) -> list[int]:
    """The grid count of f at each resolution, in one batch: the triangle
    grids share one edge bisection, and every axis of a box basis function
    at every resolution is evaluated at once."""
    if f.domain.kind == TRIANGLE:
        for cells0 in resolutions:
            _check_budget(max(8, cells0) ** 2, [cells0], "grid")
        return _triangle_grid_counts(f, resolutions, halve)
    # one product of a factor per axis: two same-sign neighbours of the grid
    # differ in one factor only, so the components of {f > 0} and {f < 0} are
    # the products of the sign runs on each axis
    x, starts = _box_phases(f, resolutions)
    s = np.sign(trig(f)(x, out=x), out=x)
    runs = _sign_runs(s, starts).reshape(len(resolutions), -1)
    return [math.prod(r) for r in runs.tolist()]


def count_grid(f: Combo, resolution: int | None = None) -> NodalCount:
    """Grid nodal count with a stability certificate.

    resolution is the cell count along the first axis, from 16 to
    GRID_BUDGET; the default gives at least 8 cells per sign half-period of
    the fastest term.  The grids at
    resolution and twice it are counted in one batch (_grid_counts), each
    later doubling alone.  A box basis function is counted as the product
    of its sign runs along each sampled axis, which equals the labelled
    count of the same samples on the full grid; box combos of several terms
    raise DomainError.  A triangle combo is counted in one labelling of its
    sign plane per grid, the negative cells turned by 180 degrees across the
    empty diagonal, with join rows and columns only where an edge is cut
    (_triangle_grid_counts, _sign_plane), the unproven edges of a batch
    bisected together: a join never crosses a nodal line, and the doubling
    check guards against a domain pinched narrower than a cell, which the
    grid would split.  An edge that neither a proof nor a sample of the
    other sign decides raises GridInstabilityError.  A triangle combo that
    eigenfn.symmetry_check finds odd across the cut L is counted on the open
    half domain and doubled (it vanishes on L, so its nodal domains come in
    mirror pairs); this keeps the diagonal cut off the sampling grid.
    """
    if resolution is None:
        resolution = max(16, 8 * _max_halfperiods(f))
    if resolution < 16:
        raise DomainError("resolution must be >= 16 cells along the first axis")
    if resolution > GRID_BUDGET:  # axis 0 alone: refused before any float arithmetic on it
        raise DomainError(
            f"the nodal grid at {resolution} cells is over the budget of {GRID_BUDGET} points"
        )
    halve = f.domain.kind == TRIANGLE and symmetry_check(f) == "odd"
    cells = resolution
    c1, c2 = _grid_counts(f, (cells, 2 * cells), halve)
    while c1 != c2:
        if cells == 4 * resolution:
            raise GridInstabilityError(
                f"nodal count unstable after 3 doublings (last {c1} vs {c2})"
            )
        cells *= 2
        c1, (c2,) = c2, _grid_counts(f, (2 * cells,), halve)
    return NodalCount(c1, "grid", resolution=cells, stable=True)


def count_auto(domain: Domain, m: QN, resolution: int | None = None) -> NodalCount:
    """Formula when available, grid otherwise."""
    try:
        if resolution is None:
            return count_formula(domain, m)
    except DomainError:
        pass
    return count_grid(basis_fn(domain, m), resolution)


# ---------------------------------------------------------------------------
# nodal deficiency


@dataclass(frozen=True)
class DeficiencyReport:
    """Both lower bounds on the nodal deficiency of value = gamma^(2k) core;
    boundary_even is one read of SpectrumIndex.right_boundary_parity."""

    value: AlgebraicValue
    core: AlgebraicValue
    k: int
    core_multiplicity: int
    partition_size: int  # M(k)
    boundary_even: int  # |right-boundary of Q(core) intersected with E|
    bound_unfolding: int  # (d(core) - 1) * (M(k) - 1)
    bound_boundary: int | None  # |boundary ∩ E| - 1, applicable at k = 0 only
    bound: int

    def as_dict(self) -> dict:
        return {
            "value": self.value.text(),
            "float": float(self.value),
            "core": self.core.text(),
            "k": self.k,
            "core_multiplicity": self.core_multiplicity,
            "partition_size": self.partition_size,
            "boundary_even": self.boundary_even,
            "bound_unfolding": self.bound_unfolding,
            "bound_boundary": self.bound_boundary,
            "bound": self.bound,
        }


def deficiency_bound(si: SpectrumIndex, value: AlgebraicValue) -> DeficiencyReport:
    """Lower bounds for the nodal deficiency of a Neumann eigenvalue below
    2^1023.  Every lattice point of an even value folds (a = b mod 2 on the
    triangle, c_0 = m_1^2 mod 2 on the box), so d(gamma^(2k) core) = d(core),
    value is an eigenvalue exactly when d(core) > 0, and si need only reach
    the core."""
    dom = si.domain
    if dom.bc != NEUMANN:
        raise DomainError("deficiency bounds are for the Neumann problem")
    si.check_ring(value)  # before odd_core, so that an error names value
    if value.is_zero():
        raise DomainError("the ground state has no deficiency bound")
    try:
        oc = odd_core(value)
        d = si.multiplicity_of(oc.core)
    except DivisibilityError:  # an even value with no point to fold
        d = 0
    if not d:
        raise DomainError(f"{value.text()} is not in the spectrum below the cutoff")
    if not algebra.is_below(value, 2.0**1023):  # so that its double is finite
        raise DomainError(f"{value.text()} is too large: deficiency bounds take values below 2^1023")
    mk = folding.partition_count(dom, oc.k)
    boundary_even, _ = si.right_boundary_parity(oc.core)
    b1 = (d - 1) * (mk - 1)
    b2 = boundary_even - 1 if oc.k == 0 else None
    bound = max(b1, b2 if b2 is not None else 0, 0)
    return DeficiencyReport(value, oc.core, oc.k, d, mk, boundary_even, b1, b2, bound)


@dataclass(frozen=True)
class DirichletDeficiencyCheck:
    value: AlgebraicValue
    folded: AlgebraicValue
    lhs: int  # delta(value) = N(value) - nu(phi)
    folded_deficiency: int
    boundary_odd: int
    rhs: int  # 2 delta(folded) + |boundary ∩ O| - 1

    def as_dict(self) -> dict:
        return {
            "value": self.value.text(),
            "folded": self.folded.text(),
            "lhs": self.lhs,
            "folded_deficiency": self.folded_deficiency,
            "boundary_odd": self.boundary_odd,
            "rhs": self.rhs,
            "holds": self.lhs == self.rhs,
        }


def _simple_deficiency(si: SpectrumIndex, value: AlgebraicValue) -> int:
    level = si.level_of(value)
    if level is None or level.multiplicity != 1:
        raise DomainError(f"{value.text()} must be a simple eigenvalue below the cutoff")
    return si.position_of(value) - count_auto(si.domain, level.members[0]).count


def dirichlet_deficiency_check(
    si: SpectrumIndex, value: AlgebraicValue
) -> DirichletDeficiencyCheck:
    """Both sides of the deficiency identity for an even Dirichlet eigenvalue.

    Requires the eigenvalue and its folding to be simple, so that the
    deficiency is computable from a single eigenfunction's closed-form count.
    """
    if si.domain.bc != DIRICHLET:
        raise DomainError("this identity concerns the Dirichlet problem")
    if algebra.parity(value) != "even":
        raise DomainError(f"{value.text()} is odd; the identity needs an even value")
    folded = algebra.scale_gamma2(value, -1)
    lhs = _simple_deficiency(si, value)
    folded_def = _simple_deficiency(si, folded)
    _, boundary_odd = si.right_boundary_parity(value)
    rhs = 2 * folded_def + boundary_odd - 1
    return DirichletDeficiencyCheck(value, folded, lhs, folded_def, boundary_odd, rhs)
