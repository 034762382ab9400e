"""Nodal-domain counting and nodal-deficiency bounds.

The closed-form counts cover box basis functions and the two triangle shapes
with straight nodal lines, (a, a) and every (a, 0); the grid oracle counts
everything from samples on an irrationally offset grid and certifies the
count by agreement under one resolution doubling.  A box basis function is
a product of one factor per axis, so the oracle counts the runs of one
strict sign on each sampled axis and multiplies them; it never reads the
quantum number.  Box combos of several terms are refused.  A triangle combo
is sampled on the full grid, and two same-sign orthogonal neighbors are
joined only where f is proven to keep that sign on the segment between them:
by a bound on its second derivative along the segment, bisecting where that
bound does not suffice.  So no join bridges two nodal domains; what the grid
can still miss is a neck of one domain narrower than a cell, which splits it
and over-counts, and the doubling check guards against that.  Each triangle
grid is labelled once, as a doubled image whose even pixels are the cells
and whose odd pixels are the proven joins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import algebra, folding
from .algebra import AlgebraicValue
from .domains import DIRICHLET, NEUMANN, TRIANGLE, Domain, check_qn
from .eigenfn import Combo, basis_fn, eval_on_axes, eval_points, product_terms
from .errors import DomainError, GridInstabilityError
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

# Largest sampling grid, in points, that count_grid evaluates; each grid is
# checked just before it is evaluated, so a count fails only when a grid it
# needs is too large, and ends in DomainError instead of a numpy allocation
# error.  A box basis function is counted on its axes alone, so for it the
# budget bounds the total of the axis sample counts; only triangle combos are
# sampled on the full grid; the budget counts the full n x n grid even for a
# halved count, which samples half its columns.  The edge bisection of a
# triangle grid holds the live intervals of both axes together to the budget
# too, counting _INTERVAL_POINTS points for each.  Peak memory, measured with
# tracemalloc over the simple triangle levels below 403 at 1024 and 2048
# cells: a triangle grid at most about 22.1 bytes per point of the n x n grid
# with or without a cut edge (11.1 when halved), first in the float samples
# and then in the int32 labels of the doubled image (16 of the 20 bytes
# live while it is labelled), a live interval about 283 bytes and the axes
# of a box basis function at most about 19 per sample, so the budget holds
# peak memory near 0.7, 1.1 and 0.6 GiB.  In the test suite, the
# largest grid count_grid samples has 4.2e6 points (a triangle at 2048 cells)
# and its largest set of axes 589 samples.
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

    A box basis function is a product of one cosine per axis, so its nodal
    domains are the prod(m_j + 1) cells of a grid of planes.  On the triangle
    two shapes have straight nodal lines:

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
    if domain.bc != NEUMANN:
        raise DomainError("closed-form nodal counts cover the Neumann basis only")
    triangle = domain.kind == TRIANGLE
    valid = (m >= 0).all(axis=1) & (m[:, 0] >= m[:, 1] if triangle else True)
    for row in m[~valid][:1].tolist():
        check_qn(domain, tuple(row))  # refuses the first invalid row with its message
    if not triangle:
        return np.prod(m + 1, axis=1)
    a, b = m.T
    for row in m[(a != b) & (b != 0)][:1].tolist():
        raise DomainError(f"no closed-form nodal count for triangle {tuple(row)}; use count_grid")
    return np.where(a == b, (a + 1) * (a + 2) // 2, (a + 2) ** 2 // 4)


def count_formula(domain: Domain, m: QN) -> NodalCount:
    """formula_counts of one checked quantum number, exact at any size."""
    row = np.array([check_qn(domain, m)], dtype=object)
    return NodalCount(int(formula_counts(domain, row)[0]), "formula")


def _max_halfperiods(f: Combo) -> int:
    """Max number of sign half-periods along any axis, rescaled to axis 0."""
    worst = 1.0
    lengths = f.domain.edge_lengths()
    for _, freqs in product_terms(f):
        for w, lj in zip(freqs, lengths):
            # half-period count along the axis is w * l_j / pi; requiring the
            # same physical cell size everywhere rescales by l_0 / l_j
            worst = max(worst, w * lengths[0] / math.pi)
    return int(math.ceil(worst))


def _antisymmetric_wrt_cut(f: Combo) -> bool:
    """True when every eigenfunction of f's eigenvalue is odd across the cut L.

    Neumann functions are odd exactly for odd eigenvalues, Dirichlet functions
    exactly for even ones (the parity correspondence flips).
    """
    p = algebra.parity(f.value)
    return p == ("odd" if f.domain.bc == NEUMANN else "even")


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


def _cut_edges(
    f: Combo, lo, hi, f_lo, f_hi, curv: np.ndarray, eps: float, cells0: int
) -> np.ndarray:
    """Bisect grid edges whose join is not yet proven; True where an edge is cut.

    Edge e runs from the point lo[e] to hi[e] along one axis, and f takes the
    values f_lo[e] and f_hi[e] of one strict sign at its ends.  On an interval
    of length l, f stays at least min(f_lo, f_hi) - curv[e] * l^2 (curv[e] is
    an eighth of a bound on |f''| along the edge's axis, so edges of both axes
    go in one call), and an interval whose end values clear curv[e] * l^2 +
    eps in their sign is proven.  Every live interval is halved through
    eval_points, all edges at once; a midpoint of the other sign, or zero,
    cuts its edge.  The live intervals of both axes together are held to the
    budget.  An edge still undecided after _BISECT_DEPTH halvings raises
    GridInstabilityError.
    """
    sign = np.sign(f_lo)
    cut = np.zeros(len(sign), dtype=bool)
    edge = np.arange(len(sign))
    for _ in range(_BISECT_DEPTH):
        if not edge.size:
            return cut
        _check_budget(_INTERVAL_POINTS * edge.size, cells0, "edge bisection")
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
        # an edge moves along one axis only, so its length is the sum of its
        # coordinate differences
        length = (hi - lo).sum(axis=1)
        s = sign[edge]
        live = np.minimum(s * f_lo, s * f_hi) <= curv[edge] * length**2 + eps
        edge, lo, hi, f_lo, f_hi = (a[live] for a in (edge, lo, hi, f_lo, f_hi))
    if edge.size:
        raise GridInstabilityError(
            f"nodal count undecided at {cells0} cells: {np.unique(edge).size} grid "
            f"edges keep their sign at every sample but are not proven after "
            f"{_BISECT_DEPTH} bisections"
        )
    return cut


def _grid_shape(domain: Domain, cells: int) -> tuple[int, ...]:
    """Sample counts per axis of the grid with `cells` cells along axis 0."""
    if domain.kind == TRIANGLE:
        n = max(8, cells)
        return (n, n)
    lengths = domain.edge_lengths()
    return tuple(max(8, int(math.ceil(cells * lj / lengths[0]))) for lj in lengths)


# grid edges along axis 0 join cells (i, j) and (i + 1, j), along axis 1
# cells (i, j) and (i, j + 1): the lower and upper ends of each as slices
_EDGE_ENDS = ((np.s_[:-1], np.s_[1:]), (np.s_[:, :-1], np.s_[:, 1:]))


def _triangle_grid_count(f: Combo, cells0: int, halve: bool) -> int:
    """Triangle count with proven joins, in one labelling.

    Two orthogonal same-sign neighbors are joined only when f is proven to
    keep that strict sign on the segment between their centers: at once when
    min(|f0|, |f1|) > M2 h^2 / 8 + eps, with M2 = sum |c| w^2 over the terms
    and w their frequency along the segment, and otherwise by bisection
    (_cut_edges).  A nodal line between the centers always leaves a sample
    of the other sign or an unproven interval, so diagonal nodal lines and
    their crossings cannot silently bridge distinct domains.  The count is
    the number of components of the doubled image whose even pixels are the
    cells and whose odd pixels are the joins between them.
    """
    cells, joins = _cells_and_joins(f, cells0, halve)
    n0, n1 = cells.shape
    img = np.zeros((2 * n0 - 1, 2 * n1 - 1), dtype=bool)
    img[::2, ::2] = cells
    img[1::2, ::2], img[::2, 1::2] = joins
    del cells, joins  # the image alone is live while it is labelled
    count = _module.ndimage.label(img)[1]
    return 2 * count if halve else count


def _cells_and_joins(f: Combo, cells0: int, halve: bool):
    """The cells inside the (half) triangle where f is nonzero and, per axis,
    the joins: the same-sign edges between them that are not cut.  The float
    samples live here alone, so they are freed before the labelling."""
    n, _ = _grid_shape(f.domain, cells0)
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
    mag = np.abs(vals)

    terms = product_terms(f)
    eps = _rounding_margin(terms)
    joins, unsure, curvs = [], [], []
    for k, (a, b) in enumerate(_EDGE_ENDS):
        curv = sum(abs(c) * freqs[k] ** 2 for c, freqs in terms) / 8.0
        join = (sign[a] == sign[b]) & (sign[a] != 0)
        # min(|f0|, |f1|) <= bound, an end at a time
        low = mag <= curv * step**2 + eps
        unsure.append(np.nonzero(join & (low[a] | low[b])))
        joins.append(join)
        curvs.append(curv)
    # both axes' edges in one bisection; edge e ends at (i1, j1)
    i, j = (np.concatenate(e) for e in zip(*unsure))
    axis = np.repeat((0, 1), [e.size for e, _ in unsure])
    i1, j1 = i + (axis == 0), j + (axis == 1)
    cut = _cut_edges(
        f, np.stack((ax[i], ay[j]), axis=1), np.stack((ax[i1], ay[j1]), axis=1),
        vals[i, j], vals[i1, j1], np.array(curvs)[axis], eps, cells0,
    )
    for k, join in enumerate(joins):
        on = cut & (axis == k)
        join[i[on], j[on]] = False
    return sign != 0, joins


def _box_axes(domain: Domain, cells: int) -> list[np.ndarray]:
    """Sample coordinates per axis of the box grid with `cells` cells along axis 0."""
    return [
        (np.arange(nj) + _GRID_OFFS[j % 3]) * (lj / nj)
        for j, (nj, lj) in enumerate(zip(_grid_shape(domain, cells), domain.edge_lengths()))
    ]


def _sign_runs(vals: np.ndarray) -> int:
    """Maximal runs of one nonzero sign along a sampled axis; a zero splits a run."""
    s = np.sign(vals)
    starts = np.concatenate(([True], s[1:] != s[:-1])) & (s != 0)
    return int(np.count_nonzero(starts))


def _check_budget(points: int, cells0: int, what: str) -> None:
    if points > GRID_BUDGET:
        raise DomainError(
            f"the nodal {what} at {cells0} cells: {points:.3g} points, "
            f"over the budget of {GRID_BUDGET}"
        )


def _grid_count_once(f: Combo, cells0: int, halve: bool) -> int:
    dom = f.domain
    shape = _grid_shape(dom, cells0)
    if dom.kind == TRIANGLE:
        _check_budget(math.prod(shape), cells0, "grid")
        return _triangle_grid_count(f, cells0, halve)
    terms = product_terms(f)
    if len(terms) != 1:
        raise DomainError(
            f"no grid nodal count for box combos of several terms ({len(terms)} given)"
        )
    # one product of a factor per axis: two same-sign neighbours of the grid
    # differ in one factor only, so the components of {f > 0} and {f < 0} are
    # the products of the sign runs on each axis
    _check_budget(sum(shape), cells0, "axes")
    trig = np.cos if dom.bc == NEUMANN else np.sin
    [(_, freqs)] = terms
    count = 1
    for w, ax in zip(freqs, _box_axes(dom, cells0)):
        count *= _sign_runs(trig(w * ax))
    return count


def count_grid(f: Combo, resolution: int | None = None) -> NodalCount:
    """Grid nodal count with a stability certificate.

    resolution is the cell count along the first axis; the default gives at
    least 8 cells per sign half-period of the fastest term.  A box basis
    function is counted as the product of its sign runs along each sampled
    axis, which equals the labelled count of the same samples on the full
    grid; box combos of several terms raise DomainError.  A triangle combo
    is counted in one labelling of its cells and proven joins
    (_triangle_grid_count): a join never crosses a nodal line, and the
    doubling check guards against a domain pinched narrower than a cell,
    which the grid would split.  An edge that neither a proof nor a sample
    of the other sign decides raises GridInstabilityError.  A triangle combo
    that is antisymmetric across the cut L is always counted on the open
    half domain and doubled (it vanishes on L, so its nodal domains come in
    mirror pairs); this keeps the diagonal cut off the sampling grid.
    """
    if resolution is None:
        resolution = max(16, 8 * _max_halfperiods(f))
    if resolution < 16:
        raise DomainError("resolution must be >= 16 cells along the first axis")
    halve = f.domain.kind == TRIANGLE and _antisymmetric_wrt_cut(f)
    cells = resolution
    c2 = _grid_count_once(f, cells, halve)
    for _ in range(3):
        # each round doubles the grid the round before counted last
        c1, c2 = c2, _grid_count_once(f, cells * 2, halve)
        if c1 == c2:
            return NodalCount(c1, "grid", resolution=cells, stable=True)
        cells *= 2
    raise GridInstabilityError(
        f"nodal count unstable after 3 doublings (last {c1} vs {c2})"
    )


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
    """Lower bounds for the nodal deficiency of a Neumann eigenvalue."""
    dom = si.domain
    if dom.bc != NEUMANN:
        raise DomainError("deficiency bounds are for the Neumann problem")
    if value.is_zero():
        raise DomainError("the ground state has no deficiency bound")
    if not si.multiplicity_of(value):
        raise DomainError(f"{value.text()} is not in the spectrum below the cutoff")
    oc = odd_core(value)
    d = si.multiplicity_of(oc.core)
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
        raise DomainError(
            f"{value.text()} must be a simple eigenvalue below the cutoff"
        )
    nu = count_grid(basis_fn(si.domain, level.members[0])).count
    return si.position_of(value) - nu


def dirichlet_deficiency_check(
    si: SpectrumIndex, value: AlgebraicValue
) -> DirichletDeficiencyCheck:
    """Both sides of the deficiency identity for an even Dirichlet eigenvalue.

    Requires the eigenvalue and its folding to be simple, so that the
    deficiency is computable from a single eigenfunction's grid count.
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
