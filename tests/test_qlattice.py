from __future__ import annotations

import functools
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldspec import algebra, nodal, qlattice, spectrum
from foldspec.algebra import GREATER, LESS, AlgebraicValue
from foldspec.domains import NEUMANN, TRIANGLE, box, eigenvalue, qn_parity, triangle
from foldspec.errors import DomainError, OutOfRangeError
from foldspec.spectrum import Level
from boundary_oracle import parity_split, right_boundary
from triangle_oracle import reference_points_axis, reference_points_diagonal, spectrum_columns

SRC = Path(__file__).resolve().parents[1] / "src"


def brute_triangle_region(cutoff: float, dirichlet: bool = False) -> set:
    """Independent enumeration oracle: scan a safely padded square."""
    bound = int(math.isqrt(int(cutoff)) + 2)
    out = set()
    for m in range(bound + 1):
        for n in range(bound + 1):
            if dirichlet and not (m > n >= 1):
                continue
            if not dirichlet and not (m >= n >= 0):
                continue
            if m * m + n * n < cutoff:
                out.add((m, n))
    return out


def brute_box2_region(cutoff: float, dirichlet: bool = False) -> set:
    lo = 1 if dirichlet else 0
    bound = int(math.isqrt(int(cutoff)) + 2)
    return {
        (a, b)
        for a in range(lo, bound + 1)
        for b in range(lo, bound + 1)
        if a * a + 2 * b * b < cutoff
    }


def test_enumerate_triangle_examples():
    r = qlattice.enumerate_below(triangle(), 9)
    assert set(r.points) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert len(r) == 6
    assert len(qlattice.enumerate_below(triangle(), 0)) == 0


def test_enumerate_box2_example():
    r = qlattice.enumerate_below(box(2), 7)
    assert set(r.points) == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)}


def test_enumerate_matches_brute_force():
    for cutoff in (1, 2, 17, 50.5, 301):
        got = set(qlattice.enumerate_below(triangle(), cutoff).points)
        assert got == brute_triangle_region(cutoff)
        got = set(qlattice.enumerate_below(box(2), cutoff).points)
        assert got == brute_box2_region(cutoff)
    got = set(qlattice.enumerate_below(triangle("dirichlet"), 100).points)
    assert got == brute_triangle_region(100, dirichlet=True)
    got = set(qlattice.enumerate_below(box(2, "dirichlet"), 100).points)
    assert got == brute_box2_region(100, dirichlet=True)


def test_enumerate_ordering_is_value_then_lex():
    r = qlattice.enumerate_below(triangle(), 60)
    keyed = [(float(eigenvalue(triangle(), m)), m) for m in r.points]
    assert keyed == sorted(keyed)


def test_enumerate_monotone_in_cutoff():
    prev: set = set()
    for cutoff in (5, 10, 20, 40, 80):
        cur = set(qlattice.enumerate_below(triangle(), cutoff).points)
        assert prev <= cur
        prev = cur


def test_parity_rules():
    assert qn_parity(triangle(), (1, 1)) == "even"
    assert qn_parity(box(3), (1, 0, 2)) == "odd"
    assert qn_parity(box(3), (2, 7, 5)) == "even"


def test_right_boundary_examples():
    # the point-set oracle, and the index's parity split of the same sets
    assert right_boundary(qlattice.enumerate_below(triangle(), 5).points) == [
        (1, 1),
        (2, 0),
    ]
    assert right_boundary(qlattice.enumerate_below(triangle(), 2).points) == [(1, 0)]
    r9 = qlattice.enumerate_below(triangle(), 9)
    boundary_even = [m for m in right_boundary(r9.points) if qn_parity(triangle(), m) == "even"]
    assert boundary_even == [(2, 0), (2, 2)]
    si = spectrum.build_index(triangle(), 10)
    for value, split in ((2, (0, 1)), (5, (2, 0)), (9, (2, 1))):
        assert si.right_boundary_parity(algebra.integer_value(1, value)) == split


def _bijection_histograms(dom, top: int, boundary_parity: str):
    """Per-cutoff counts |O|, |E| and |right-boundary ∩ parity| for every
    integer cutoff up to top, via interval histograms (a point sits on the
    boundary of Q(lam) exactly for lam in (value, right-neighbor value])."""
    region = qlattice.enumerate_below(dom, top + 1)
    odd = [0] * (top + 2)
    even = [0] * (top + 2)
    boundary = [0] * (top + 2)
    for m in region.points:
        v = m[0] ** 2 + m[1] ** 2
        p = qn_parity(dom, m)
        if v + 1 <= top:
            (odd if p == "odd" else even)[v + 1] += 1
            if p == boundary_parity:
                boundary[v + 1] += 1
                v_right = (m[0] + 1) ** 2 + m[1] ** 2
                if v_right + 1 <= top:
                    boundary[v_right + 1] -= 1
    for arr in (odd, even, boundary):
        for i in range(1, top + 1):
            arr[i] += arr[i - 1]
    return odd, even, boundary


def test_neumann_boundary_bijection():
    # |O(lam)| = |E(lam)| - |boundary(lam) ∩ E| for every lam <= 2000
    odd, even, boundary_even = _bijection_histograms(triangle(), 2000, "even")
    for lam in range(2001):
        assert odd[lam] == even[lam] - boundary_even[lam], lam


def test_dirichlet_boundary_bijection():
    # |O(lam)| = |E(lam)| + |boundary(lam) ∩ O| for every lam <= 2000
    odd, even, boundary_odd = _bijection_histograms(
        triangle("dirichlet"), 2000, "odd"
    )
    for lam in range(2001):
        assert odd[lam] == even[lam] + boundary_odd[lam], lam


@pytest.mark.parametrize("bc,parity", [("neumann", "even"), ("dirichlet", "odd")])
def test_index_boundary_split_matches_the_histograms(bc, parity):
    # the index's right-boundary column at every integer lam <= 2000, levels
    # and the values between them, against the interval histograms
    _, _, boundary = _bijection_histograms(triangle(bc), 2000, parity)
    si = spectrum.build_index(triangle(bc), 2001)
    slot = 0 if parity == "even" else 1
    for lam in range(2001):
        split = si.right_boundary_parity(algebra.integer_value(1, lam))
        assert split[slot] == boundary[lam], lam


def _rows(points) -> set:
    return set(map(tuple, points.tolist()))


def test_reference_set_diagonal():
    assert _rows(reference_points_diagonal(1)) == {(0, 0), (1, 0), (1, 1)}
    assert len(_rows(reference_points_diagonal(3))) == 10
    assert len(_rows(reference_points_diagonal(5))) == 21


def test_reference_set_axis():
    assert len(_rows(reference_points_axis(3))) == 16
    assert _rows(reference_points_axis(1)) == {(1, 1), (0, 0), (1, 0), (2, 0)}
    # sizes are sums of odd numbers
    for m in range(7):
        assert len(_rows(reference_points_axis(m))) == (m + 1) ** 2


def _check_reference_lemmas(ref: np.ndarray, member: tuple, extra: tuple, extra_below: bool):
    """The lemmas courant._reference_witnesses rests on, point by point: every
    point a quantum number below the member's value, or the member itself;
    as many distinct points as the member's closed-form nodal count; the
    extra point outside the set, and below the value exactly when stated."""
    value = member[0] ** 2 + member[1] ** 2
    p0, p1 = ref.T
    assert ((p0 >= p1) & (p1 >= 0)).all(), member
    at = (p0 == member[0]) & (p1 == member[1])
    assert at.any() and ((p0 * p0 + p1 * p1 < value) | at).all(), member
    distinct = len(np.unique(p0 * (int(ref.max()) + 1) + p1))  # one key per point
    assert distinct == nodal.count_formula(triangle(), member).count, member
    assert not (ref == extra).all(axis=1).any(), member
    ex, ey = extra
    assert (ex >= ey >= 0 and ex * ex + ey * ey < value) == extra_below, member


def test_reference_sets_sit_inside_regions():
    # the diagonal set of (a, a) for every a <= 200 and the axis set of
    # (2m, 0) for every m <= 100; the extra point lies below the value from
    # a = 3 and m = 2 on
    for a in range(201):
        _check_reference_lemmas(reference_points_diagonal(a), (a, a), (a + 1, 0), a >= 3)
    for m in range(101):
        _check_reference_lemmas(reference_points_axis(m), (2 * m, 0), (2 * m - 1, 2), m >= 2)
    # the sets and extra points inside the regions the enumeration lists
    dom = triangle()
    for m in range(3, 9):
        value = 2 * m * m
        region = set(qlattice.enumerate_below(dom, value).points)
        ref = _rows(reference_points_diagonal(m))
        assert ref <= region | {(m, m)}
        assert (m + 1, 0) in region - ref
        axis_val = 4 * m * m
        axis_region = set(qlattice.enumerate_below(dom, axis_val).points)
        axis_ref = _rows(reference_points_axis(m))
        assert axis_ref <= axis_region | {(2 * m, 0)}
        assert (2 * m - 1, 2) in axis_region - axis_ref


def test_reference_set_box_inside_region():
    dom = box(2)
    for m in itertools.product(range(1, 5), repeat=2):
        value = eigenvalue(dom, m)
        region = set(qlattice.enumerate_below(dom, value).points) | {m}
        assert set(itertools.product(*(range(e + 1) for e in m))) <= region


# ---------------------------------------------------------------------------
# oracle: the former enumeration, which scanned the whole bounding box and
# decided every candidate exactly, and the former per-point level grouping


def oracle_enumerate(domain, cutoff) -> tuple:
    def axis_bound(axis: int) -> int:
        c = float(cutoff)
        if c <= 0:
            return -1
        w = 1.0 if domain.kind == TRIANGLE else 2.0 ** (2.0 * axis / domain.n)
        return int(math.floor(math.sqrt(c / w) + 1.0))

    lo = 0 if domain.bc == NEUMANN else 1
    if domain.kind == TRIANGLE:
        n_hi = (lambda m: m) if domain.bc == NEUMANN else (lambda m: m - 1)
        candidates = [
            (m, n) for m in range(lo, axis_bound(0) + 1) for n in range(lo, n_hi(m) + 1)
        ]
    else:
        candidates = itertools.product(
            *(range(lo, axis_bound(j) + 1) for j in range(domain.n))
        )
    pts = [
        (float(eigenvalue(domain, qn)), qn)
        for qn in candidates
        if algebra.is_below(eigenvalue(domain, qn), cutoff)
    ]
    pts.sort()
    return tuple(qn for _, qn in pts)


def oracle_group_levels(domain, points) -> list:
    groups: dict = {}
    values: dict = {}
    for m in points:
        v = eigenvalue(domain, m)
        groups.setdefault(v.coeffs, []).append(m)
        values.setdefault(v.coeffs, v)
    keys = sorted(values, key=lambda c: (float(values[c]), c))
    levels = [Level(values[c], tuple(sorted(groups[c]))) for c in keys]
    for a, b in zip(levels, levels[1:]):
        if algebra.compare(a.value, b.value) != LESS:
            levels.sort(
                key=functools.cmp_to_key(lambda a, b: algebra.compare(a.value, b.value))
            )
            break
    return levels


ORACLE_CASES = [
    (triangle(), (0, 1, 2, 50, 400, 50.5, Fraction(1201, 3))),
    (box(2), (1, 7, 200, 50.25, Fraction(2001, 10))),
    (box(3), (60, 17.5, Fraction(121, 2))),
    (box(4), (40, 22.75)),
    (box(5), (30, Fraction(51, 2))),
    (box(6), (20, 16.5)),
]

# lattice points whose exact eigenvalues serve as cutoffs: the points on the
# cutoff itself then fall inside the float margin and are decided exactly
VALUE_CUTOFF_QNS = {
    2: [(5, 3), (9, 1)],
    3: [(3, 2, 1), (4, 0, 2)],
    4: [(2, 2, 1, 1), (3, 1, 0, 2)],
    5: [(2, 1, 1, 1, 1), (1, 2, 0, 1, 2)],
    6: [(1, 2, 1, 1, 1, 1), (2, 1, 0, 1, 0, 1)],
}


def _with_dirichlet(cases):
    for dom, cutoffs in cases:
        yield dom, cutoffs
        if dom.kind == TRIANGLE:
            yield triangle("dirichlet"), cutoffs
        else:
            yield box(dom.n, "dirichlet"), cutoffs


@pytest.mark.parametrize(
    "dom,cutoffs",
    list(_with_dirichlet(ORACLE_CASES)),
    ids=[dom.label() for dom, _ in _with_dirichlet(ORACLE_CASES)],
)
def test_enumerate_matches_bounding_box_oracle(dom, cutoffs):
    cutoffs = list(cutoffs)
    if dom.kind == TRIANGLE:
        values = [algebra.integer_value(1, 325)]  # (18, 1), (17, 6), (15, 10)
    else:
        values = [algebra.from_quantum_number(dom.n, qn) for qn in VALUE_CUTOFF_QNS[dom.n]]
    for v in values:
        # the value itself, and rationals within 1e-14 of it on either side
        near = Fraction(float(v))
        cutoffs += [v, near, near - Fraction(1, 10**14), near + Fraction(1, 10**14)]
    for cutoff in cutoffs:
        got = qlattice.enumerate_below(dom, cutoff)
        want = oracle_enumerate(dom, cutoff)
        assert got.points == want, (dom.label(), cutoff)
        assert spectrum.build_index(dom, cutoff).levels == tuple(
            oracle_group_levels(dom, want)
        ), (dom.label(), cutoff)


# largest random cutoff per domain, small enough for the oracle's box scan
_CUTOFF_LIMITS = {"triangle": 3000, "box2": 1500, "box3": 150, "box4": 60, "box5": 40}


@st.composite
def _domain_and_cutoff(draw):
    kind = draw(st.sampled_from(sorted(_CUTOFF_LIMITS)))
    bc = draw(st.sampled_from(["neumann", "dirichlet"]))
    dom = triangle(bc) if kind == "triangle" else box(int(kind[3:]), bc)
    cutoff = draw(
        st.fractions(min_value=-2, max_value=_CUTOFF_LIMITS[kind], max_denominator=40)
    )
    return dom, float(cutoff) if draw(st.booleans()) else cutoff


@settings(max_examples=60, deadline=None)
@given(case=_domain_and_cutoff())
def test_enumerate_matches_oracle_at_random_cutoffs(case):
    dom, cutoff = case
    assert qlattice.enumerate_below(dom, cutoff).points == oracle_enumerate(dom, cutoff)


def test_region_below_is_the_enumerated_region():
    # Q(value) of level i is the index's prefix members[:offsets[i]]
    assert Level is qlattice.Level
    for dom, cutoff in ((triangle(), 300), (box(2), 200), (box(3), 60), (box(5), 30)):
        si = spectrum.build_index(dom, cutoff)
        assert qlattice.enumerate_below(dom, cutoff).levels == si.levels
        step = max(1, len(si.levels) // 25)
        for i in range(0, len(si.levels), step):
            lv = si.levels[i]
            below = si.counting(lv.value).below
            assert below == si.region.offsets[i]
            points = qlattice.tuples(si.region.members[:below])
            sub = qlattice.enumerate_below(dom, lv.value)
            assert set(points) == set(sub.points)
            assert len(sub) == len(set(points)) == below
            assert sub.levels == si.levels[:i]


@pytest.mark.parametrize(
    "dom,cutoff",
    [(triangle(), 300), (box(2), 200), (box(3), 60), (box(4), 40), (box(5), 30)],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_levels_keep_the_exact_order_without_the_double_key(dom, cutoff, monkeypatch):
    # with every double equal, the levels come out in coefficient order,
    # which is not the value order in rings with more than one basis element;
    # only the exact comparison can put them back
    want = qlattice.enumerate_below(dom, cutoff)
    calls = []
    compare = algebra.compare
    monkeypatch.setattr(algebra, "compare", lambda a, b: calls.append(1) or compare(a, b))
    monkeypatch.setattr(algebra, "coeffs_float", lambda coeffs: 0.0)
    monkeypatch.setattr(algebra, "coeffs_floats", lambda rows: np.zeros(len(rows)))
    got = qlattice.enumerate_below(dom, cutoff)
    assert got.levels == want.levels
    assert got.points == want.points
    # checking the open pairs of n levels takes at most n - 1 calls, and the
    # exact sort at least n - 1 more: n or more calls mean the sort ran
    if want.coeffs.shape[1] > 1:
        assert len(calls) >= len(want.levels)
    else:
        assert calls == []


def scalar_order(ring: int, coeffs: np.ndarray) -> np.ndarray:
    """Oracle for qlattice._exact_order: the stable sort by double, then one
    AlgebraicValue per row and algebra.compare on every adjacent pair; if one
    is out of order, the exact sort by algebra.compare."""
    rows = qlattice.tuples(coeffs)
    rank = np.argsort(algebra.coeffs_floats(coeffs), kind="stable").tolist()
    values = [AlgebraicValue(ring, rows[i]) for i in rank]
    if any(algebra.compare(a, b) != LESS for a, b in zip(values, values[1:])):
        order = sorted(
            range(len(rank)),
            key=functools.cmp_to_key(lambda i, j: algebra.compare(values[i], values[j])),
        )
        rank = [rank[i] for i in order]
    return np.array(rank, dtype=np.intp)


@pytest.mark.parametrize(
    "n,cutoff", [(2, 2000), (3, 500), (4, 500), (6, 200), (8, 40)], ids=str
)
def test_column_order_matches_the_scalar_chain(n, cutoff):
    # the level rows in coefficient order, as enumerate_below hands them over
    coeffs = np.unique(qlattice.enumerate_below(box(n), cutoff).coeffs, axis=0)
    with mock.patch.object(algebra, "compare", wraps=algebra.compare) as compare:
        got = qlattice._exact_order(box(n).ring, coeffs)
    assert np.array_equal(got, scalar_order(box(n).ring, coeffs))
    assert compare.call_count == 0  # the int64 bracket certified every pair


@functools.lru_cache(maxsize=None)
def _tiny(r: int) -> tuple:
    """Coefficients of q*t - p for the first continued-fraction convergent
    p/q of t = 2^(1/r) with |q*t - p| < 1e-14: a nonzero ring element closer
    to 0 than doubles can tell.  Rings with r = 1 hold only integers."""
    with mpmath.workdps(80):
        t = mpmath.mpf(2) ** (mpmath.mpf(1) / r)
        x, h0, h1, k0, k1 = t, 0, 1, 1, 0
        while True:
            a = int(mpmath.floor(x))
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            if abs(k1 * t - h1) < mpmath.mpf(10) ** -14:
                return (-h1, k1) + (0,) * (r - 2)
            x = 1 / (x - a)


# box dimensions of rings with more than one basis element, at small cutoffs
_ORDER_CUTOFFS = {3: 60, 4: 40, 5: 30, 6: 20, 8: 12}


@st.composite
def _order_rows(draw):
    """A box ring's level rows with injected rows, permuted: near ties (a
    level's row plus or minus _tiny) and rows whose entries are all 2^23 or
    more in magnitude, so that their differences to a level break the int64
    guard of qlattice._open_pairs (|d| >= 2^22 / r)."""
    n = draw(st.sampled_from(sorted(_ORDER_CUTOFFS)))
    levels = qlattice.enumerate_below(box(n), _ORDER_CUTOFFS[n]).coeffs
    r = levels.shape[1]
    sign = st.sampled_from([-1, 1])
    near = [
        levels[i] + draw(sign) * np.array(_tiny(r))
        for i in draw(st.lists(st.integers(0, len(levels) - 1), max_size=5))
    ]
    entry = st.builds(lambda s, m: s * m, sign, st.integers(1 << 23, 1 << 30))
    large = draw(st.lists(st.lists(entry, min_size=r, max_size=r), max_size=3))
    assume(near or large)
    rows = np.unique(np.vstack([levels, *near, *np.array(large, dtype=np.int64)]), axis=0)
    return box(n).ring, rows[draw(st.permutations(range(len(rows))))]


@settings(max_examples=30, deadline=None)
@given(case=_order_rows())
def test_open_pairs_go_to_compare(case):
    ring, rows = case
    with mock.patch.object(algebra, "compare", wraps=algebra.compare) as compare:
        got = qlattice._exact_order(ring, rows)
    assert compare.call_count > 0  # the injected rows left a pair open
    assert np.array_equal(got, scalar_order(ring, rows))


@st.composite
def _index_case(draw):
    dom, cutoff = draw(_domain_and_cutoff())
    if draw(st.booleans()):
        # a rational within 1e-14 of a lattice value
        limit, n = _CUTOFF_LIMITS[dom.label().split("-")[0]], dom.coords
        entries = st.integers(0, math.isqrt(limit // n))
        qn = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
        v = float(algebra.from_quantum_number(dom.ring, qn))
        assume(v <= limit)
        cutoff = Fraction(v) + Fraction(draw(st.sampled_from([-1, 0, 1])), 10**14)
    return dom, cutoff


@settings(max_examples=40, deadline=None)
@given(case=_index_case(), data=st.data())
def test_counting_matches_brute_counts(case, data):
    """Index lookups against exact brute counts over the oracle's points, at
    eigenvalues, one above them, ring elements within 1e-14 of them, and
    random ring elements; values at or above the cutoff must be refused."""
    dom, cutoff = case
    si = spectrum.build_index(dom, cutoff)
    points = oracle_enumerate(dom, cutoff)
    values = [eigenvalue(dom, m) for m in points]
    ring, r = dom.ring, algebra.basis_len(dom.ring)

    def shift(v: AlgebraicValue, d: tuple) -> AlgebraicValue:
        return AlgebraicValue(ring, tuple(a + b for a, b in zip(v.coeffs, d)))

    coeffs = data.draw(st.lists(st.integers(-3, 40), min_size=r, max_size=r))
    queries = [algebra.integer_value(ring, 0), algebra.integer_value(ring, -1)]
    queries.append(AlgebraicValue(ring, tuple(coeffs)))
    if si.levels:
        picks = data.draw(
            st.lists(st.integers(0, len(si.levels) - 1), min_size=1, max_size=4),
            label="levels",
        )
        for lv in (si.levels[i] for i in picks + [0, len(si.levels) - 1]):
            queries += [lv.value, shift(lv.value, (1,) + (0,) * (r - 1))]
            if r > 1:
                tiny = _tiny(r)
                minus = tuple(-x for x in tiny)
                queries += [shift(lv.value, tiny), shift(lv.value, minus)]
    for q in queries:
        if not algebra.is_below(q, cutoff):
            with pytest.raises(OutOfRangeError):
                si.counting(q)
            continue
        below = sum(algebra.compare(v, q) == LESS for v in values)
        upto = sum(algebra.compare(v, q) != GREATER for v in values)
        c = si.counting(q)
        assert (c.below, c.upto, c.multiplicity) == (below, upto, upto - below), q
        assert c.position == (below + 1 if upto > below else below), q
        assert si.position_of(q) == c.position and si.multiplicity_of(q) == upto - below
        # Q(q) is the prefix of the first i levels, i the levels below q
        q_points = [m for m, v in zip(points, values) if v < q]
        i = int(np.searchsorted(si.region.offsets, c.below))
        assert si.region.offsets[i] == c.below
        assert set(qlattice.tuples(si.region.members[: c.below])) == set(q_points), q
        assert si.levels[:i] == tuple(lv for lv in si.levels if lv.value < q), q
        assert si.right_boundary_parity(q) == parity_split(dom, q_points), q


def _candidates_by_column_stack(domain, weights, top):
    """Oracle: qlattice._candidates as one growing matrix, a column stacked
    on per axis."""
    lo = 0 if domain.bc == NEUMANN else 1
    rest = [lo * sum(weights[j + 1:]) for j in range(len(weights))]
    qn = np.zeros((1, 0), dtype=np.int64)
    acc = np.zeros(1)
    for j, w in enumerate(weights):
        room = np.maximum(top - rest[j] - acc, 0.0)
        hi = np.floor(np.sqrt(room / w)).astype(np.int64) + 1
        if domain.kind == TRIANGLE and j == 1:
            hi = np.minimum(hi, qn[:, 0] - lo)
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(acc)), counts)
        m = lo + np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        acc = acc[parent] + w * (m * m)
        qn = np.column_stack([qn[parent], m])
        keep = acc + rest[j] <= top
        acc, qn = acc[keep], qn[keep]
    return qn, acc


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize(
    "kind,cutoffs",
    [("triangle", (0.5, 1, 2, 51, 400, 2000))]
    + [(n, (0.5, 1, 2, 9, 25, 60)) for n in range(2, 9)],
)
def test_candidates_match_the_column_stack(kind, cutoffs, bc):
    dom = triangle(bc) if kind == "triangle" else box(kind, bc)
    weights = qlattice._weights(dom)
    for cutoff in cutoffs:
        c, tol = qlattice._float_cutoff(dom, cutoff)
        qn, acc = qlattice._candidates(dom, weights, c + tol)
        want_qn, want_acc = _candidates_by_column_stack(dom, weights, c + tol)
        assert qn.dtype == want_qn.dtype and qn.shape == want_qn.shape, (cutoff, qn.shape)
        assert (qn == want_qn).all() and (acc == want_acc).all(), cutoff


def test_over_budget_cutoffs_fail_fast():
    huge = AlgebraicValue(4, (10**400, 0))
    cases = [
        (box(6), 10**6),
        (box(2, "dirichlet"), 1e30),
        (triangle(), 10**9),
        (triangle(), 10**400),
        (box(3), Fraction(10**500, 3)),
        (box(4), huge),
    ]
    for dom, cutoff in cases:
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="budget"):
            qlattice.enumerate_below(dom, cutoff)
        assert time.perf_counter() - t0 < 0.5, (dom.label(), cutoff)


def test_wide_box_columns_are_refused_before_they_are_allocated(monkeypatch):
    # box400 at 2 holds 121,804 int64 entries of kept columns on its last
    # axis, and 242,600 with the quantum numbers and coefficient rows of its
    # 201 points
    monkeypatch.setattr(qlattice, "COLUMN_BUDGET", 8 * 242_600)
    assert len(qlattice.enumerate_below(box(400), 2)) == 201
    for budget, needs in ((242_599, "242600 int64 entries for its points"),
                          (121_803, "121804 int64 entries on axis 399")):
        monkeypatch.setattr(qlattice, "COLUMN_BUDGET", 8 * budget)
        with pytest.raises(DomainError, match=f"needs {needs}, over the budget"):
            qlattice.enumerate_below(box(400), 2)
    # the smallest contribution of the later axes is a running sum, so a
    # very wide box reaches its refusal without a pass quadratic in n
    monkeypatch.setattr(qlattice, "COLUMN_BUDGET", 1 << 20)
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="int64 entries on axis"):
        qlattice.enumerate_below(box(50000), 2)
    assert time.perf_counter() - t0 < 1.0


def test_a_wide_box_with_one_level_orders_no_pair():
    # one level leaves no adjacent pair, so the 2500 scaled basis
    # powers of box5000 are never computed
    t0 = time.perf_counter()
    region = qlattice.enumerate_below(box(5000), 1)
    assert time.perf_counter() - t0 < 2.0
    assert region.points == ((0,) * 5000,)
    assert region.coeffs.tolist() == [[0] * 2500]


@pytest.mark.parametrize(
    "dom,cutoff,points",
    [(box(6), 200, 198085), (box(8), 40, 20394), (triangle(), 10**6, 393544), (box(1600), 2, 801)],
    ids=["box6-200", "box8-40", "triangle-1e6", "box1600-2"],
)
def test_the_column_budget_admits_the_largest_regions_built(monkeypatch, dom, cutoff, points):
    # the largest regions that CI builds stay inside the budget, and each
    # int64 entry it counts stands for at most 20 bytes of traced peak memory
    counted = []
    check = qlattice._check_entries
    monkeypatch.setattr(
        qlattice, "_check_entries", lambda d, e, w: (counted.append(e), check(d, e, w))
    )
    tracemalloc.start()
    try:
        assert len(qlattice.enumerate_below(dom, cutoff)) == points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * max(counted)


def test_a_wide_box_ends_in_an_error_line_under_a_memory_limit():
    # foldspec spectrum under `ulimit -v 4000000`: the column budget refuses
    # box20000 at cutoff 2 within seconds, before numpy runs out of memory
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4_000_000 * 1024,) * 2)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["spectrum", "--domain", "box", "--dim", "20000", "--cutoff", "2", "--format", "csv"]
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "foldspec", *argv], env=env, preexec_fn=limit,
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 10
    assert run.returncode == 1 and run.stdout == "", run.stderr
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr, run.stderr


def test_bad_cutoffs_raise_domain_error():
    with pytest.raises(DomainError, match="finite"):
        qlattice.enumerate_below(box(2), float("nan"))
    with pytest.raises(DomainError, match="ring"):
        qlattice.enumerate_below(box(3), algebra.integer_value(2, 5))


def test_tiny_positive_cutoff_keeps_the_ground_state():
    assert qlattice.enumerate_below(box(3), Fraction(1, 10**400)).points == ((0, 0, 0),)
    assert qlattice.enumerate_below(triangle(), 0).points == ()
    assert qlattice.enumerate_below(triangle(), -3.5).points == ()


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_triangle_columns_match_an_independent_enumeration(bc):
    # the integer ring's columns against np.unique over the half disc, at
    # 10^5: one coefficient per level, in increasing order, with its
    # multiplicity; every member on its level, members in lexicographic order
    region = qlattice.enumerate_below(triangle(bc), 10**5)
    z, counts = spectrum_columns(10**5, bc)
    assert region.coeffs.shape == (len(z), 1) and region.coeffs.dtype == np.int64
    assert np.array_equal(region.coeffs[:, 0], z)
    assert np.array_equal(np.diff(region.offsets), counts) and region.offsets[0] == 0
    a, b = region.members.T
    assert np.array_equal(a * a + b * b, np.repeat(z, counts))
    assert (a >= b).all() and (b >= (0 if bc == "neumann" else 1)).all()
    level = np.repeat(np.arange(len(z)), counts)
    assert np.array_equal(np.lexsort((b, a, level)), np.arange(len(a)))
