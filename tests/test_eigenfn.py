from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sampled_oracle import (
    frame_points,
    sample_interior,
    sampled_symmetry,
    sampled_vanishing,
)

from foldspec import algebra, eigenfn, folding, nodal, spectrum
from foldspec.domains import DIRICHLET, NEUMANN, box, eigenvalue, is_valid_qn, triangle
from foldspec.errors import DomainError, FoldParityError
from foldspec.folding import KFrame

PI = math.pi


def test_eval_examples():
    f = eigenfn.basis_fn(triangle(), (1, 0))
    assert eigenfn.eval_at(f, (PI / 2, PI / 2)) == pytest.approx(0.0, abs=1e-12)
    assert eigenfn.eval_at(f, (0.0, 0.0)) == pytest.approx(2.0)
    g = eigenfn.basis_fn(box(2), (2, 1))
    assert eigenfn.eval_at(g, (0.0, 0.0)) == pytest.approx(1.0)


def test_eval_outside_domain():
    f = eigenfn.basis_fn(triangle(), (1, 0))
    with pytest.raises(DomainError):
        eigenfn.eval_at(f, (0.2, 0.9))


def _eval_at_by_math(f: eigenfn.Combo, p: tuple[float, ...]) -> float:
    """Oracle: the value at p, each product term summed with the math module."""
    trig = math.cos if f.domain.bc == NEUMANN else math.sin
    total = 0.0
    for c, freqs in eigenfn.product_terms(f):
        prod = c
        for w, x in zip(freqs, p):
            prod *= trig(w * x)
        total += prod
    return total


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("kind,cutoff", [("triangle", 2000), (2, 400), (3, 100)])
def test_eval_at_matches_the_math_module(kind, cutoff, bc):
    # 1,000 interior points, each with a basis function drawn from the levels
    # below cutoff; within 2 ulps of the sup bound sum |c| of the terms
    dom = triangle(bc) if kind == "triangle" else box(kind, bc)
    members = spectrum.build_index(dom, cutoff).region.members
    rng = np.random.default_rng(7)
    pts = sample_interior(dom, 1000, seed=3)
    for p, m in zip(pts.tolist(), members[rng.integers(len(members), size=len(pts))].tolist()):
        f = eigenfn.basis_fn(dom, tuple(m))
        scale = sum(abs(c) for c, _ in eigenfn.product_terms(f))
        got = eigenfn.eval_at(f, tuple(p))
        assert abs(got - _eval_at_by_math(f, p)) <= 2 * math.ulp(scale), (m, p)


def test_combo_requires_shared_eigenvalue():
    with pytest.raises(
        DomainError,
        match=r"^terms do not share one eigenvalue: \(\(1\.0, \(1, 0\)\), \(1\.0, \(1, 1\)\)\)$",
    ):
        eigenfn.combo(triangle(), [(1.0, (1, 0)), (1.0, (1, 1))])
    with pytest.raises(DomainError, match=r"^terms do not share one eigenvalue: "):
        eigenfn.combo(box(3), [(1.0, (2, 0, 0)), (-2.0, (0, 2, 0)), (1.0, (2, 0, 0))])
    with pytest.raises(DomainError):
        eigenfn.combo(triangle(), [(0.0, (1, 0))])
    # (5, 0) and (4, 3) share the eigenvalue 25
    f = eigenfn.combo(triangle(), [(0.5, (5, 0)), (-1.0, (4, 3))])
    assert f.value.coeffs == (25,)


def test_symmetry_matches_parity_neumann():
    for dom in (triangle(), box(2)):
        si = spectrum.build_index(dom, 200)
        for lv in si.levels:
            want = algebra.parity(lv.value)
            for m in lv.members:
                assert eigenfn.symmetry_check(eigenfn.basis_fn(dom, m)) == want


def test_symmetry_flips_for_dirichlet():
    dom = triangle("dirichlet")
    si = spectrum.build_index(dom, 120)
    for lv in si.levels:
        want = "even" if algebra.parity(lv.value) == "odd" else "odd"
        for m in lv.members:
            assert eigenfn.symmetry_check(eigenfn.basis_fn(dom, m)) == want


def test_unfold_examples():
    f = eigenfn.unfold_fn(eigenfn.basis_fn(triangle(), (1, 1)))
    assert f.terms == ((1.0, (2, 0)),)
    assert f.value.coeffs == (4,)
    g = eigenfn.fold_fn(eigenfn.basis_fn(triangle(), (2, 0)))
    assert g.terms == ((1.0, (1, 1)),)
    combo = eigenfn.combo(triangle(), [(0.3, (5, 0)), (0.7, (4, 3))])
    up = eigenfn.unfold_fn(combo)
    assert up.terms == ((0.3, (5, 5)), (0.7, (7, 1)))


def test_fold_odd_eigenvalue_rejected():
    # the odd eigenvalue is refused by the lattice parity of its member
    with pytest.raises(FoldParityError, match=r"^\(2, 1\) has odd parity and cannot be folded$"):
        eigenfn.fold_fn(eigenfn.basis_fn(triangle(), (2, 1)))
    with pytest.raises(FoldParityError, match=r"^\(1, 0\) has odd first entry and cannot be folded$"):
        eigenfn.fold_fn(eigenfn.basis_fn(box(2), (1, 0)))


def test_basis_functions_and_their_grid_counts_build_no_eigenvalue(monkeypatch):
    calls = []
    real = algebra.from_quantum_number
    monkeypatch.setattr(algebra, "from_quantum_number", lambda n, m: calls.append(m) or real(n, m))
    for dom, m in ((triangle(), (3, 1)), (triangle(), (2, 1)), (box(2), (6, 8)), (box(3), (1, 2, 0))):
        nodal.count_grid(eigenfn.basis_fn(dom, m))
    assert calls == []


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("n,cutoff", [(2, 200), (3, 60), (0, 400)], ids=["box2", "box3", "triangle"])
def test_combo_value_is_the_eigenvalue_of_every_member(n, cutoff, bc):
    # n = 0 stands for the triangle
    dom = triangle(bc) if n == 0 else box(n, bc)
    for lv in spectrum.build_index(dom, cutoff).levels:
        for m in lv.members:
            assert eigenfn.basis_fn(dom, m).value == eigenvalue(dom, m) == lv.value, m
        terms = [(1.0 + i, m) for i, m in enumerate(lv.members)]
        assert eigenfn.combo(dom, terms).value == lv.value


def test_unfolded_functions_are_even():
    rng = np.random.default_rng(4)
    for dom in (triangle(), box(2)):
        si = spectrum.build_index(dom, 80)
        for lv in si.levels:
            if lv.value.is_zero():
                continue
            coeffs = rng.uniform(-1, 1, size=len(lv.members))
            coeffs[0] = coeffs[0] or 1.0
            f = eigenfn.combo(dom, list(zip(coeffs, lv.members)))
            assert eigenfn.symmetry_check(eigenfn.unfold_fn(f)) == "even"


def test_frame_vanishing_examples():
    dom = triangle()
    cases = [((2, 2), 3), ((2, 0), 2), ((2, 1), 0)]
    for qn, k in cases:
        f = eigenfn.basis_fn(dom, qn)
        frame = folding.build_frame(dom, k)
        assert eigenfn.frame_vanishing(f, frame) is None
        assert sampled_vanishing(f, frame, samples=2000)


def test_frame_vanishing_depth_mismatch():
    f = eigenfn.basis_fn(triangle(), (2, 2))
    with pytest.raises(DomainError):
        eigenfn.frame_vanishing(f, folding.build_frame(triangle(), 1))
    with pytest.raises(DomainError, match="Neumann"):
        eigenfn.frame_vanishing(
            eigenfn.basis_fn(triangle(DIRICHLET), (2, 1)), folding.build_frame(triangle(), 0)
        )


def test_vanishing_rule_names_each_facet():
    # (1, 0) is odd: it vanishes on the cut x + y = pi, but not on the
    # 1-frame's facets x = 1/2 and y = 1/2 (units of pi), where it is
    # cos(y) and cos(x)
    frame0, frame1 = folding.build_frame(triangle(), 0), folding.build_frame(triangle(), 1)
    assert eigenfn.vanishes_on(triangle(), (1, 0), frame0.facets[0])
    assert not any(eigenfn.vanishes_on(triangle(), (1, 0), s) for s in frame1.facets)
    # (3, 1) = unfold((2, 1)) vanishes on both
    assert all(eigenfn.vanishes_on(triangle(), (3, 1), s) for s in frame1.facets)
    # a box slab t_j = q kills cos(pi m_j t_j) iff 2 m_j q is odd
    slab = folding.Slab(1, Fraction(3, 4))
    assert [eigenfn.vanishes_on(box(3), (0, m, 0), slab) for m in range(5)] == [
        False, False, True, False, False,
    ]


def test_frame_points_spread_over_facets():
    frame = folding.build_frame(triangle(), 2)
    pts = frame_points(frame, 400)
    assert len(pts) >= 400
    # all sampled points satisfy one of the frame line equations
    for x, y in pts[::37]:
        residues = [
            abs(x + y - PI / 2),
            abs(x - y - PI / 2),
            abs(x + y - 3 * PI / 2),
        ]
        assert min(residues) < 1e-9


def test_sample_interior_stays_inside():
    for dom in (triangle(), box(3)):
        pts = sample_interior(dom, 500, seed=1)
        if dom.kind == "triangle":
            assert np.all(pts[:, 1] <= pts[:, 0])
            assert np.all((pts >= 0) & (pts <= PI))
        else:
            lengths = np.array(dom.edge_lengths())
            assert np.all((pts >= 0) & (pts <= lengths))


# -- the exact rules against the sampled oracle --------------------------------


def test_symmetry_rule_matches_the_oracle_on_every_criterion_8_member():
    # criterion 8 checks the Dirichlet members below 200; the Neumann ones
    # are checked here too
    checked = 0
    for bc in (NEUMANN, DIRICHLET):
        for dom in (triangle(bc), box(2, bc), box(3, bc)):
            for lv in spectrum.build_index(dom, 200).levels:
                for m in lv.members:
                    f = eigenfn.basis_fn(dom, m)
                    assert eigenfn.symmetry_check(f) == sampled_symmetry(f), (dom, m)
                    checked += 1
    assert checked > 1800


def test_frame_rule_matches_the_oracle_on_every_criterion_6_member():
    # every member of the odd levels below 120, unfolded j times, against
    # every k-frame, k, j = 0..4: the rule must say "vanishes" exactly when
    # the samples do, and the pairs j = k are criterion 6's cases
    pairs = vanishing = 0
    for dom in (triangle(), box(2), box(3)):
        frames = [folding.build_frame(dom, k) for k in range(5)]
        for lv in spectrum.build_index(dom, 120).levels:
            if algebra.parity(lv.value) != "odd":
                continue
            for m in lv.members:
                for j in range(5):
                    f = eigenfn.basis_fn(dom, m)
                    for frame in frames:
                        exact = all(eigenfn.vanishes_on(dom, m, s) for s in frame.facets)
                        assert exact == sampled_vanishing(f, frame, samples=2000), (dom, m, frame.k)
                        if frame.k == j:
                            assert exact and eigenfn.frame_vanishing(f, frame) is None
                        pairs += 1
                        vanishing += exact
                    m = folding.unfold_qn(dom, m)
    assert pairs == 5 * 1315 and 0 < vanishing < pairs


def _domains(bcs):
    kind = st.sampled_from(["triangle"] + [f"box{n}" for n in range(2, 7)])
    return st.tuples(kind, st.sampled_from(bcs)).map(
        lambda t: triangle(t[1]) if t[0] == "triangle" else box(int(t[0][3:]), t[1])
    )


def _basis(draw, dom):
    m = tuple(draw(st.lists(st.integers(0, 12), min_size=dom.n, max_size=dom.n)))
    if dom.kind == "triangle":
        m = tuple(sorted(m, reverse=True))
    if not is_valid_qn(dom, m):
        m = tuple(e + 1 for e in m) if dom.kind == "box" else (m[0] + 2, m[1] + 1)
    return eigenfn.basis_fn(dom, m)


@settings(max_examples=200, deadline=None)
@given(dom=_domains([NEUMANN, DIRICHLET]), data=st.data())
def test_symmetry_rule_matches_the_oracle_at_random(dom, data):
    f = _basis(data.draw, dom)
    assert eigenfn.symmetry_check(f) == sampled_symmetry(f)
    if dom.bc == NEUMANN:
        up = eigenfn.unfold_fn(f)
        assert eigenfn.symmetry_check(up) == sampled_symmetry(up) == "even"


@settings(max_examples=200, deadline=None)
@given(dom=_domains([NEUMANN]), k=st.integers(0, 4), data=st.data())
def test_frame_rule_matches_the_oracle_at_random(dom, k, data):
    f = _basis(data.draw, dom)
    (_, m), = f.terms
    frame = folding.build_frame(dom, k)
    for facet in frame.facets:
        one = KFrame(dom, k, (facet,))
        assert eigenfn.vanishes_on(dom, m, facet) == sampled_vanishing(f, one, samples=200)


@pytest.mark.parametrize("n", range(7, 13))
def test_exact_rules_beyond_the_sampled_dimensions(n):
    # no sampler reaches these dimensions: parity flips under Dirichlet, and
    # every unfolding of an odd member vanishes on the frame of its depth
    for m in [(1,) + (0,) * (n - 1), (3, 2) + (1,) * (n - 2), (1,) * n]:
        f = eigenfn.basis_fn(box(n), m)
        parity = algebra.parity(f.value)
        assert eigenfn.symmetry_check(f) == parity == "odd"
        g = eigenfn.basis_fn(box(n, DIRICHLET), tuple(e + 1 for e in m))
        flipped = "odd" if algebra.parity(g.value) == "even" else "even"
        assert eigenfn.symmetry_check(g) == flipped
        for k in range(n + 2):
            frame = folding.build_frame(box(n), spectrum.odd_core(f.value).k)
            assert frame.k == k and eigenfn.frame_vanishing(f, frame) is None
            f = eigenfn.unfold_fn(f)
            assert eigenfn.symmetry_check(f) == "even"


def _broadcast_eval(f, axes):
    """Oracle: each term as a full array of its coefficient times one
    broadcast axis factor after another."""
    trig = np.cos if f.domain.bc == NEUMANN else np.sin
    shape = tuple(len(a) for a in axes)
    total = np.zeros(shape)
    for c, freqs in eigenfn.product_terms(f):
        term = np.full(shape, c)
        for j, (w, ax) in enumerate(zip(freqs, axes)):
            view = [1] * len(axes)
            view[j] = len(ax)
            term = term * trig(w * ax).reshape(view)
        total += term
    return total


@pytest.mark.parametrize(
    "dom,cutoff",
    [(triangle(), 300), (triangle("dirichlet"), 300)]
    + [(box(n, bc), 40) for n in (2, 3, 4) for bc in (NEUMANN, DIRICHLET)],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_eval_on_axes_equals_the_broadcast_product(dom, cutoff):
    # every level as a combo of all its members, on uneven axes that cross
    # the domain's bounding box
    rng = np.random.default_rng(7)
    for lv in spectrum.build_index(dom, cutoff).levels:
        f = eigenfn.combo(dom, [(rng.uniform(-3.0, 3.0), m) for m in lv.members])
        axes = tuple(np.sort(rng.uniform(0.0, PI, rng.integers(1, 40))) for _ in range(dom.n))
        assert np.array_equal(eigenfn.eval_on_axes(f, axes), _broadcast_eval(f, axes)), lv
