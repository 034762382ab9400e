from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_oracle
import triangle_oracle
from foldspec import algebra, courant, eigenfn, folding, nodal, qlattice, spectrum
from foldspec.algebra import LESS
from foldspec.domains import box, eigenvalue, qn_parity, triangle
from foldspec.errors import ConsistencyError, DomainError, FoldParityError


def verdict_for(verdicts, value: float):
    for v in verdicts:
        if float(v.value) == value:
            return v
    raise AssertionError(f"no verdict for {value}")


def test_triangle_sharp_set():
    verdicts = courant.classify(triangle(), 300)
    sharp = [(v.position, float(v.value)) for v in verdicts if v.sharp]
    assert sharp == [(1, 0.0), (2, 1.0), (3, 2.0), (4, 4.0), (6, 8.0)]


def test_box_sharp_sets():
    assert courant.sharp_positions(courant.classify(box(2), 200)) == [1, 2, 4, 6]
    assert courant.sharp_positions(courant.classify(box(3), 100)) == [1, 2]
    assert courant.sharp_positions(courant.classify(box(4), 60)) == [1, 2]


def test_lambda_nine_ruled_out_by_boundary_points():
    verdicts = courant.classify(triangle(), 20)
    v = verdict_for(verdicts, 9.0)
    assert not v.sharp and v.reason == courant.ODD_BOUNDARY
    assert v.witness["boundary_even_points"] == [(2, 0), (2, 2)]


def test_lambda_ten_ruled_out_by_square_degeneracy():
    verdicts = courant.classify(triangle(), 20)
    v = verdict_for(verdicts, 10.0)
    assert not v.sharp and v.reason == courant.SUBDOMAIN_MULTIPLICITY
    assert v.witness["subdomain"] == "square"
    assert set(v.witness["pairs"]) == {(1, 0), (0, 1)}


def test_lambda_sixteen_reference_set():
    verdicts = courant.classify(triangle(), 20)
    v = verdict_for(verdicts, 16.0)
    assert not v.sharp and v.reason == courant.REFERENCE_SET_STRICT
    assert v.nu == 9
    assert v.witness["extra_point"] == (3, 2)


def test_multiple_eigenvalues_ruled_out():
    verdicts = courant.classify(triangle(), 60)
    v = verdict_for(verdicts, 50.0)
    assert not v.sharp and v.reason == courant.MULTIPLE_EIGENVALUE
    assert v.multiplicity == 2


def test_box_seventeen_witness():
    # (3, 2) loses to (4, 0): 16 < 17
    verdicts = courant.classify(box(2), 30)
    v = verdict_for(verdicts, 17.0)
    assert v.reason == courant.BOX_CASE_ANALYSIS
    assert v.witness["smaller_point"] == (4, 0)


def test_every_level_gets_exactly_one_verdict():
    for dom, cutoff in ((triangle(), 500), (box(3), 60)):
        si = spectrum.build_index(dom, cutoff)
        verdicts = courant.classify(dom, cutoff)
        assert len(verdicts) == len(si.levels)
        assert [v.position for v in verdicts] == sorted(v.position for v in verdicts)
        assert verdicts[-1] == list(verdicts)[-1] == verdicts[len(verdicts) - 1]
        with pytest.raises(IndexError):
            verdicts[len(verdicts)]
        for v in verdicts:
            if v.sharp:
                assert v.reason in courant.SHARP_REASONS
            else:
                assert v.witness or v.reason == courant.MULTIPLE_EIGENVALUE


def test_sharp_reasons_partition():
    verdicts = courant.classify(triangle(), 100)
    reasons = {v.reason for v in verdicts if v.sharp}
    assert reasons == {
        courant.GROUND_STATE,
        courant.ORTHOGONALITY_SECOND,
        courant.EXPLICIT_COUNT,
    }


# ---------------------------------------------------------------------------
# box witness checks: each fails on a corrupted witness rule or count


def corrupt_rule(monkeypatch, smaller):
    """Replace _box_witnesses's witness w for each member m by smaller(m, w),
    both as tuples; None becomes the rule's zero row, no witness."""
    rule = courant._box_witnesses

    def corrupted(m):
        rows = [smaller(tuple(r), tuple(w)) for r, w in zip(m.tolist(), rule(m).tolist())]
        return np.array([w or (0,) * m.shape[1] for w in rows], dtype=np.int64).reshape(m.shape)

    monkeypatch.setattr(courant, "_box_witnesses", corrupted)


def box_with(monkeypatch, smaller=None, count=None):
    """classify(box(2), 30) with the witness rule corrupted by smaller (see
    corrupt_rule), or formula_counts's count c for each member m replaced by
    count(m, c), m as a tuple."""
    if smaller:
        corrupt_rule(monkeypatch, smaller)
    if count:
        formula = nodal.formula_counts

        def counted(domain, m):
            rows = zip(m.tolist(), formula(domain, m).tolist())
            return np.array([count(tuple(r), c) for r, c in rows], dtype=np.int64)

        monkeypatch.setattr(nodal, "formula_counts", counted)
    return courant.classify(box(2), 30)


@pytest.mark.parametrize(
    "smaller,count,message",
    [
        # (0, 1), value 2 at position 3, is the first level with a witness
        (lambda m, w: None, None, r"decision tree found no witness for \(0, 1\)"),
        (lambda m, w: m, None, r"witness \(0, 1\) lies inside the nodal box of \(0, 1\)"),
        (lambda m, w: (m[0] + 3,) + m[1:], None, r"witness \(3, 1\) is not below 2"),
        # the sharp members (1, 0), (1, 1) and (2, 1) keep their counts
        (None, lambda m, c: c if m in ((1, 0), (1, 1), (2, 1)) else 10 * c,
         r"nu 20 not below N 3"),
        (None, lambda m, c: c + 1, r"sharp candidate \(1, 0\): nu 3 != N 2"),
        # value 83 lies above the cutoff, so the index does not hold it
        (lambda m, w: (m[0] + 9,) + m[1:], None, r"witness \(9, 1\) is not below 2"),
    ],
    ids=["no-witness", "inside-box", "not-below", "nu-not-below", "sharp-count",
         "above-cutoff"],
)
def test_a_corrupted_box_witness_is_refused(monkeypatch, smaller, count, message):
    with pytest.raises(ConsistencyError, match=message):
        box_with(monkeypatch, smaller, count)


def test_classification_reads_every_count_from_the_column_rule(monkeypatch):
    # courant counts through nodal.formula_counts, one call per group of
    # rows, never through the one-row count_formula
    calls = []
    formula = nodal.count_formula

    def counted(domain, m):
        calls.append(m)
        return formula(domain, m)

    monkeypatch.setattr(nodal, "count_formula", counted)
    for dom, cutoff in ((triangle(), 5000), (box(6), 80)):
        courant.classify_index(spectrum.build_index(dom, cutoff))
    assert calls == []


def test_box_witness_values_are_compared_exactly(monkeypatch):
    # in box(3) the value text is a Z[gamma^2] combination: (0, 1, 0) at
    # 1*g^2 claims the witness (2, 0, 0), whose value 4 is larger
    corrupt_rule(monkeypatch, lambda m, w: (2, 0, 0) if m == (0, 1, 0) else w)
    with pytest.raises(ConsistencyError, match=r"witness \(2, 0, 0\) is not below 1\*g\^2"):
        courant.classify(box(3), 30)


def test_verdicts_stable_under_cutoff_growth():
    small = courant.classify(triangle(), 150)
    large = courant.classify(triangle(), 400)
    key = lambda v: (v.position, v.value.coeffs, v.sharp, v.reason, str(v.witness))
    assert [key(v) for v in small] == [key(v) for v in large[: len(small)]]
    small = courant.classify(box(3), 40)
    large = courant.classify(box(3), 90)
    assert [key(v) for v in small] == [key(v) for v in large[: len(small)]]


def test_verdicts_cross_validated_by_grid_counts():
    # for simple eigenvalues the verdict's inequality is confirmed by an
    # independent grid nodal count
    cases = [(triangle(), 150), (box(2), 100), (box(3), 100)]
    for dom, cutoff in cases:
        si = spectrum.build_index(dom, cutoff)
        verdicts = courant.classify(dom, cutoff)
        for v in verdicts:
            if v.multiplicity != 1:
                continue
            member = si.level_of(v.value).members[0]
            nu = nodal.count_grid(eigenfn.basis_fn(dom, member)).count
            if v.sharp:
                assert nu == v.position, (dom.label(), member)
            else:
                assert nu < v.position, (dom.label(), member)


def test_explain_covers_multiplicity_range():
    verdicts = courant.classify(triangle(), 60)
    v50 = verdict_for(verdicts, 50.0)
    assert courant.explain(verdicts, v50.position + 1) == v50
    # every position 1..N lies in exactly one level, and no other position
    for dom in (triangle(), box(2)):
        verdicts = courant.classify(dom, 60)
        covered = [v for v in verdicts for _ in range(v.multiplicity)]
        assert [courant.explain(verdicts, p) for p in range(1, len(covered) + 1)] == covered
        for p in (0, -1, len(covered) + 1, 10**30):
            with pytest.raises(DomainError, match=f"no verdict covers position {p}$"):
                courant.explain(verdicts, p)


def test_failed_witness_check_names_the_witness():
    # (3, 0) is not on the level 5, so its second boundary witness (2, 2),
    # with eigenvalue 8, is not below 5; the message is built on failure
    with pytest.raises(ConsistencyError, match=r"boundary witness \(2, 2\) failed for 5"):
        courant._boundary_witnesses(np.array([5]), np.array([(3, 0)]))


@pytest.mark.parametrize(
    "value,member,bad",
    [
        (10, (3, 1), (2, 1)),  # odd: 5 < 10 <= 3^2 + 1 alone would pass
        (13, (3, 0), (2, 0)),  # its right neighbour (3, 0) is below 13 too
        (4, (3, 0), (2, 0)),  # at the value, not below it
        (11, (2, 3), (1, 3)),  # no quantum number, though 10 < 11 <= 13
    ],
)
def test_boundary_witness_check_rejects_each_failed_condition(value, member, bad):
    # the row is checked among passing rows (9 with member (3, 0)), which
    # must not mask it
    with pytest.raises(
        ConsistencyError, match=rf"boundary witness \({bad[0]}, {bad[1]}\) failed for {value}"
    ):
        courant._boundary_witnesses(np.array([9, value, 9]), np.array([(3, 0), member, (3, 0)]))


def reference_rows(z, member, position, nu):
    """The strictness witnesses of one reference-set row checked between two
    passing rows, (4, 0) at 16 with nu 9 at position 10, which must not mask
    it."""
    return courant._reference_witnesses(
        np.array([16, z, 16]), np.array([(4, 0), member, (4, 0)]),
        np.array([10, position, 10]), np.array([9, nu, 9]),
    )


def test_strictness_witness_at_the_value_is_not_below_it():
    # the explicit-count members meet every other condition, but their
    # strictness witnesses do not lie below the value: the lemma needs a >= 3
    # on the diagonal and a >= 4 on the axis.  No witness lies at the value
    # itself, as (a + 1)^2 = 2a^2 and (a - 1)^2 + 4 = a^2 have no integer root
    for z, member, nu, extra in ((2, (1, 1), 3, (2, 0)), (8, (2, 2), 6, (3, 0)),
                                 (4, (2, 0), 4, (1, 2))):
        with pytest.raises(ConsistencyError, match=(
                rf"strictness witness \({extra[0]}, {extra[1]}\) is not below {z}$")):
            reference_rows(z, member, 20, nu)


@pytest.mark.parametrize(
    "z,member,nu",
    [(26, (5, 1), 9), (9, (3, 0), 9), (16, (-4, 0), 1), (2, (-1, -1), 0)],
    ids=["off-axis", "odd-axis", "negative-axis", "negative-diagonal"],
)
def test_reference_witness_check_rejects_an_unexpected_shape(z, member, nu):
    # neither (a, a) nor (a, 0) with a even, each a quantum number, though
    # z = a^2 + b^2 holds; no column edit reaches this check, as
    # formula_counts refuses a member that is no quantum number and the fold
    # one with a - b odd before it (a corrupted reference row is refused by
    # test_a_corrupted_row_raises_the_scalar_message)
    with pytest.raises(ConsistencyError, match=rf"unexpected reference shape \({member[0]}, "):
        reference_rows(z, member, 20, nu)


def test_boundary_witnesses_satisfy_the_exact_conditions():
    # the former per-witness check, kept as an oracle: each witness through
    # the exact eigenvalue, algebra.compare and qn_parity (the strictness
    # points: test_positions_and_reference_verdicts_match_the_exact_path)
    dom = triangle()
    odd = [v for v in courant.classify(dom, 5000) if v.parity == "odd"]
    assert [v.reason for v in odd[:1]] == [courant.ORTHOGONALITY_SECOND]
    for v in odd[1:]:
        assert v.reason == courant.ODD_BOUNDARY
        w1, w2 = v.witness["boundary_even_points"]
        assert w1 != w2
        for w in (w1, w2):
            assert qn_parity(dom, w) == "even"
            assert algebra.compare(eigenvalue(dom, w), v.value) == LESS
            assert algebra.compare(eigenvalue(dom, (w[0] + 1, w[1])), v.value) != LESS
    assert len(odd) > 600


def test_triangle_verdicts_use_no_eigenvalue_compare_or_grid(monkeypatch):
    want = courant.classify(triangle(), 5000)

    def refuse(*args, **kwargs):
        raise AssertionError("called on the triangle path")

    # refused before the index is built: in the integer ring the sort on the
    # coefficient is the exact order, with no pair left to certify
    for module, name in (
        (algebra, "from_quantum_number"),
        (algebra, "compare"),
        (nodal, "count_grid"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert list(courant.classify(triangle(), 5000)) == list(want)


def test_box_verdicts_use_no_eigenvalue_or_compare(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called on the box path")

    # refused once the index is built: its level order is certified by
    # algebra.compare, and every witness is placed in that order
    for n, cutoff in ((2, 2000), (4, 500)):
        si = spectrum.build_index(box(n), cutoff)
        want = box_oracle.classify(n, cutoff)
        with monkeypatch.context() as m:
            m.setattr(algebra, "from_quantum_number", refuse)
            m.setattr(algebra, "compare", refuse)
            m.setattr(algebra.AlgebraicValue, "__post_init__", refuse)
            got = courant.classify_index(si)
        assert list(got) == want


# ---------------------------------------------------------------------------
# the oracle's reference-set arrays, checked point by point


def diagonal_set(m: int) -> set:
    return {(i, j) for i in range(m + 1) for j in range(i + 1)}


def axis_set(m: int) -> set:
    return {(m + j, m - i) for i in range(m + 1) for j in range(-i, i + 1)}


@pytest.mark.parametrize(
    "build,closed_form",
    [
        (triangle_oracle.reference_points_diagonal, diagonal_set),
        (triangle_oracle.reference_points_axis, axis_set),
    ],
    ids=["diagonal", "axis"],
)
def test_reference_point_arrays_are_their_closed_forms(build, closed_form):
    for m in range(61):
        ref = build(m)
        assert ref.dtype == np.int64 and ref.shape == (ref.shape[0], 2)
        rows = list(map(tuple, ref.tolist()))
        assert len(set(rows)) == len(rows)
        assert set(rows) == closed_form(m)


def reference_level(value: int):
    """The spectrum index of the triangle below 20 and its level at value."""
    si = spectrum.build_index(triangle(), 20)
    return si, si.level_of(algebra.integer_value(1, value))


def patched_verdict(monkeypatch, value: int, builder: str, old: tuple, new: tuple):
    """The oracle's reference-set verdict of the triangle level at value,
    with one row of the oracle builder's array replaced."""
    build = getattr(triangle_oracle, builder)

    def patched(m):
        ref = build(m)
        rows = list(map(tuple, ref.tolist()))
        ref[rows.index(old)] = new
        return ref

    monkeypatch.setattr(triangle_oracle, builder, patched)
    si, lv = reference_level(value)
    return triangle_oracle.classify_level(si, lv, int(si.starts[si.levels.index(lv)]) + 1)


# 18 = (3, 3) is checked against the diagonal set, 16 = (4, 0) against the
# axis set; both levels are reference-set verdicts when nothing is patched,
# in the engine and in the oracle alike
@pytest.mark.parametrize("value,extra", [(18, (4, 0)), (16, (3, 2))])
def test_reference_set_levels_unpatched(value, extra):
    si, lv = reference_level(value)
    i = si.levels.index(lv)
    v = courant.classify_index(si)[i]
    assert v.reason == courant.REFERENCE_SET_STRICT
    assert v.witness["extra_point"] == extra
    assert triangle_oracle.classify_level(si, lv, int(si.starts[i]) + 1) == v


@pytest.mark.parametrize(
    "value,builder,old,new,message",
    [
        # a row moved above the value: 5^2 = 25 > 18, 5^2 + 1 = 26 > 16
        (18, "reference_points_diagonal", (0, 0), (5, 0),
         r"reference point \(5, 0\) is not below 18"),
        (16, "reference_points_axis", (0, 0), (5, 1),
         r"reference point \(5, 1\) is not below 16"),
        # a row that is no Neumann triangle quantum number
        (18, "reference_points_diagonal", (1, 0), (0, 1),
         r"reference point \(0, 1\) is not a triangle-neumann quantum number"),
        (16, "reference_points_axis", (1, 1), (1, -1),
         r"reference point \(1, -1\) is not a triangle-neumann quantum number"),
        # the strictness witness inside the set
        (18, "reference_points_diagonal", (0, 0), (4, 0),
         r"strictness witness \(4, 0\) inside reference set"),
        (16, "reference_points_axis", (0, 0), (3, 2),
         r"strictness witness \(3, 2\) inside reference set"),
        # a duplicate row: one point fewer than the nodal count
        (18, "reference_points_diagonal", (0, 0), (1, 0),
         r"reference set size 9 != nu 10"),
    ],
)
def test_reference_set_check_rejects_a_bad_row(
    monkeypatch, value, builder, old, new, message
):
    with pytest.raises(ConsistencyError, match=message):
        patched_verdict(monkeypatch, value, builder, old, new)


def test_reference_point_at_the_value_is_not_below_it(monkeypatch):
    # 50 = 5^2 + 5^2 = 7^2 + 1^2: of the points with the value itself, only
    # the member (5, 5) may stand in its reference set, so (7, 1) must fail
    build = triangle_oracle.reference_points_diagonal

    def patched(m):
        ref = build(m)
        ref[0] = (7, 1)  # was (0, 0)
        return ref

    monkeypatch.setattr(triangle_oracle, "reference_points_diagonal", patched)
    si = spectrum.build_index(triangle(), 60)
    lv = si.level_of(algebra.integer_value(1, 50))
    base = triangle_oracle._base(lv, int(si.starts[si.levels.index(lv)]) + 1)
    with pytest.raises(ConsistencyError, match=r"reference point \(7, 1\) is not below 50"):
        triangle_oracle._reference_set_verdict(si, lv, base, (5, 5))


def oracle_reference_check(si, v, member):
    """The former per-point check, on the closed-form sets: every reference
    point through the exact eigenvalue and algebra.compare."""
    a, b = member
    if a == b:
        ref, extra = diagonal_set(a), (a + 1, 0)
    else:
        ref, extra = axis_set(a // 2), (a - 1, 2)
    assert len(ref) == v.nu
    for p in ref:
        assert algebra.compare(eigenvalue(si.domain, p), v.value) == LESS or p == member
    assert extra not in ref
    assert algebra.compare(eigenvalue(si.domain, extra), v.value) == LESS
    assert v.nu < v.position
    return {"reference_size": len(ref), "extra_point": extra}


def test_positions_and_reference_verdicts_match_the_exact_path():
    si = spectrum.build_index(triangle(), 5000)
    verdicts = courant.classify(triangle(), 5000)
    assert len(verdicts) == len(si.levels)
    checked = 0
    for v, lv in zip(verdicts, si.levels):
        assert v.value == lv.value
        assert v.position == si.position_of(lv.value)
        if v.reason == courant.REFERENCE_SET_STRICT:
            assert v.witness == oracle_reference_check(si, v, lv.members[0])
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# the columnar triangle engine against the former scalar classifier


def test_triangle_columns_equal_the_scalar_oracle():
    assert list(courant.classify(triangle(), 5000)) == triangle_oracle.classify(5000)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-2, max_value=3000, max_denominator=50))
def test_triangle_columns_equal_the_scalar_oracle_at_random_cutoffs(cutoff):
    assert list(courant.classify(triangle(), cutoff)) == triangle_oracle.classify(cutoff)


# ---------------------------------------------------------------------------
# the columnar box rule against the former decision tree


@pytest.mark.parametrize("n,cutoff", [(2, 2000), (3, 500), (4, 500), (6, 80)])
def test_box_columns_equal_the_scalar_oracle(n, cutoff):
    assert list(courant.classify(box(n), cutoff)) == box_oracle.classify(n, cutoff)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.fractions(min_value=-2, max_value=400, max_denominator=50))
def test_box_columns_equal_the_scalar_oracle_at_random_cutoffs(n, cutoff):
    assert list(courant.classify(box(n), cutoff)) == box_oracle.classify(n, cutoff)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=5, max_value=8), st.fractions(min_value=0, max_value=25,
                                                           max_denominator=10))
def test_box_columns_equal_the_scalar_oracle_in_higher_dimensions(n, cutoff):
    assert list(courant.classify(box(n), cutoff)) == box_oracle.classify(n, cutoff)


def test_classify_index_takes_a_neumann_index_only():
    for dom in (triangle("dirichlet"), box(2, "dirichlet")):
        with pytest.raises(DomainError, match="covers the Neumann problem"):
            courant.classify_index(spectrum.build_index(dom, 50))
        with pytest.raises(DomainError, match="covers the Neumann problem"):
            courant.classify(dom, 50)


def corrupted_index(cutoff, edit) -> spectrum.SpectrumIndex:
    """The triangle index below cutoff, its columns (coeffs, offsets,
    members) replaced by edit(copies of them), or kept where edit is None."""
    r = spectrum.build_index(triangle(), cutoff).region
    columns = (r.coeffs.copy(), r.offsets.copy(), r.members.copy())
    if edit:
        columns = edit(*columns)
    return spectrum.SpectrumIndex(qlattice.LatticeRegion(r.domain, r.cutoff, *columns))


def first_member(value: int, member: tuple):
    """An edit that makes member the first member of the level at value."""

    def edit(coeffs, offsets, members):
        members[offsets[np.flatnonzero(coeffs[:, 0] == value)[0]]] = member
        return coeffs, offsets, members

    return edit


def listed_twice(value: int):
    """An edit that lists the first member of the level at value twice,
    moving every later level one position up."""

    def edit(coeffs, offsets, members):
        i = np.flatnonzero(coeffs[:, 0] == value)[0]
        offsets[i + 1 :] += 1
        return coeffs, offsets, np.insert(members, offsets[i], members[offsets[i]], axis=0)

    return edit


def dropped(value: int):
    """An edit that removes the level at value, moving every later level
    down by its multiplicity."""

    def edit(coeffs, offsets, members):
        i = np.flatnonzero(coeffs[:, 0] == value)[0]
        lo, hi = offsets[i], offsets[i + 1]
        offsets = np.delete(offsets, i + 1)
        offsets[i + 1 :] -= hi - lo
        return np.delete(coeffs, i, axis=0), offsets, np.delete(members, slice(lo, hi), axis=0)

    return edit


def raised_reference_counts(monkeypatch):
    """formula_counts, and count_formula through it, with the count of every
    member but the sharp ones raised by one."""
    formula = nodal.formula_counts

    def counted(domain, m):
        raised = [r not in ([1, 0], [1, 1], [2, 0], [2, 2]) for r in m.tolist()]
        return formula(domain, m).astype(np.int64) + raised

    monkeypatch.setattr(nodal, "formula_counts", counted)


def core_one_read_as_three(monkeypatch):
    """The engine's fold and the oracle's with the core (1, 0) read as
    (3, 0), which sends the explicit-count levels to the reference check."""
    fold, fold_qn = courant._fold, folding.fold_qn

    def folded(m, k):
        cores = fold(m, k)
        cores[(cores == (1, 0)).all(axis=1)] = (3, 0)
        return cores

    def folded_qn(domain, m):
        core = fold_qn(domain, m)
        return (3, 0) if core == (1, 0) else core

    monkeypatch.setattr(courant, "_fold", folded)
    monkeypatch.setattr(folding, "fold_qn", folded_qn)


@pytest.mark.parametrize(
    "edit,patch,error,message",
    [
        # odd_boundary: (3, 0) gives the witness (2, 2), whose value 8 is not below 5
        (first_member(5, (3, 0)), None, ConsistencyError,
         r"boundary witness \(2, 2\) failed for 5"),
        # the fold: 4 = 2^2 * 1, but (2, 1) has odd parity
        (first_member(4, (2, 1)), None, FoldParityError,
         r"\(2, 1\) has odd parity and cannot be folded"),
        # subdomain_multiplicity: (5, 1) folds to (3, 2), the square pair (2, 0)
        (first_member(10, (5, 1)), None, ConsistencyError, r"subdomain value 26 != 10"),
        # explicit_count: 5 listed twice puts 8 at position 7, its count is 6
        (listed_twice(5), None, ConsistencyError, r"explicit count 6 != N 7"),
        # orthogonality_second: 0 listed twice puts 1 at position 3
        (listed_twice(0), None, ConsistencyError, r"lambda_2 nodal count 2 != N 3"),
        # reference_set_strict: (5, 5) folds to the core (5, 0) of 18 = 2 * 9,
        # but lies at 50, so the lemmas do not apply
        (first_member(18, (5, 5)), None, ConsistencyError,
         r"reference member \(5, 5\) has value 50, not 18"),
        # (3, 3) at 26 = 2 * 13 meets every other check: its points lie below 18
        (first_member(26, (3, 3)), None, ConsistencyError,
         r"reference member \(3, 3\) has value 18, not 26"),
        # the set of (4, 0) at 16 has 9 points, its count raised to 10
        (None, raised_reference_counts, ConsistencyError, r"reference set size 9 != nu 10"),
        # (1, 1) at 2 sent to the reference check: its witness (2, 0) lies at 4
        (None, core_one_read_as_three, ConsistencyError,
         r"strictness witness \(2, 0\) is not below 2"),
        # 13 dropped puts 16 at position 9, its count is 9
        (dropped(13), None, ConsistencyError, r"nu 9 not below N 9"),
    ],
    ids=["boundary", "fold-parity", "subdomain-value", "explicit-count", "second",
         "reference-hypothesis", "reference-member-moved", "reference-size", "reference-not-below",
         "reference-nu-not-below"],
)
def test_a_corrupted_row_raises_the_scalar_message(monkeypatch, edit, patch, error, message):
    # the columnar engine names the corrupted row as the scalar oracle does
    if patch:
        patch(monkeypatch)
    si = corrupted_index(100, edit)
    with pytest.raises(error, match=message):
        courant.classify_index(si)
    with pytest.raises(error, match=message):
        [triangle_oracle.classify_level(si, lv, int(si.starts[i]) + 1)
         for i, lv in enumerate(si.levels)]


def test_a_degenerate_subdomain_row_is_refused():
    # no odd core gives a pair (p, p), so one row of the subdomain columns
    # below 100 is replaced by the core (1, 0) of 4 = 2^2 * 1, whose k = 2
    # rectangle pair (1, 1) has the value 2 (1^2 + 1^2) = 4 but is degenerate
    si = spectrum.build_index(triangle(), 100)
    t = courant.classify_index(si)
    rows = np.flatnonzero(t.reason == courant.SUBDOMAIN_MULTIPLICITY)
    z, k = si.region.coeffs[rows, 0], t.k[rows]
    cm, cn = courant._fold(si.region.members[si.starts[rows]], k).T
    p, q = courant._subdomain_pairs(z, k, cm, cn)
    assert np.array_equal(t.points[rows, 0], np.column_stack([p, q]))
    z[3], k[3], cm[3], cn[3] = 4, 2, 1, 0
    with pytest.raises(ConsistencyError, match="subdomain witness pair degenerate"):
        courant._subdomain_pairs(z, k, cm, cn)


def test_the_first_failing_row_is_named():
    # two corrupted odd levels: the lower one is reported
    def edit(coeffs, offsets, members):
        for value, member in ((13, (4, 1)), (5, (3, 0))):
            coeffs, offsets, members = first_member(value, member)(coeffs, offsets, members)
        return coeffs, offsets, members

    with pytest.raises(ConsistencyError, match=r"failed for 5"):
        courant.classify_index(corrupted_index(100, edit))
