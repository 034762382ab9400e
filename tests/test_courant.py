from __future__ import annotations

import pytest

from foldspec import algebra, courant, eigenfn, nodal, spectrum
from foldspec.domains import box, triangle
from foldspec.errors import ConsistencyError


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
    assert courant.explain(verdicts, v50.position + 1) is v50


def test_failed_witness_check_names_the_witness():
    # (3, 0) is not on the level 5, so its second boundary witness (2, 2),
    # with eigenvalue 8, is not below 5; the message is built on failure
    si = spectrum.build_index(triangle(), 100)
    with pytest.raises(ConsistencyError, match=r"boundary witness \(2, 2\) failed for 5"):
        courant._boundary_witnesses(si, algebra.integer_value(1, 5), (3, 0))
