from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldspec import algebra, cli, courant, nodal, qlattice, spectrum
from foldspec.algebra import AlgebraicValue
from foldspec.domains import DIRICHLET, box, qn_parity, triangle
from foldspec.errors import (
    DivisibilityError,
    DomainError,
    InvalidEigenvalueError,
    OutOfRangeError,
)
from boundary_oracle import prefix_splits


def test_triangle_index_values():
    si = spectrum.build_index(triangle(), 11)
    assert [lv.value.coeffs[0] for lv in si.levels] == [0, 1, 2, 4, 5, 8, 9, 10]
    assert all(lv.multiplicity == 1 for lv in si.levels)


def test_box2_index_positions():
    si = spectrum.build_index(box(2), 7)
    assert [lv.value.coeffs[0] for lv in si.levels] == [0, 1, 2, 3, 4, 6]
    assert si.position_of(algebra.integer_value(2, 3)) == 4
    assert si.position_of(algebra.integer_value(2, 6)) == 6


def test_multiplicity_of_25():
    si = spectrum.build_index(triangle(), 30)
    lv = si.level_of(algebra.integer_value(1, 25))
    assert lv.multiplicity == 2
    assert set(lv.members) == {(5, 0), (4, 3)}


def test_counting_examples():
    si = spectrum.build_index(triangle(), 20)
    c = si.counting(algebra.integer_value(1, 8))
    assert (c.below, c.position) == (5, 6)
    c = si.counting(algebra.integer_value(1, 3))  # not an eigenvalue
    assert (c.below, c.position, c.multiplicity) == (3, 3, 0)
    c = si.counting(algebra.integer_value(1, 0))
    assert (c.below, c.position) == (0, 1)


def test_counting_out_of_range():
    si = spectrum.build_index(triangle(), 20)
    with pytest.raises(OutOfRangeError):
        si.counting(algebra.integer_value(1, 20))


def test_total_counts_match_region_size():
    from foldspec import qlattice

    for dom, cutoff in ((triangle(), 150), (box(2), 150), (box(3), 60)):
        si = spectrum.build_index(dom, cutoff)
        total = si.starts[-1] + 1 + si.levels[-1].multiplicity - 1
        assert total == sum(lv.multiplicity for lv in si.levels)
        assert total == len(qlattice.enumerate_below(dom, cutoff))


def test_odd_core_examples():
    oc = spectrum.odd_core(algebra.integer_value(1, 8))
    assert (oc.core.coeffs, oc.k) == ((1,), 3)
    oc = spectrum.odd_core(algebra.integer_value(1, 5))
    assert (oc.core.coeffs, oc.k) == ((5,), 0)
    oc = spectrum.odd_core(algebra.integer_value(2, 6))
    assert (oc.core.coeffs, oc.k) == ((3,), 1)


def test_odd_core_zero_rejected():
    with pytest.raises(DomainError):
        spectrum.odd_core(algebra.integer_value(1, 0))


def test_multiplicity_equals_core_multiplicity():
    for dom, cutoff in ((triangle(), 300), (box(2), 200), (box(4), 60)):
        si = spectrum.build_index(dom, cutoff)
        for lv in si.levels:
            if lv.value.is_zero():
                continue
            oc = spectrum.odd_core(lv.value)
            assert lv.multiplicity == si.multiplicity_of(oc.core), lv.value.text()


_LEMMA_INDEXES = {
    "triangle@20000": (triangle(), 20000),
    "box2@4000": (box(2), 4000),
    "box3@300": (box(3), 300),
    "box4@150": (box(4), 150),
    "box5@100": (box(5), 100),
    "box6@60": (box(6), 60),
}


@functools.lru_cache(maxsize=None)
def _lemma_index(name):
    """The index and the values of its odd levels whose gamma^2 multiple
    lies below the cutoff."""
    si = spectrum.build_index(*_LEMMA_INDEXES[name])
    values = map(si.region.value, range(len(si)))
    return si, [
        v for v in values
        if v.coeffs[0] % 2 and algebra.is_below(algebra.scale_gamma2(v, 1), si.cutoff)
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_LEMMA_INDEXES)), st.booleans(), st.data())
def test_an_even_value_has_the_multiplicity_of_its_odd_core(name, level, data):
    # the folding lemma deficiency_bound rests on: every lattice point of an
    # even value folds, so d(gamma^(2k) c) = d(c) for an odd c and k >= 1,
    # c an odd level's value or an odd value that may lie in no level
    si, odd = _lemma_index(name)
    if level:
        c = data.draw(st.sampled_from(odd))
    else:
        r = algebra.basis_len(si.domain.ring)
        coeffs = data.draw(st.lists(st.integers(0, 9), min_size=r, max_size=r))
        c = AlgebraicValue(si.domain.ring, (2 * coeffs[0] + 1,) + tuple(coeffs[1:]))
    below = [k for k in range(1, 40) if algebra.is_below(algebra.scale_gamma2(c, k), si.cutoff)]
    assume(below)
    v = algebra.scale_gamma2(c, data.draw(st.sampled_from(below)))
    assert si.multiplicity_of(v) == si.multiplicity_of(c), (v.text(), c.text())


def test_r2_values():
    assert spectrum.r2(0) == 1
    assert spectrum.r2(5) == 8
    assert spectrum.r2(10) == 8
    assert spectrum.r2(25) == 12
    assert spectrum.r2(3) == 0


def test_r2_brute_force():
    def brute(z: int) -> int:
        b = int(math.isqrt(z)) + 1
        return sum(
            1
            for m in range(-b, b + 1)
            for n in range(-b, b + 1)
            if m * m + n * n == z
        )

    for z in range(200):
        assert spectrum.r2(z) == brute(z)


def test_rect_multiplicity_brute_force():
    def brute(z: int) -> int:
        b = int(math.isqrt(z)) + 1
        return sum(
            1
            for a in range(b + 1)
            for c in range(b + 1)
            if a * a + 2 * c * c == z
        )

    for z in range(300):
        assert spectrum.rect_multiplicity(z) == brute(z)


def test_factorization_examples():
    assert spectrum.multiplicity_by_factorization(4, AlgebraicValue(4, (3, 3))) == 1
    assert spectrum.multiplicity_by_factorization(2, algebra.integer_value(2, 9)) == 2
    assert spectrum.multiplicity_by_factorization(4, AlgebraicValue(4, (9, 0))) == 2


def test_factorization_rejects_non_eigenvalues():
    with pytest.raises(InvalidEigenvalueError):
        spectrum.multiplicity_by_factorization(2, algebra.integer_value(2, 7))
    with pytest.raises(DomainError):
        spectrum.multiplicity_by_factorization(3, AlgebraicValue(3, (1, 0, 0)))


@pytest.mark.parametrize(
    "cutoff", [Fraction(1, 3), 2, Fraction(401, 2), Fraction(12345, 7), Fraction(30001, 10)]
)
def test_dnn_index_is_the_odd_levels_of_the_triangle_index(cutoff):
    dnn = spectrum.build_dnn_index(cutoff)
    odd = [lv for lv in spectrum.build_index(triangle(), cutoff).levels
           if algebra.parity(lv.value) == "odd"]
    assert dnn.levels == tuple(odd)
    position = 1
    for i, lv in enumerate(odd):
        assert dnn.starts[i] + 1 == position == dnn.position_of(lv.value)
        position += lv.multiplicity


def test_lookups_refuse_a_value_of_another_ring():
    # integer_value(2, 5) has the coefficients (5,) of the triangle level 5
    si = spectrum.build_index(triangle(), 60)
    other = algebra.integer_value(2, 5)
    for lookup in (si.level_of, si.multiplicity_of, si.counting, si.right_boundary_parity):
        with pytest.raises(DomainError, match="ring n=2"):
            lookup(other)
    assert si.multiplicity_of(algebra.integer_value(1, 5)) == 1
    with pytest.raises(DomainError, match="ring n=1"):
        spectrum.build_index(box(2), 60).level_of(algebra.integer_value(1, 5))


def test_dnn_index_is_odd_sublattice():
    dnn = spectrum.build_dnn_index(200)
    for lv in dnn.levels:
        assert algebra.parity(lv.value) == "odd"
        for m, n in lv.members:
            assert (m - n) % 2 == 1
    # first DNN eigenvalue is 1, with the lowest odd lattice point
    assert dnn.levels[0].value.coeffs == (1,)
    assert dnn.levels[0].members == ((1, 0),)


# ---------------------------------------------------------------------------
# oracle: the former odd_core, one exact gamma^2 division per step


def odd_core_by_division(value: AlgebraicValue) -> spectrum.OddCore:
    k = 0
    v = value
    while algebra.parity(v) == "even":
        v = algebra.scale_gamma2(v, -1)
        k += 1
    return spectrum.OddCore(core=v, k=k)


@pytest.mark.parametrize(
    "dom,cutoff",
    [(triangle(), 3000), (box(2), 400), (box(3), 60), (box(4), 40), (box(5), 40),
     (box(6), 30)],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_odd_core_matches_division_oracle_on_every_level(dom, cutoff):
    si = spectrum.build_index(dom, cutoff)
    levels = si.levels
    assert len(levels) > 100
    core, k = spectrum.odd_core_columns(dom.ring, si.region.coeffs)
    assert not core[0].any() and k[0] == 0  # levels[0] is the ground state 0
    for lv, c, kk in zip(levels[1:], qlattice.tuples(core[1:]), k[1:].tolist()):
        want = odd_core_by_division(lv.value)
        assert spectrum.odd_core(lv.value) == want
        assert (c, kk) == (want.core.coeffs, want.k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=-(1 << 70), max_value=1 << 70),
                min_size=algebra.basis_len(n),
                max_size=algebra.basis_len(n),
            ).filter(any),
            st.integers(min_value=0, max_value=12),
        )
    )
)
def test_odd_core_matches_division_oracle_on_random_rows(case):
    n, coeffs, k = case
    # scaling by gamma^(2k) makes long division chains likely
    value = algebra.scale_gamma2(AlgebraicValue(n, tuple(coeffs)), k)
    try:
        want = odd_core_by_division(value)
    except DivisibilityError:
        with pytest.raises(DivisibilityError):
            spectrum.odd_core(value)
        return
    assert spectrum.odd_core(value) == want



def text_by_terms(value: AlgebraicValue) -> str:
    """The former AlgebraicValue.text, one term per nonzero coefficient."""
    step = 2 if (value.n % 2 == 0 and value.n > 1) else 1
    parts = []
    for j, c in enumerate(value.coeffs):
        if c == 0:
            continue
        parts.append(str(c) if j == 0 else f"{c}*g^{j * step}")
    return " + ".join(parts) if parts else "0"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=-(1 << 70), max_value=1 << 70)
                | st.sampled_from([0, 1, 2]),
                min_size=algebra.basis_len(n),
                max_size=algebra.basis_len(n),
            ),
            st.integers(min_value=0, max_value=12),
        )
    )
)
def test_coefficient_level_text_and_odd_core_match_the_values(case):
    n, coeffs, k = case
    value = algebra.scale_gamma2(AlgebraicValue(n, tuple(coeffs)), k)
    text = algebra.coeffs_text(n, value.coeffs)
    assert text == value.text() == text_by_terms(value)
    # the column form on a one-row matrix, where the coefficients fit int64
    row = np.array([value.coeffs], dtype=np.int64) if max(map(abs, value.coeffs)) < 2**62 else None
    if value.is_zero():
        with pytest.raises(DomainError):
            spectrum.odd_core(value)
        if row is not None:
            assert [a.tolist() for a in spectrum.odd_core_columns(n, row)] == [[list(coeffs)], [0]]
        return
    try:
        want = odd_core_by_division(value)
    except DivisibilityError as exc:
        with pytest.raises(DivisibilityError) as got:
            spectrum.odd_core(value)
        assert str(got.value) == str(exc)  # both name the value that stops dividing
        if row is not None:
            with pytest.raises(DivisibilityError, match=re.escape(str(exc))):
                spectrum.odd_core_columns(n, row)
        return
    assert spectrum.odd_core(value) == want
    if row is not None:
        core, k = spectrum.odd_core_columns(n, row)
        assert (tuple(core[0].tolist()), int(k[0])) == (want.core.coeffs, want.k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=-(1 << 70), max_value=1 << 70),
                min_size=algebra.basis_len(n),
                max_size=algebra.basis_len(n),
            ),
        )
    ),
    st.integers(min_value=0, max_value=40),
)
def test_scale_gamma2_round_trips_and_odd_core_undoes_it(case, k):
    # algebra codes gamma^2 as shifted slots, odd_core as rotated coefficients
    n, coeffs = case
    v = AlgebraicValue(n, tuple(coeffs))
    assert algebra.scale_gamma2(algebra.scale_gamma2(v, k), -k) == v
    core = AlgebraicValue(n, (2 * coeffs[0] + 1,) + tuple(coeffs[1:]))
    assert spectrum.odd_core(algebra.scale_gamma2(core, k)) == spectrum.OddCore(core, k)


def test_no_package_path_builds_every_level(monkeypatch, capsys):
    # each read builds the one Level it returns, or none; unpatched, each
    # lookup's Level is the one levels holds
    def values(si):
        return [AlgebraicValue(si.domain.ring, c) for c in qlattice.tuples(si.region.coeffs)]

    for dom, cutoff in ((triangle(), 300), (box(3), 60)):
        si = spectrum.build_index(dom, cutoff)
        assert list(map(si.level_of, values(si))) == list(si.levels)

    def refuse(region):
        raise AssertionError("a read path built every Level of a region")

    monkeypatch.setattr(qlattice.LatticeRegion, "levels", property(refuse))
    for dom, cutoff in ((triangle(), 2000), (box(3), 200)):
        si = spectrum.build_index(dom, cutoff)
        for value in values(si)[1::7]:
            nodal.deficiency_bound(si, value)
    dirichlet = spectrum.build_index(box(2, DIRICHLET), 300)
    assert nodal.dirichlet_deficiency_check(dirichlet, algebra.integer_value(2, 12)).as_dict()
    si = spectrum.build_index(triangle(), 60)
    level, between = algebra.integer_value(1, 50), algebra.integer_value(1, 51)
    assert si.level_of(level).members == ((5, 5), (7, 1))
    assert si.level_of(between) is None
    assert si.counting(level).multiplicity == 2 and si.counting(between).multiplicity == 0
    assert si.counting(between).below == si.counting(level).upto
    assert si.counting(level).below == si.counting(between).below - 2
    courant.classify_index(si)
    for argv in (
        ["deficiency", "--domain", "triangle", "--lambda", "50"],
        ["dirichlet-check", "--dim", "2", "--lambda", "12"],
        ["verdicts", "--domain", "box", "--dim", "3", "--cutoff", "60"],
        ["spectrum", "--domain", "triangle", "--cutoff", "200", "--points"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


_BOUNDARY_INDEXES = {
    "triangle-neumann@400": lambda: spectrum.build_index(triangle(), 400),
    "triangle-dirichlet@300": lambda: spectrum.build_index(triangle(DIRICHLET), 300),
    "box2-neumann@400": lambda: spectrum.build_index(box(2), 400),
    "box2-dirichlet@300": lambda: spectrum.build_index(box(2, DIRICHLET), 300),
    "box3-neumann@60": lambda: spectrum.build_index(box(3), 60),
    "box4-neumann@60": lambda: spectrum.build_index(box(4), 60),
    "dnn@400": lambda: spectrum.build_dnn_index(400),
}


@pytest.mark.parametrize("name", ["box3-neumann@60", "box4-neumann@60", "triangle-neumann@400"])
def test_coeffs_texts_match_the_terms(name):
    # every nonzero pattern of the ring: level values, odd cores, signed
    # differences and the zero row, each written by the former term loop
    si = _BOUNDARY_INDEXES[name]()
    n, coeffs = si.domain.ring, si.region.coeffs
    rows = np.vstack([coeffs, spectrum.odd_core_columns(n, coeffs)[0], coeffs - coeffs[::-1]])
    want = [text_by_terms(AlgebraicValue(n, c)) for c in qlattice.tuples(rows)]
    assert [algebra.coeffs_text(n, c) for c in qlattice.tuples(rows)] == want


@pytest.mark.parametrize("name", list(_BOUNDARY_INDEXES))
@pytest.mark.parametrize("ties", [False, True], ids=["doubles", "one-double"])
def test_level_indices_match_the_table(name, ties, monkeypatch):
    if ties:
        # every double 0: each row is found by the scan of one run of all levels
        monkeypatch.setattr(algebra, "coeffs_floats", lambda rows: np.zeros(len(rows)))
    si = _BOUNDARY_INDEXES[name]()
    coeffs = si.region.coeffs
    right = si.region.members + (np.arange(si.domain.coords) == 0)
    rows = np.vstack([
        coeffs[::-1], algebra.coefficient_rows(si.domain.ring, right), coeffs + 1, -coeffs,
    ])
    table = {c: i for i, c in enumerate(qlattice.tuples(coeffs))}
    want = [table.get(c, -1) for c in qlattice.tuples(rows)]
    assert -1 in want  # rows that are no level's value are asked for too
    assert si.level_indices(rows).tolist() == want
    assert si.level_indices(rows[:0]).tolist() == []
    empty = spectrum.build_index(si.domain, 0)
    assert empty.level_indices(rows).tolist() == [-1] * len(rows)


def _assert_boundary_column(si):
    """Every row of the right-boundary column, and right_boundary_parity at
    every level, against the point-set oracle over members[:offsets[i]]."""
    want = prefix_splits(si.domain, si.region.members, si.region.offsets)
    assert si._boundary_parity.tolist() == [list(split) for split in want]
    for i in range(len(si)):
        assert si.right_boundary_parity(si.region.value(i)) == want[i], i


@pytest.mark.parametrize("name", list(_BOUNDARY_INDEXES))
def test_boundary_column_matches_the_point_set_oracle(name):
    si = _BOUNDARY_INDEXES[name]()
    _assert_boundary_column(si)
    # the column reads a member's parity off its level's coefficients
    levels = np.repeat(np.arange(len(si)), si.multiplicities)
    coeff_parity = si.region.coeffs[levels, 0] % 2
    member_parity = [qn_parity(si.domain, m) == "odd" for m in qlattice.tuples(si.region.members)]
    assert coeff_parity.tolist() == member_parity


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(
        [(triangle(), 900), (triangle(DIRICHLET), 900), (box(2), 500), (box(3), 60)]
    ),
    cutoff=st.fractions(min_value=-1, max_value=1, max_denominator=1000),
)
def test_boundary_column_at_random_fraction_cutoffs(case, cutoff):
    dom, top = case
    _assert_boundary_column(spectrum.build_index(dom, top * (cutoff + 1) / 2))
