from __future__ import annotations

import functools
import itertools
import math
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldspec import algebra
from foldspec.algebra import AlgebraicValue
from foldspec.errors import DivisibilityError, DomainError


def test_triangle_values_are_plain_integers():
    v = algebra.from_quantum_number(1, (2, 1))
    assert v.coeffs == (5,)
    assert algebra.parity(v) == "odd"
    assert v.text() == "5"


def test_reduction_gamma_cubed():
    # gamma = 2^(1/3): 1 + gamma^2 + gamma^4 = 1 + 2*gamma + gamma^2
    v = algebra.from_quantum_number(3, (1, 1, 1))
    assert v.coeffs == (1, 2, 1)
    assert float(v) == pytest.approx(1 + 2 ** (2 / 3) + 2 ** (4 / 3), rel=1e-14)
    assert algebra.parity(v) == "odd"


def test_rectangle_value_is_integer():
    v = algebra.from_quantum_number(2, (2, 1))
    assert v.coeffs == (6,)
    assert algebra.parity(v) == "even"


def test_from_quantum_number_rejects_negatives():
    with pytest.raises(DomainError):
        algebra.from_quantum_number(2, (-1, 0))


def test_scale_gamma2():
    assert algebra.scale_gamma2(algebra.integer_value(2, 3), 1).coeffs == (6,)
    assert algebra.scale_gamma2(AlgebraicValue(4, (1, 0)), 1).coeffs == (0, 1)
    assert algebra.scale_gamma2(AlgebraicValue(4, (0, 1)), 1).coeffs == (2, 0)
    # triangle ring: one gamma^2 step doubles
    assert algebra.scale_gamma2(algebra.integer_value(1, 4), -1).coeffs == (2,)


def test_scale_gamma2_divisibility_error():
    with pytest.raises(DivisibilityError):
        algebra.scale_gamma2(algebra.integer_value(1, 5), -1)
    with pytest.raises(DivisibilityError):
        algebra.scale_gamma2(AlgebraicValue(3, (1, 2, 1)), -1)


def test_scale_roundtrip():
    for n in (1, 2, 3, 4, 5):
        for m in itertools.product(range(4), repeat=(2 if n == 1 else n)):
            v = algebra.from_quantum_number(n, m)
            up = algebra.scale_gamma2(v, 2)
            assert algebra.scale_gamma2(up, -2).coeffs == v.coeffs


def test_scaled_values_are_even():
    for n in (1, 2, 3, 4):
        for m in itertools.product(range(5), repeat=(2 if n == 1 else n)):
            v = algebra.from_quantum_number(n, m)
            assert algebra.parity(algebra.scale_gamma2(v, 1)) == "even"


def test_compare_examples():
    five = algebra.integer_value(1, 5)
    assert algebra.compare(five, five) == 0
    g2 = AlgebraicValue(3, (0, 0, 1))  # 2^(2/3) ~ 1.5874
    assert algebra.compare(g2, algebra.integer_value(3, 2)) < 0
    v = algebra.from_quantum_number(3, (1, 1, 1))  # ~5.107
    assert algebra.compare(v, algebra.integer_value(3, 5)) > 0


def test_compare_agrees_with_floats():
    values = [
        algebra.from_quantum_number(3, m)
        for m in itertools.product(range(6), repeat=3)
    ]
    for a, b in itertools.combinations(values, 2):
        if abs(float(a) - float(b)) > 1e-6:
            want = -1 if float(a) < float(b) else 1
            assert algebra.compare(a, b) == want


def test_compare_tight_values():
    # 2^(1/3) + 2^(2/3) vs 57/20 = 2.85: differ by ~2e-3; and a near tie
    a = AlgebraicValue(3, (0, 1, 1))
    assert algebra.compare_with_rational(a, Fraction(57, 20)) < 0
    assert algebra.compare_with_rational(a, Fraction(28473, 10000)) > 0


def test_canonicality_against_floats():
    # identical coefficient vectors iff float values coincide
    for n in (2, 3, 4):
        by_coeffs: dict[tuple, float] = {}
        by_float: dict[float, tuple] = {}
        for m in itertools.product(range(9), repeat=n):
            v = algebra.from_quantum_number(n, m)
            f = round(float(v), 9)
            if v.coeffs in by_coeffs:
                assert by_coeffs[v.coeffs] == f
            by_coeffs[v.coeffs] = f
            if f in by_float:
                assert by_float[f] == v.coeffs
            by_float[f] = v.coeffs


def test_is_below_with_rational_and_float_cutoffs():
    v = algebra.from_quantum_number(3, (1, 1, 1))  # ~5.1072
    assert algebra.is_below(v, Fraction(52, 10))
    assert not algebra.is_below(v, 5)
    assert algebra.is_below(v, 5.11)
    # an eigenvalue exactly at the cutoff is excluded
    assert not algebra.is_below(algebra.integer_value(1, 9), 9)


def test_text_form():
    assert algebra.from_quantum_number(4, (1, 1, 1, 1)).text() == "3 + 3*g^2"
    assert AlgebraicValue(3, (1, 2, 1)).text() == "1 + 2*g^1 + 1*g^2"
    assert algebra.zero(2).text() == "0"


def test_ordering_operators():
    a = algebra.integer_value(1, 4)
    b = algebra.integer_value(1, 5)
    assert a < b and b > a and a <= a and b >= b
    assert sorted([b, a]) == [a, b]


def test_huge_coefficients_fall_back_to_intervals():
    # 10**400 does not fit a double; the float fast path must not raise
    big = 10**400
    one2 = AlgebraicValue(2, (1,))
    assert algebra.compare(AlgebraicValue(2, (big,)), one2) == algebra.GREATER
    assert algebra.compare(AlgebraicValue(2, (-big,)), one2) == algebra.LESS
    assert not algebra.is_below(AlgebraicValue(1, (big,)), 5)
    assert algebra.is_below(AlgebraicValue(1, (5,)), Fraction(big))
    # ring 4 (t = sqrt 2): big - big*sqrt 2 nearly cancels its own terms
    zero4 = algebra.zero(4)
    assert algebra.compare(AlgebraicValue(4, (big, -big)), zero4) == algebra.LESS
    assert algebra.compare(AlgebraicValue(4, (-big, big)), zero4) == algebra.GREATER


def _assert_floor_root(x, r):
    y = algebra._iroot(x, r)
    assert y**r <= x < (y + 1) ** r, (x, r)


@pytest.mark.parametrize("p", [40, 64, 128, 256])
def test_iroot_is_the_floor_root_of_the_scaled_basis(p):
    # the largest entry of _scaled_basis(r, p), 2^((r-1)/r) * 2^p; every r
    # up to 800 at the two smaller p, and every 8th r at the larger ones,
    # whose checks cost tens of ms each near r = 800
    step = 1 if p <= 64 else 8
    for r in [*range(1, 801, step), 800]:
        _assert_floor_root(1 << (r - 1 + p * r), r)


@pytest.mark.parametrize("r", [400, 800])
def test_iroot_is_the_floor_root_of_every_scaled_basis_entry_at_p256(r):
    # about 2 * 10^5 bits at r = 800; j = 0 is an exact power, 2^256, and
    # j = r - 1 the largest entry
    for j in (0, 1, r // 2, r - 1):
        _assert_floor_root(1 << (j + 256 * r), r)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 1 << 2000), y=st.integers(2, 1 << 100), r=st.integers(1, 100))
def test_iroot_is_the_floor_root_of_random_integers(x, y, r):
    _assert_floor_root(x, r)
    # an exact power is its own root, and one less has the root below
    assert algebra._iroot(y**r, r) == y
    assert algebra._iroot(y**r - 1, r) == y - 1


def test_iroot_falls_back_when_the_float_estimate_is_low(monkeypatch):
    # an estimate far below the root must not be kept: Newton from below
    # would return it as the root
    low = types.SimpleNamespace(log2=lambda x: 0.0, floor=math.floor)
    monkeypatch.setattr(algebra, "math", low)
    for x, r in ((10**30, 2), (1 << 4000, 40), (3**500 - 1, 7)):
        _assert_floor_root(x, r)


def test_huge_pell_near_tie():
    # p^2 - 2 q^2 = 1 with p ~ 10^400: q*sqrt 2 - p is about -10^-400
    p, q = 3, 2
    while p < 10**400:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    assert p * p - 2 * q * q == 1
    zero4 = algebra.zero(4)
    assert algebra.compare(AlgebraicValue(4, (-p, q)), zero4) == algebra.LESS
    assert algebra.compare(AlgebraicValue(4, (p, -q)), zero4) == algebra.GREATER


def test_float_is_summed_left_to_right():
    # 4 + 2 * 2^(1/3) + 9 * 2^(2/3): a compensated sum (builtin sum() from
    # Python 3.12 on) rounds this to 20.80645156750354
    v = algebra.from_quantum_number(3, (2, 3, 1))
    assert v.coeffs == (4, 2, 9)
    assert float(v) == 20.806451567503544


# ---------------------------------------------------------------------------
# oracle: mpmath at 120 digits and more, on near-ties from continued fractions


@functools.lru_cache(maxsize=None)
def _convergents(r: int, j: int) -> tuple[tuple[int, int], ...]:
    """The first 40 continued-fraction convergents p/q of 2^(j/r); 300
    digits leave every partial quotient exact (q stays far below 10^100)."""
    with mpmath.workdps(300):
        x = mpmath.mpf(2) ** (mpmath.mpf(j) / r)
        h0, h1, k0, k1 = 0, 1, 1, 0
        out = []
        for _ in range(40):
            a = int(mpmath.floor(x))
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            out.append((h1, k1))
            x = 1 / (x - a)
    return tuple(out)


def _mp_sign(diff: tuple[int, ...], r: int) -> int:
    """Sign of sum(diff[j] * 2^(j/r)), at more digits until the sum clears
    the rounding error by ten orders of magnitude."""
    dps = 120
    while True:
        with mpmath.workdps(dps):
            terms = [d * mpmath.mpf(2) ** (mpmath.mpf(j) / r) for j, d in enumerate(diff)]
            total = mpmath.fsum(terms)
            if abs(total) > sum(map(abs, diff)) * mpmath.mpf(10) ** (10 - dps):
                return 1 if total > 0 else -1
        dps *= 2


@st.composite
def _near_tie(draw):
    """(r, diff): sum over j >= 1 of m_j (q_j t^j - p_j) for convergents p_j/q_j
    of t^j, times a scale up to 10^300; for r = 1, a nonzero integer."""
    r = draw(st.integers(1, 6))
    if r == 1:
        return 1, (draw(st.integers(-(10**400), 10**400).filter(bool)),)
    diff = [0] * r
    for j in range(1, r):
        m = draw(st.integers(-3, 3))
        p, q = _convergents(r, j)[draw(st.integers(0, 39))]
        diff[0] -= m * p
        diff[j] += m * q
    scale = draw(st.integers(1, 10**300))
    return r, tuple(d * scale for d in diff)


@settings(max_examples=300, deadline=None)
@given(_near_tie())
def test_compare_matches_mpmath_on_near_ties(case):
    r, diff = case
    assume(any(diff))
    n = r if r % 2 else 2 * r  # a ring whose basis has r elements
    want = _mp_sign(diff, r)
    assert algebra.compare(AlgebraicValue(n, diff), algebra.zero(n)) == want
    # the same sign as value - rational: (0, diff[1:]) against -diff[0]
    v = AlgebraicValue(n, (0,) + diff[1:])
    assert algebra.compare_with_rational(v, -diff[0]) == want
