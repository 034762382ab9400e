"""Exact arithmetic in Z[gamma^2], gamma = 2^(1/n).

An eigenvalue of the n-dimensional 2-rep-tile box lives in the ring
Z[gamma^2].  As a free Z-module this ring has basis {gamma^j} for odd n
and {gamma^(2j)} for even n; either way the basis elements are the powers
t^j, j = 0..r-1, of a single root t = 2^(1/r):

    n even:  r = n/2, t = gamma^2
    n odd :  r = n,   t = gamma
    n = 1 :  r = 1,   t = 2   (plain integers; the triangle's value ring,
                               where one gamma^2 step doubles the value)

Reduction uses t^r = 2, so coefficient vectors of length r are canonical:
two values are equal as reals iff their coefficient vectors are identical.

Order rests on the sign of sum d_j t^j, decided in Python ints alone (no
float, no precision state), for coefficients of any size: see
_sign_of_combination.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DivisibilityError, DomainError

LESS, EQUAL, GREATER = -1, 0, 1


# Most coefficients a value may have: one int64 coefficient row of this
# length fills qlattice.COLUMN_BUDGET (128 MiB).  basis_len refuses a wider
# ring, so no row, float or tuple of its length is ever built.
MAX_BASIS_LEN = 1 << 24


def basis_len(n: int) -> int:
    if n < 1:
        raise DomainError(f"ring dimension must be >= 1, got {n}")
    r = 1 if n == 1 else n if n % 2 else n // 2
    if r > MAX_BASIS_LEN:
        raise DomainError(
            f"ring n={n} needs {r} coefficients per value, over the budget of {MAX_BASIS_LEN}"
        )
    return r


def gamma2_steps(n: int) -> int:
    # number of t-shifts that make up one gamma^2 factor
    return 2 if (n % 2 and n > 1) else 1


@functools.lru_cache(maxsize=None)
def _basis_floats(r: int) -> tuple[float, ...]:
    return tuple(2.0 ** (j / r) for j in range(r))


def coeffs_float(coeffs: tuple[int, ...]) -> float:
    """float() of the value with these coefficients, without building it.

    Summed left to right in a loop: builtin sum() rounds differently from
    Python 3.12 on, and the printed floats must not depend on the version.
    Its error is within (r + 3) ulps of the same sum over |c| (a few roundings
    per term, one per addition); coefficients past 2^1024 have no double.
    """
    total = 0.0
    for c, b in zip(coeffs, _basis_floats(len(coeffs))):
        total += c * b
    return total


def coeffs_floats(rows: np.ndarray) -> np.ndarray:
    """coeffs_float of every row of an int64 coefficient matrix, bit for
    bit: the same products and sums in the same order, a column at a time."""
    total = np.zeros(len(rows))
    for c, b in zip(rows.T, _basis_floats(rows.shape[1])):
        total += c * b
    return total


@functools.lru_cache(maxsize=1024)
def text_template(n: int, nonzero: tuple[bool, ...]) -> str:
    """The %-template of coeffs_text for the coefficients that are nonzero
    where nonzero holds: one %d per such coefficient."""
    step = 2 if (n % 2 == 0 and n > 1) else 1  # g-exponent per index
    parts = ["%d" if j == 0 else f"%d*g^{j * step}" for j, nz in enumerate(nonzero) if nz]
    return " + ".join(parts) if parts else "0"


def coeffs_text(n: int, coeffs: tuple[int, ...]) -> str:
    """Canonical form "c0 + c1*g^e1 + ...", g = 2^(1/n), of the value with
    these coefficients, without building it."""
    try:
        return text_template(n, tuple(c != 0 for c in coeffs)) % tuple(c for c in coeffs if c)
    except ValueError:  # a coefficient past Python's int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"a coefficient passes Python's {limit}-digit int-to-str limit") from None


@dataclass(frozen=True)
class AlgebraicValue:
    """Element of Z[gamma^2] as an integer coefficient vector over {t^j}."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        r = basis_len(self.n)
        if len(self.coeffs) != r:
            raise DomainError(
                f"ring n={self.n} needs {r} coefficients, got {len(self.coeffs)}"
            )
        if not all(isinstance(c, int) for c in self.coeffs):
            raise DomainError("coefficients must be integers")

    def __float__(self) -> float:
        return coeffs_float(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def text(self) -> str:
        return coeffs_text(self.n, self.coeffs)

    def __str__(self) -> str:
        return self.text()

    # ordering delegates to the exact comparison below
    def __lt__(self, other: AlgebraicValue) -> bool:
        return compare(self, other) == LESS

    def __le__(self, other: AlgebraicValue) -> bool:
        return compare(self, other) != GREATER

    def __gt__(self, other: AlgebraicValue) -> bool:
        return compare(self, other) == GREATER

    def __ge__(self, other: AlgebraicValue) -> bool:
        return compare(self, other) != LESS


def integer_value(n: int, z: int) -> AlgebraicValue:
    """z * t^0 in the ring of dimension n."""
    r = basis_len(n)
    return AlgebraicValue(n, (z,) + (0,) * (r - 1))


def from_quantum_number(n: int, m: tuple[int, ...]) -> AlgebraicValue:
    """Eigenvalue sum((gamma^(j-1) m_j)^2) in canonical form.

    n = 1 is the triangle's integer ring: m is a pair and the value is
    m0^2 + m1^2.
    """
    if any(not isinstance(e, int) or e < 0 for e in m):
        raise DomainError(f"quantum number entries must be nonnegative integers: {m}")
    if n == 1 and len(m) != 2:
        raise DomainError("triangle quantum numbers are pairs")
    if n != 1 and len(m) != n:
        raise DomainError(f"expected {n} entries, got {len(m)}")
    return AlgebraicValue(n, tuple(coefficient_rows(n, np.array([m], dtype=object))[0].tolist()))


@functools.lru_cache(maxsize=None)
def _axis_slots(n: int) -> tuple[tuple[int, int], ...]:
    """(q, rem) per box axis j: gamma^(2j) = 2^q * t^rem (t^r = 2), so m_j^2
    adds m_j^2 << q to coefficient rem."""
    r = basis_len(n)
    return tuple(divmod(2 * j if n % 2 else j, r) for j in range(n))


def coefficient_rows(n: int, pts: np.ndarray) -> np.ndarray:
    """The eigenvalue coefficients of each row of a 2-d array of quantum
    numbers, one coefficient row per point, in the array's dtype: object
    rows of Python ints are exact, int64 entries must stay below 2^62."""
    sq = pts * pts
    if n == 1:
        return sq.sum(axis=1, keepdims=True)
    rows = np.zeros((len(pts), basis_len(n)), dtype=pts.dtype)
    for j, (q, rem) in enumerate(_axis_slots(n)):
        rows[:, rem] += sq[:, j] << q
    return rows


def parity(v: AlgebraicValue) -> str:
    """Parity of the coefficient multiplying gamma^0 = 1."""
    return "odd" if v.coeffs[0] % 2 else "even"


def scale_gamma2(v: AlgebraicValue, k: int) -> AlgebraicValue:
    """gamma^(2k) * v, exact; negative k requires divisibility."""
    r = len(v.coeffs)
    t = k * gamma2_steps(v.n)
    out = [0] * r
    for j, c in enumerate(v.coeffs):
        if c == 0:
            continue
        q, rem = divmod(j + t, r)
        if q >= 0:
            out[rem] += c << q
        else:
            if c % (1 << -q):
                raise DivisibilityError(
                    f"{v.text()} is not divisible by gamma^{-2 * k}"
                )
            out[rem] += c >> -q
    return AlgebraicValue(v.n, tuple(out))


def _iroot(x: int, r: int) -> int:
    """floor(x^(1/r)) for x >= 1, by Newton's method from above.

    The step z = ((r-1) y + x // y^(r-1)) // r from any y >= R = floor(x^(1/r))
    stays at or above R: it equals floor(((r-1) y + x / y^(r-1)) / r), and
    by the AM-GM inequality the mean inside is at least x^(1/r).  It moves
    down (z < y) unless x // y^(r-1) >= y, that is y^r <= x, that is y <= R;
    so the first y with z >= y is R, and the start must be at least R.  The
    start is the float estimate 2^(log2(x) / r), raised by a relative 2^-30
    (far above the float error at the sizes _scaled_basis asks for) and
    rounded up.  It is kept only if y^r > x, which makes y > x^(1/r) >= R
    whatever the float error; otherwise the start is 2^ceil(bit_length / r),
    whose r-th power is at least 2^bit_length > x.  From within 2^-30 of the
    root Newton converges quadratically; from up to twice the root, as the
    second start may be, only at the rate 1 - 1/r.
    """
    e = math.log2(x) / r
    q = max(0, int(e) - 60)  # 2^(e - q) < 2^61 has no float overflow
    y = (math.floor(2.0 ** (e - q) * (1 + 2.0**-30)) + 1) << q
    if y**r <= x:
        y = 1 << -(-x.bit_length() // r)
    while True:
        z = ((r - 1) * y + x // y ** (r - 1)) // r
        if z >= y:
            return y
        y = z


@functools.lru_cache(maxsize=None)
def _scaled_basis(r: int, p: int) -> tuple[int, ...]:
    """floor(2^(j/r) * 2^p) for j = 0..r-1: the integer r-th root of 2^(j + p*r)."""
    return tuple(_iroot(1 << (j + p * r), r) for j in range(r))


def _sign_of_combination(diff: tuple[int, ...], r: int) -> int:
    """Exact sign of S = sum(diff[j] * 2^(j/r)); diff must not be all zero.

    With F_j = floor(2^(j/r) * 2^p), A = sum(diff[j] * F_j) lies strictly
    within B = sum(|diff[j]|) of 2^p * S, so |A| > B fixes the sign of S.
    p starts at 64 and doubles until it does (terminates: the basis is
    linearly independent over Q, so S is a nonzero real).
    """
    bound = sum(map(abs, diff))
    p = 64
    while True:
        approx = sum(map(operator.mul, diff, _scaled_basis(r, p)))
        if abs(approx) > bound:
            return GREATER if approx > 0 else LESS
        p *= 2


def compare(a: AlgebraicValue, b: AlgebraicValue) -> int:
    """-1, 0 or +1; equality is decided by coefficient identity only."""
    if a.n != b.n:
        raise DomainError(f"cannot compare rings n={a.n} and n={b.n}")
    if a.coeffs == b.coeffs:
        return EQUAL
    diff = tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    return _sign_of_combination(diff, len(diff))


def compare_with_rational(v: AlgebraicValue, q: Fraction | int | float) -> int:
    """Exact sign of v - q for rational q (a finite float at its exact value)."""
    q = Fraction(q)
    den, num = q.denominator, q.numerator
    diff = tuple(c * den for c in v.coeffs)
    diff = (diff[0] - num,) + diff[1:]
    if all(d == 0 for d in diff):
        return EQUAL
    return _sign_of_combination(diff, len(diff))


def is_below(v: AlgebraicValue, cutoff: "AlgebraicValue | Fraction | int | float") -> bool:
    """v < cutoff, exactly (float cutoffs are taken at their exact binary value).

    With coefficients c_j >= 0, every basis element t^j lies in [1, 2), so
    s <= v < 2s for s = sum(c_j) > 0 (v = 0 for s = 0); a rational cutoff at
    or below s, or at or above 2s, is decided by that bound alone (Python
    compares ints with floats and Fractions exactly).
    """
    if isinstance(cutoff, AlgebraicValue):
        return compare(v, cutoff) == LESS
    if isinstance(cutoff, float) and not math.isfinite(cutoff):
        raise DomainError("cutoff must be finite")
    if min(v.coeffs) >= 0:
        s = sum(v.coeffs)
        if cutoff <= s:
            return False
        if cutoff >= 2 * s:
            return True
    return compare_with_rational(v, cutoff) == LESS
