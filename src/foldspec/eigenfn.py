"""Closed-form eigenfunctions: evaluation, symmetry, folding, frame vanishing.

Basis functions:

  triangle Neumann    cos(m x) cos(n y) + cos(m y) cos(n x)
  triangle Dirichlet  sin(m x) sin(n y) - sin(n x) sin(m y)
  box Neumann         prod_j cos(gamma^(j-1) m_j x_j)
  box Dirichlet       prod_j sin(gamma^(j-1) m_j x_j)

A combo is a finite real linear combination over one eigenspace.  Values
are floats; reflection symmetry and frame vanishing are decided exactly
from the quantum numbers, by the reflection's action on the product terms
and by a rational test per frame facet.  Evaluation, counting, symmetry
and (un)folding read no eigenvalue: a combo computes its eigenvalue when it
is read, or to check that several terms share it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import folding
from .algebra import AlgebraicValue
from .domains import NEUMANN, TRIANGLE, Domain, check_point, check_qn, eigenvalue
from .errors import DomainError
from .folding import Segment, Slab
from .qlattice import QN
from .spectrum import odd_core


@dataclass(frozen=True)
class Combo:
    domain: Domain
    terms: tuple[tuple[float, QN], ...]

    @functools.cached_property
    def value(self) -> AlgebraicValue:
        """The eigenvalue, which every term shares (see combo)."""
        return eigenvalue(self.domain, self.terms[0][1])


def combo(domain: Domain, terms) -> Combo:
    """Build a combination, verifying finite coefficients, a nonzero term
    and, when there are several terms, a shared eigenvalue."""
    checked = []
    for c, m in terms:
        m = check_qn(domain, m)
        try:
            c = float(c)
        except OverflowError:  # an int past the float range
            c = math.inf
        if not math.isfinite(c):
            raise DomainError(f"the coefficient of term {m} is not a finite float: {c}")
        checked.append((c, m))
    terms = tuple(checked)
    if not terms or all(c == 0.0 for c, _ in terms):
        raise DomainError("combo needs at least one nonzero coefficient")
    if len(terms) > 1 and len({eigenvalue(domain, m).coeffs for _, m in terms}) > 1:
        raise DomainError(f"terms do not share one eigenvalue: {terms}")
    return Combo(domain, terms)


def basis_fn(domain: Domain, m: QN) -> Combo:
    return combo(domain, [(1.0, tuple(m))])


def _product_qns(f: Combo):
    """(c, m) of each trig product of f: each term and, on the triangle, the
    term with x and y swapped, whose sign flips under Dirichlet."""
    for c, m in f.terms:
        yield c, m
        if f.domain.kind == TRIANGLE:
            yield (c if f.domain.bc == NEUMANN else -c), m[::-1]


def product_terms(f: Combo) -> list[tuple[float, tuple[float, ...]]]:
    """Expand to a plain sum of trig products: (coefficient, per-axis
    frequencies).  A quantum number with a frequency past the float range
    is refused, since none of its samples would be a number."""
    out: list[tuple[float, tuple[float, ...]]] = []
    g = 1.0 if f.domain.kind == TRIANGLE else 2.0 ** (1.0 / f.domain.n)  # l_j = pi / g^j
    for c, m in _product_qns(f):
        try:
            freqs = tuple(g**j * mj for j, mj in enumerate(m))
        except OverflowError:  # an int past the float range
            freqs = (math.inf,)
        if math.inf in freqs:
            raise DomainError(f"the frequencies of {m} pass the float range of the evaluation")
        out.append((c, freqs))
    return out


def trig(f: Combo):
    """The factor of every axis: cos under Neumann, sin under Dirichlet."""
    return np.cos if f.domain.bc == NEUMANN else np.sin


def eval_at(f: Combo, p: tuple[float, ...]) -> float:
    """Pointwise value; p must lie in the closed domain."""
    check_point(f.domain, p)
    return float(eval_points(f, np.array([p]))[0])


def eval_points(f: Combo, pts: np.ndarray) -> np.ndarray:
    """Vectorised evaluation at an (N, dim) array of points."""
    wave = trig(f)
    total = np.zeros(len(pts))
    for c, freqs in product_terms(f):
        term = np.full(len(pts), c)
        for j, w in enumerate(freqs):
            term *= wave(w * pts[:, j])
        total += term
    return total


def eval_on_axes(f: Combo, axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Evaluate on the tensor grid axes[0] x axes[1] x ...; no domain mask."""
    wave = trig(f)
    total = np.zeros(tuple(len(a) for a in axes))
    for c, freqs in product_terms(f):
        # ((c * v0) * v1) * ... element by element, as a broadcast product
        # would round it, without a full array of c to start from
        v0, *rest = (wave(w * ax) for w, ax in zip(freqs, axes))
        total += functools.reduce(np.multiply.outer, rest, c * v0)
    return total


def normalised_terms(f: Combo) -> dict[QN, float]:
    """f as a sum of c * prod_j trig(pi k_j t_j), keyed by the integer
    frequency vector k, in normalised coordinates: t = x / pi on the
    triangle, t_j = x_j / l_j on the box (so k is the box quantum number).
    Terms that cancel are dropped."""
    out: dict[QN, float] = {}
    for c, k in _product_qns(f):
        out[k] = out.get(k, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


def symmetry_check(f: Combo) -> str:
    """"even", "odd" or "neither" with respect to the reflection R across L.

    Exact, from R's action on the product terms of normalised_terms.  On
    the triangle R(t) = (1 - t_y, 1 - t_x), and trig(pi k (1 - t)) is
    (-1)^k cos(pi k t) for cos and -(-1)^k sin(pi k t) for sin, so R swaps
    the frequencies of a term and multiplies it by (-1)^(k_x + k_y).  On the
    box R changes t_1 to 1 - t_1 only, so it keeps every term and multiplies
    it by (-1)^(k_1), and by -1 more under Dirichlet.  f is even when R f
    equals f term by term and odd when it equals -f.
    """
    terms = normalised_terms(f)
    reflected = {}
    for k, c in terms.items():
        if f.domain.kind == TRIANGLE:
            reflected[k[::-1]] = c * (-1) ** (k[0] + k[1])
        else:
            sign = (-1) ** k[0]
            reflected[k] = c * (sign if f.domain.bc == NEUMANN else -sign)
    if reflected == terms:
        return "even"
    if reflected == {k: -c for k, c in terms.items()}:
        return "odd"
    return "neither"


def unfold_fn(f: Combo) -> Combo:
    """Unfolded combo: quantum numbers mapped, coefficients carried over."""
    if f.domain.bc != NEUMANN:
        raise DomainError("function unfolding is defined for the Neumann problem")
    return combo(f.domain, [(c, folding.unfold_qn(f.domain, m)) for c, m in f.terms])


def fold_fn(f: Combo) -> Combo:
    """Folded combo; requires an even eigenvalue, whose parity is each
    member's lattice parity: folding.fold_qn names an odd member."""
    if f.domain.bc != NEUMANN:
        raise DomainError("function folding is defined for the Neumann problem")
    return combo(f.domain, [(c, folding.fold_qn(f.domain, m)) for c, m in f.terms])


def _odd(x: Fraction) -> bool:
    return x.denominator == 1 and x.numerator % 2 == 1


def vanishes_on(domain: Domain, m: QN, facet: Segment | Slab) -> bool:
    """Whether the Neumann basis function of m vanishes on a frame facet.

    Exact, in Fractions: cos(pi w c) = 0 iff 2 w c is an odd integer, and
    cosines of distinct frequencies are linearly independent on every
    segment.  A box facet {t_j = q} meets one factor, cos(pi m_j q).  A
    triangle facet lies on a line x, y, x + y or x - y = c (units of pi).  On
    x = c the function is cos(pi a c) cos(b y) + cos(pi b c) cos(a y), so it
    vanishes iff the cosine at c of each distinct frequency in {a, b} does.
    With s = x + y and d = x - y it is cos(P s) cos(Q d) + cos(P d) cos(Q s),
    P = (a + b)/2 and Q = (a - b)/2, and the same holds on s = c and d = c
    with the frequencies {P, |Q|}.
    """
    if domain.kind != TRIANGLE:
        return _odd(2 * m[facet.axis] * facet.frac)
    (ax, ay), (bx, by) = facet.a, facet.b
    a, b = m
    if ax == bx or ay == by:
        c = ax if ax == bx else ay
        freqs = {Fraction(a), Fraction(b)}
    else:
        c = ax + ay if bx - ax == ay - by else ax - ay
        freqs = {Fraction(a + b, 2), Fraction(abs(a - b), 2)}
    return all(_odd(2 * w * c) for w in freqs)


def frame_vanishing(f: Combo) -> tuple[QN, Segment | Slab] | None:
    """The first (member, facet) of f where the member does not vanish, or
    None when every member vanishes on every facet of the k-frame, k the
    unfolding depth of f's eigenvalue, and then f with them by linearity.
    Exact (see vanishes_on); Neumann only."""
    if f.domain.bc != NEUMANN:
        raise DomainError("frame vanishing is defined for the Neumann problem")
    frame = folding.build_frame(f.domain, odd_core(f.value).k)
    for _, m in f.terms:
        for facet in frame.facets:
            if not vanishes_on(f.domain, m, facet):
                return m, facet
    return None
