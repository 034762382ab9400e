"""Domain and boundary-condition tags, quantum-number validity, eigenvalues.

Two families are supported:

  * the isosceles right triangle D = {(x, y) in [0, pi]^2 : y <= x},
    eigenvalues m^2 + n^2 (plain integers, ring dimension 1);
  * the n-dimensional 2-rep-tile box with edge lengths l_j = pi / gamma^(j-1),
    gamma = 2^(1/n), eigenvalues sum((gamma^(j-1) m_j)^2) in Z[gamma^2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import algebra
from .algebra import AlgebraicValue
from .errors import DomainError

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

TRIANGLE = "triangle"
BOX = "box"


@dataclass(frozen=True)
class Domain:
    kind: str
    n: int
    bc: str = NEUMANN

    def __post_init__(self) -> None:
        if self.kind not in (TRIANGLE, BOX):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.bc not in (NEUMANN, DIRICHLET):
            raise DomainError(f"unknown boundary condition {self.bc!r}")
        if self.kind == BOX and self.n < 2:
            raise DomainError("box dimension must be >= 2")
        if self.kind == TRIANGLE and self.n != 2:
            raise DomainError("the triangle is planar")

    @property
    def ring(self) -> int:
        """Ring dimension tag for AlgebraicValue (1 = integers)."""
        return 1 if self.kind == TRIANGLE else self.n

    @property
    def coords(self) -> int:
        return self.n

    def edge_lengths(self) -> tuple[float, ...]:
        if self.kind == TRIANGLE:
            return (math.pi, math.pi)
        g = 2.0 ** (1.0 / self.n)
        return tuple(math.pi / g**j for j in range(self.n))

    def label(self) -> str:
        base = TRIANGLE if self.kind == TRIANGLE else f"box{self.n}"
        return f"{base}-{self.bc}"


def triangle(bc: str = NEUMANN) -> Domain:
    return Domain(TRIANGLE, 2, bc)


def box(n: int, bc: str = NEUMANN) -> Domain:
    return Domain(BOX, n, bc)


def is_valid_qn(domain: Domain, m: tuple[int, ...]) -> bool:
    if len(m) != domain.coords or any(not isinstance(e, int) for e in m):
        return False
    if domain.kind == TRIANGLE:
        if domain.bc == NEUMANN:
            return m[0] >= m[1] >= 0
        return m[0] > m[1] >= 1
    low = 0 if domain.bc == NEUMANN else 1
    return all(e >= low for e in m)


def check_qn(domain: Domain, m: tuple[int, ...]) -> tuple[int, ...]:
    m = tuple(m)
    if not is_valid_qn(domain, m):
        raise DomainError(f"{m} is not a {domain.label()} quantum number")
    return m


def eigenvalue(domain: Domain, m: tuple[int, ...]) -> AlgebraicValue:
    return algebra.from_quantum_number(domain.ring, check_qn(domain, m))


def qn_parity(domain: Domain, m: tuple[int, ...]) -> str:
    """Lattice-side parity: triangle m != n (mod 2) is odd, box m_1 odd is odd."""
    if domain.kind == TRIANGLE:
        return "odd" if (m[0] - m[1]) % 2 else "even"
    return "odd" if m[0] % 2 else "even"


def check_point(domain: Domain, p: tuple[float, ...]) -> None:
    """Refuse a point of the wrong arity or outside the closed domain (to 1e-9)."""
    if len(p) != domain.coords:
        raise DomainError(
            f"point {p} has {len(p)} coordinates; the {domain.label()} domain "
            f"takes {domain.coords}"
        )
    tol = 1e-9
    if domain.kind == TRIANGLE:
        x, y = p
        inside = -tol <= y <= x + tol and x <= math.pi + tol
    else:
        inside = all(-tol <= xj <= lj + tol for xj, lj in zip(p, domain.edge_lengths()))
    if not inside:
        raise DomainError(f"point {p} outside the {domain.label()} domain")
