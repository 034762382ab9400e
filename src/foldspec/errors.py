"""Exception types shared across the package."""


class FoldspecError(Exception):
    pass


class DomainError(FoldspecError, ValueError):
    """Input outside the declared domain of an operation."""


class DivisibilityError(FoldspecError, ArithmeticError):
    """Downscaling by gamma^2 left the ring Z[gamma^2]."""


class FoldParityError(FoldspecError, ValueError):
    """Folding requested for an odd (non-foldable) eigenvalue."""


class InvalidEigenvalueError(FoldspecError, ValueError):
    """Value is not a member of the relevant spectrum."""


class GridInstabilityError(FoldspecError, RuntimeError):
    """Grid nodal count did not stabilise after repeated doubling."""


class ConsistencyError(FoldspecError, RuntimeError):
    """A classification witness failed machine verification."""


class OutOfRangeError(FoldspecError, ValueError):
    """Query beyond the cutoff an index was built for."""
