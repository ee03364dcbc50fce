"""Domain errors shared across the package."""


class AlgebraError(ValueError):
    """Base class for domain violations in algebraic operations."""


class OrderMismatchError(AlgebraError):
    """Operands live in Grassmann algebras of different order."""


class ShapeMismatchError(AlgebraError):
    """Matrix or vector shapes are incompatible."""


class ParityError(AlgebraError):
    """A coefficient violates the required even/odd grading pattern."""


class SingularBodyError(AlgebraError):
    """Numerically singular body, from inverse, log, det and sdet."""


class NotInvertibleError(AlgebraError):
    """A matrix whose body is (numerically) singular cannot be inverted."""


class LogDomainError(AlgebraError):
    """Argument lies outside the convergence domain of the logarithm."""


class CapExceededError(AlgebraError):
    """A strict-mode product would exceed the fermionic degree cap."""


class MembershipError(AlgebraError):
    """Argument fails a group, algebra, subspace or supersphere membership test."""
