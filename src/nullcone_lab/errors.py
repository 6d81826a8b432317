"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class NullconeLabError(Exception):
    """Base class for all errors raised by this package."""


# -- coefficient domains ----------------------------------------------------

class NotPrime(NullconeLabError, ValueError):
    pass


class ReducibleModulus(NullconeLabError, ValueError):
    pass


class DegreeMismatch(NullconeLabError, ValueError):
    pass


class DivisionByZero(NullconeLabError, ZeroDivisionError):
    pass


class ContextMismatch(NullconeLabError, TypeError):
    pass


class RationalContext(NullconeLabError, TypeError):
    """A finite-field-only operation was applied to the rational context."""


# -- polynomials and matrices -----------------------------------------------

class DimensionMismatch(NullconeLabError, ValueError):
    pass


class NotInvertible(NullconeLabError, ValueError):
    pass


class ParseError(NullconeLabError, ValueError):
    pass


# -- groups and representations ---------------------------------------------

class CapExceeded(NullconeLabError, RuntimeError):
    """Closure grew past the configured cap (group infinite or too large)."""


class GroupMismatch(NullconeLabError, ValueError):
    pass


class NotPermutationAction(NullconeLabError, ValueError):
    pass


# -- invariant computations --------------------------------------------------

class CharDividesOrder(NullconeLabError, ValueError):
    pass


class CharDividesDegree(NullconeLabError, ValueError):
    pass


class NotFixedPoint(NullconeLabError, ValueError):
    pass


class VanishesAtPoint(NullconeLabError, ValueError):
    pass


class NotInvariantGenerator(NullconeLabError, ValueError):
    pass


class NotInvariantCandidate(NullconeLabError, ValueError):
    pass


class TooManyPoints(NullconeLabError, RuntimeError):
    pass


class TooManyColumns(NullconeLabError, RuntimeError):
    """An invariant space has more monomial columns than the cap."""


# -- constructions ------------------------------------------------------------

class WeightCollision(NullconeLabError, ValueError):
    pass


class SingularSpecialization(NullconeLabError, ValueError):
    pass


# -- command line -------------------------------------------------------------

class UnknownSuite(NullconeLabError, ValueError):
    pass


class BadParameter(NullconeLabError, ValueError):
    pass
