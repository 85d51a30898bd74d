"""Exception types shared across the package."""

from __future__ import annotations


class GeonetsError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEdge(GeonetsError):
    """Two points are too close to define a direction."""


class DomainError(GeonetsError):
    """An argument left the mathematical domain of an operation."""


class BracketFailure(GeonetsError):
    """Root bracketing failed; the target function does not change sign."""


class SingularDenominator(GeonetsError):
    """A length formula's denominator is too close to zero."""


class NoFermatPoint(GeonetsError):
    """Triangle has an interior angle of 2*pi/3 or more."""


class ParallelLines(GeonetsError):
    """Line intersection requested for (near-)parallel lines."""


class IdMismatch(GeonetsError):
    """Two point maps do not share the same id set."""


class DegenerateConfiguration(GeonetsError):
    """Point set too small or collinear for rigid alignment."""


class UnknownVertex(GeonetsError):
    """Vertex id not present in the net."""


class ClosureFailure(GeonetsError):
    """Polygon traversal failed to return to its start."""


class UnsupportedFamily(GeonetsError):
    """Requested net family/order combination is not generated."""


class NoTrace(GeonetsError):
    """Trace frames requested but none were recorded."""


class SearchBudgetExceeded(GeonetsError):
    """Irreducibility search ran out of nodes before reaching a verdict."""


class ParseError(GeonetsError):
    """Net file is malformed."""


class InvariantViolation(GeonetsError):
    """Net file parsed but violates a structural invariant."""


class IoError(GeonetsError):
    """Failed to write an output file."""
