"""Shared exception types.

Every failure mode raised by this package is one of the classes below, so
callers (and the CLI) can map errors to exit codes without string matching.
"""

from __future__ import annotations


class ScaleFieldError(Exception):
    """Base class for all errors raised by this package."""


class ZeroScaling(ScaleFieldError):
    """A scaling factor or field value of zero was supplied or produced."""


class ZeroLevel(ScaleFieldError):
    """A structure level of zero was supplied."""


class NotInBaseSet(ScaleFieldError):
    """A base number does not belong to the structure's base set."""


class NotRepresentable(ScaleFieldError):
    """A value has no preimage in the structure's base set."""


class DivisionByZero(ScaleFieldError):
    """Multiplicative inverse of the scaled zero was requested."""


class OrderUndefined(ScaleFieldError):
    """Order comparison requested where no order relation exists."""


class OutOfBounds(ScaleFieldError):
    """A point lies outside the manifold bounds."""


class BoundaryPoint(ScaleFieldError):
    """A stencil operation was requested too close to the boundary."""


class ZeroCoupling(ScaleFieldError):
    """A transform requires dividing by a coupling constant that is zero."""


class DegenerateParameterization(ScaleFieldError):
    """A path has a vanishing tangent everywhere."""


class ScenarioParseError(ScaleFieldError):
    """Scenario input is structurally malformed (syntax, keys, types)."""


class ScenarioValidationError(ScaleFieldError):
    """Scenario input is well-formed but semantically inconsistent."""


class IoError(ScaleFieldError):
    """A result file could not be written."""


class NonFiniteResult(ScaleFieldError):
    """A task's results hold inf or NaN."""
