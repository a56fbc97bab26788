"""Exception types shared across the package."""

from __future__ import annotations


class KsnetError(Exception):
    """Base class for every library-raised error."""


class DomainError(KsnetError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(KsnetError, ValueError):
    """Network constants violate a structural bound."""


class InputError(KsnetError, ValueError):
    """Malformed external input: CSV rows, number literals, job configs."""


class CoincidentPoints(InputError):
    """Two points of one set are equal; `first` < `second` are their 0-based indices."""

    def __init__(self, first: int, second: int):
        super().__init__(f"points must be pairwise distinct; points {first} and {second} coincide")
        self.first, self.second = first, second


class PointError(DomainError):
    """Point `index` (0-based) of a batch failed; `reason` is the message of the failure."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"point {index}: {reason}")
        self.index, self.reason = index, reason


class OutsideCube(PointError):
    """Coordinate `axis` (1-based) of point `index` (0-based) is `value`, outside [0, 1]."""

    def __init__(self, index: int, axis: int, value):
        super().__init__(index, f"coordinate {axis} must lie in [0, 1], got {value}")
        self.axis, self.value = axis, value


class SeparationFailure(KsnetError):
    """The point set admits a closed path, so exact interpolation is unsolvable.

    witness holds one weight per point; the weighted branch equations cancel,
    first nonzero weight scaled to +1.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = None if witness is None else tuple(witness)


class AssemblyError(KsnetError, ValueError):
    """Model components are mutually inconsistent."""


class ModelFormatError(KsnetError, ValueError):
    """A model document failed to parse or validate.

    location is a dotted path into the document, when one is known.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class IterationDiverged(KsnetError):
    """The damped residual iteration let the residual grow."""


class InternalInvariantError(KsnetError):
    """A structural invariant failed inside the library; not a caller error."""
