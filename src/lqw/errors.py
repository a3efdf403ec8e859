"""Exception types raised by the lqw package."""

__all__ = [
    "LqwError",
    "NormalizationError",
    "DegenerateMomentumError",
    "DomainError",
    "UnsupportedInitialStateError",
    "QuadratureError",
    "DegenerateSeriesError",
    "ComplexParseError",
]


class LqwError(Exception):
    """Base class for all lqw errors."""


class NormalizationError(LqwError, ValueError):
    """An amplitude vector that should have unit norm does not."""


class DegenerateMomentumError(LqwError, ValueError):
    """Closed-form eigen-system requested at a degenerate momentum (k=0)."""


class DomainError(LqwError, ValueError):
    """Argument lies outside the domain of a closed-form expression."""


class UnsupportedInitialStateError(LqwError, ValueError):
    """Operation defined only for the two-component (left/right) initial states."""


class QuadratureError(LqwError, RuntimeError):
    """Quadrature refinement failed to reach the requested tolerance."""


class DegenerateSeriesError(LqwError, ValueError):
    """Power-law fit requested on a constant series."""


class ComplexParseError(LqwError, ValueError):
    """Complex literal did not match the accepted grammar."""

    def __init__(self, text: str, position: int, expected: str):
        self.text = text
        self.position = position
        self.expected = expected
        super().__init__(
            f"cannot parse complex literal {text!r} at position {position}: "
            f"expected {expected}"
        )
