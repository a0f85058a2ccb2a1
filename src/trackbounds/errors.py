"""Exception taxonomy shared across the package.

Input validation raises plain ValueError. NumericalError marks failures of
the numerical machinery itself (divergent iterations, degenerate systems,
unsimulatable models) so callers can tell the two apart.
"""

from numbers import Integral

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


def check_count(value, least: int, what: str) -> int:
    """value as an int if it is an integer, not a bool, and >= least; else ValueError."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}")
    return int(value)
