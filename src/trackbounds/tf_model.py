"""Rational transfer functions evaluated along the imaginary axis.

Coefficient lists are real and ordered highest power first, matching the
written form of a transfer function. Phase is handled in radians inside the
package and unwrapped along a grid so it is continuous, anchored at the
lowest frequency; degrees appear only at file-format boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "RationalTF",
    "FrequencyGrid",
    "FrequencyResponse",
    "eval_poly",
    "freq_response",
    "roots",
    "dc_gain",
]


def _as_coeffs(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D coefficient list")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} coefficients must be finite")
    nonzero = np.nonzero(arr)[0]
    if nonzero.size == 0:
        return arr[-1:].copy()
    return arr[nonzero[0]:].copy()


@dataclass(frozen=True, eq=False)
class RationalTF:
    """Proper rational function num(s)/den(s), highest power first."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = _as_coeffs(self.num, "num")
        den = _as_coeffs(self.den, "den")
        if not np.any(den):
            raise ValueError("den must have a non-zero leading coefficient")
        if num.size > den.size:
            raise ValueError("improper function: numerator degree exceeds denominator degree")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def num_degree(self) -> int:
        return self.num.size - 1

    @property
    def den_degree(self) -> int:
        return self.den.size - 1


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing positive frequencies, rad/s."""

    omegas: np.ndarray

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if om.ndim != 1 or om.size < 2:
            raise ValueError("grid needs at least two frequencies")
        if not np.all(np.isfinite(om)) or np.any(om <= 0):
            raise ValueError("grid frequencies must be finite and positive")
        if np.any(np.diff(om) <= 0):
            raise ValueError("grid frequencies must be strictly increasing")
        object.__setattr__(self, "omegas", om.copy())

    def __len__(self) -> int:
        return self.omegas.size


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """Complex response samples over a grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if vals.shape != self.grid.omegas.shape:
            raise ValueError("response length must match grid length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("response values must be finite")
        object.__setattr__(self, "values", vals.copy())

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def phase(self) -> np.ndarray:
        """Unwrapped phase in radians, anchored at the lowest frequency."""
        return np.unwrap(np.angle(self.values))

    def __len__(self) -> int:
        return self.values.size


def eval_poly(coeffs, s):
    """Evaluate a real-coefficient polynomial at complex s by Horner's rule.

    Accepts a scalar or an ndarray of evaluation points; a scalar gives a
    Python complex, whose arithmetic callers such as cleanup rely on.
    """
    vals = np.polyval(_as_coeffs(coeffs, "coeffs"), np.asarray(s, dtype=complex))
    return complex(vals) if np.ndim(vals) == 0 else vals


def freq_response(tf: RationalTF, grid: FrequencyGrid) -> FrequencyResponse:
    """Sample tf at s = j*omega over the grid."""
    s = 1j * grid.omegas
    den_vals = eval_poly(tf.den, s)
    hits = np.nonzero(den_vals == 0)[0]
    if hits.size:
        raise NumericalError(
            f"denominator vanishes on the grid at omega = {float(grid.omegas[hits[0]])!r} rad/s"
        )
    return FrequencyResponse(grid, eval_poly(tf.num, s) / den_vals)


def roots(coeffs) -> np.ndarray:
    """All roots of the polynomial, via companion-matrix eigenvalues."""
    c = _as_coeffs(coeffs, "coeffs")
    if c.size < 2:
        raise ValueError("no roots: polynomial degree is zero")
    return np.roots(c)


def dc_gain(tf: RationalTF) -> float:
    """Value of tf at s = 0."""
    if tf.den[-1] == 0:
        raise ValueError("pole at origin: DC gain is unbounded")
    return float(tf.num[-1] / tf.den[-1])
