"""Frequency-domain envelopes and endpoint-restricted bound selection.

The lower (upper) envelope of a curve family takes the pointwise minimum
(maximum) of magnitude and of phase independently, so it is a
conservative hull rather than the response of any single member; both
follow from the members' closed forms, without their complex responses.
The restricted modes instead pick whole members by their magnitude at one
end of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .family import WdTable, family_response, member_omega_ns
from .sos_core import make_tf, scale_omega
from .tf_model import FrequencyGrid, FrequencyResponse, RationalTF

__all__ = [
    "BoundPair",
    "make_grid",
    "envelope_of",
    "select_restricted",
]

_REL_TIE = 1e-12
# largest frequency grid; every output row and fit equation is per point
_MAX_GRID_POINTS = 10**5


@dataclass(frozen=True, eq=False)
class BoundPair:
    """Lower and upper bound transfer functions, both proper and stable."""

    lower: RationalTF
    upper: RationalTF

    def __post_init__(self):
        for name, tf in (("lower", self.lower), ("upper", self.upper)):
            if tf.poles.size and np.max(tf.poles.real) >= 0:
                raise ValueError(f"{name} bound must be strictly stable")


def make_grid(w_min: float, w_max: float, points: int) -> FrequencyGrid:
    """Logarithmically spaced grid including both endpoints."""
    if not (math.isfinite(w_min) and w_min > 0):
        raise ValueError("minimum frequency must be positive")
    if not (math.isfinite(w_max) and w_max > w_min):
        raise ValueError("maximum frequency must exceed the minimum")
    if points < 2:
        raise ValueError("grid needs at least two points")
    if points > _MAX_GRID_POINTS:
        raise NumericalError(f"{points} grid points are over the budget of {_MAX_GRID_POINTS}")
    return FrequencyGrid(np.logspace(math.log10(w_min), math.log10(w_max), int(points)))


def envelope_of(table: WdTable, wi: int,
                grid: FrequencyGrid) -> tuple[FrequencyResponse, FrequencyResponse]:
    """Pointwise lower and upper envelopes of the family's responses on the grid.

    Member (k, i) at omega is 1/(x + jy) with v = omega / (i * omega_n[k]),
    x = 1 - v^2 and y = 2 * zeta[k] * v > 0. Its magnitude 1/sqrt(x^2 + y^2)
    falls as x^2 + y^2 rises, and its phase -atan2(1, x/y) lies in (-pi, 0)
    and rises with x/y, so the extremes of those two quantities over the
    members give the magnitude and phase extremes per frequency, which are
    recombined into complex samples, the data a rational fit takes.
    """
    points = len(grid)
    wn = member_omega_ns(table, wi, points)
    # at most three family-sized float arrays; a member whose terms overflow
    # or underflow shows in the magnitude check below
    with np.errstate(all="ignore"):
        x = grid.omegas / wn
        y = x * (2 * table.zetas()[:, None])
        np.subtract(1.0, np.square(x, out=x), out=x)
        ratio = (x / y).reshape(-1, points)
        dist = np.add(np.square(x, out=x), np.square(y, out=y), out=x).reshape(-1, points)
        mags = 1.0 / np.sqrt([dist.max(axis=0), dist.min(axis=0)])
        phases = -np.arctan2(1.0, [ratio.min(axis=0), ratio.max(axis=0)])
    if not np.all(np.isfinite(mags) & (mags >= np.finfo(float).tiny)):
        raise NumericalError(f"envelope magnitudes from {float(mags.min())!r} to "
                             f"{float(mags.max())!r} are not all finite positive normal floats")
    return tuple(FrequencyResponse(grid, m * np.exp(1j * p)) for m, p in zip(mags, phases))


def select_restricted(table: WdTable, wi: int, grid: FrequencyGrid, end: str) -> BoundPair:
    """Pick whole members by magnitude at one end of the grid.

    The lower bound is the base-frequency (i = 1) member with the smallest
    magnitude at the chosen endpoint; the upper bound is the i = wi member
    with the largest.
    """
    if end not in ("low", "high"):
        raise ValueError('end must be "low" or "high"')
    omega = grid.omegas[0] if end == "low" else grid.omegas[-1]
    mags = np.abs(family_response(table, wi, [omega])[:, :, 0]).tolist()
    lower, upper = 0, 0
    # scan in zeta order: a later member replaces the pick only when it is
    # better by more than _REL_TIE, so near-ties keep the lower zeta
    for k in range(1, len(table.pairs)):
        if mags[0][k] < mags[0][lower] * (1 - _REL_TIE):
            lower = k
        if mags[-1][k] > mags[-1][upper] * (1 + _REL_TIE):
            upper = k
    return BoundPair(make_tf(table.pairs[lower]),
                     make_tf(scale_omega(table.pairs[upper], wi)))
