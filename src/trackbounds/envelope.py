"""Frequency-domain envelopes and endpoint-restricted bound selection.

The lower (upper) envelope of a curve family takes the pointwise minimum
(maximum) of magnitude and of phase independently, so it is a
conservative hull rather than the response of any single member. The
restricted modes instead pick whole members by their magnitude at one end
of the grid. Both read the members' closed forms from family.member_terms,
without their complex responses: the envelopes keep running extremes over
the family's member blocks, and the restricted modes read only the two
multipliers they pick from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_count
from .family import WdTable, member_blocks, member_terms
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
    points = check_count(points, 2, "grid point count")
    if points > _MAX_GRID_POINTS:
        raise NumericalError(f"{points} grid points are over the budget of {_MAX_GRID_POINTS}")
    return FrequencyGrid(np.logspace(math.log10(w_min), math.log10(w_max), points))


def _check_magnitudes(what: str, mags: np.ndarray) -> np.ndarray:
    """The magnitudes, if each is a finite positive normal float."""
    if not np.all(np.isfinite(mags) & (mags >= np.finfo(float).tiny)):
        raise NumericalError(f"{what} magnitudes from {float(mags.min())!r} to "
                             f"{float(mags.max())!r} are not all finite positive normal floats")
    return mags


def envelope_of(table: WdTable, wi: int,
                grid: FrequencyGrid) -> tuple[FrequencyResponse, FrequencyResponse]:
    """Pointwise lower and upper envelopes of the family's responses on the grid.

    Each member is 1/(x + jy) in the terms of member_terms, with y > 0. Its
    magnitude 1/sqrt(x^2 + y^2) falls as x^2 + y^2 rises, and its phase
    -atan2(1, x/y) lies in (-pi, 0) and rises with x/y, so the extremes of
    those two quantities over the members give the magnitude and phase
    extremes per frequency, which are recombined into complex samples, the
    data a rational fit takes.
    """
    points = len(grid)
    blocks = member_blocks(table, wi, grid.omegas)
    # running minima and maxima of x^2 + y^2 and x/y over the member blocks;
    # minimum and maximum select exact values, so they are the family's own
    lows, highs = np.full((2, points), np.inf), np.full((2, points), -np.inf)
    # a member whose terms overflow or underflow shows in the magnitude
    # check below
    with np.errstate(all="ignore"):
        for block in blocks:
            x, y = member_terms(table, block, grid.omegas)
            ratio = (x / y).reshape(-1, points)
            dist = np.add(np.square(x, out=x), np.square(y, out=y), out=x).reshape(-1, points)
            np.minimum(lows, [dist.min(axis=0), ratio.min(axis=0)], out=lows)
            np.maximum(highs, [dist.max(axis=0), ratio.max(axis=0)], out=highs)
            del x, y, ratio, dist  # freed before the next block's are made
        mags = 1.0 / np.sqrt([highs[0], lows[0]])
        phases = -np.arctan2(1.0, [lows[1], highs[1]])
    _check_magnitudes("envelope", mags)
    return tuple(FrequencyResponse(grid, m * np.exp(1j * p)) for m, p in zip(mags, phases))


def select_restricted(table: WdTable, wi: int, grid: FrequencyGrid, end: str) -> BoundPair:
    """Pick whole members by magnitude at one end of the grid.

    The lower bound is the base-frequency (i = 1) member with the smallest
    magnitude at the chosen endpoint; the upper bound is the i = wi member
    with the largest. A member magnitude there that is not a finite
    positive normal float raises NumericalError.
    """
    if end not in ("low", "high"):
        raise ValueError('end must be "low" or "high"')
    omega = grid.omegas[0] if end == "low" else grid.omegas[-1]
    member_blocks(table, wi, [omega])  # checks wi and the family's budget
    x, y = member_terms(table, sorted({1, wi}), [omega])
    with np.errstate(all="ignore"):
        mags = _check_magnitudes("member", (1.0 / np.sqrt(x * x + y * y))[:, :, 0]).tolist()
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
