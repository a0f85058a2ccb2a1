"""Frequency-domain envelopes and endpoint-restricted bound selection.

The lower (upper) envelope of a curve family takes the pointwise minimum
(maximum) of magnitude and of unwrapped phase independently, so it is a
conservative hull rather than the response of any single member. The
restricted modes instead pick whole members by their magnitude at one end
of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .family import WdTable, family_response
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


def envelope_of(responses, grid: FrequencyGrid) -> tuple[FrequencyResponse, FrequencyResponse]:
    """Pointwise lower and upper envelopes of complex member responses.

    responses holds one response per member along its last axis, sampled
    on the grid, for instance the array family_response returns.
    Magnitude and unwrapped phase extremes are taken independently per
    frequency over all members and recombined into complex samples, the
    data a rational fit takes.
    """
    resp = np.asarray(responses, dtype=complex)
    if resp.ndim < 2 or resp.shape[-1] != len(grid):
        raise ValueError("responses must hold member rows sampled on the grid")
    resp = resp.reshape(-1, len(grid))
    if resp.shape[0] == 0:
        raise ValueError("at least one member is required")
    mag = np.abs(resp)
    mags = mag.min(axis=0), mag.max(axis=0)
    del mag  # one family-sized array at a time: freed before the phases
    phase = np.unwrap(np.angle(resp), axis=-1)
    phases = phase.min(axis=0), phase.max(axis=0)
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
