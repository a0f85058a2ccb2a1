"""Closed forms for the subcritically damped second-order step response.

Everything here is exact arithmetic on the standard model
omega_n^2 / (s^2 + 2*zeta*omega_n*s + omega_n^2) with 0 < zeta < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count
from .tf_model import RationalTF

__all__ = [
    "SecondOrderParams",
    "zeta_min",
    "overshoot",
    "step_value",
    "make_tf",
    "scale_omega",
]


@dataclass(frozen=True)
class SecondOrderParams:
    """Natural frequency (rad/s) and damping ratio of one family member."""

    omega_n: float
    zeta: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_n) and self.omega_n > 0):
            raise ValueError("natural frequency must be positive")
        if not 0 < self.zeta < 1:
            raise ValueError("damping ratio must lie strictly inside (0, 1)")


def zeta_min(mp: float) -> float:
    """Smallest damping ratio whose peak overshoot does not exceed mp."""
    if not 0 < mp < 1:
        raise ValueError("overshoot must be a fraction in (0, 1)")
    r = math.log(mp) / math.pi
    return math.sqrt(r * r / (1 + r * r))


def overshoot(zeta: float) -> float:
    """Peak fractional overshoot of the unit step response."""
    if not 0 < zeta < 1:
        raise ValueError("damping ratio must lie strictly inside (0, 1)")
    return math.exp(-zeta * math.pi / math.sqrt(1 - zeta * zeta))


def step_value(params: SecondOrderParams, t):
    """Unit step response at time t (scalar or ndarray, t >= 0).

    1 - exp(-zeta*wn*t)/sqrt(1-zeta^2) * sin(wd*t + arccos(zeta)),
    with wd = wn*sqrt(1-zeta^2).
    """
    wn, z = params.omega_n, params.zeta
    root = math.sqrt(1 - z * z)
    t_arr = np.asarray(t, dtype=float)
    out = closed_form_step(-z * wn, root, wn * root, math.acos(z), t_arr)
    if t_arr.ndim == 0:
        return float(out)
    return out


def closed_form_step(decay, root, wd, phi, t):
    """1 - exp(decay*t)/root * sin(wd*t + phi), broadcast over all arguments.

    step_value with decay = -zeta*wn, root = sqrt(1-zeta^2), wd = wn*root and
    phi = arccos(zeta); arrays of those let many members share one call.
    """
    return 1.0 - np.exp(decay * t) / root * np.sin(wd * t + phi)


def make_tf(params: SecondOrderParams) -> RationalTF:
    """Unit-DC-gain transfer function of the member."""
    wn, z = params.omega_n, params.zeta
    return RationalTF([wn * wn], [1.0, 2 * z * wn, wn * wn])


def scale_omega(params: SecondOrderParams, i) -> SecondOrderParams:
    """Same damping, natural frequency multiplied by the integer i >= 1."""
    i = check_count(i, 1, "frequency multiplier")
    return SecondOrderParams(params.omega_n * i, params.zeta)
