"""Time-domain metrics: crossing solvers, rise and settling times.

Crossings of the closed-form step response are solved by fifth-order Newton
forward-difference inverse interpolation on six equally spaced samples: the
interpolating quintic is inverted by Newton-Raphson from the secant
estimate, and the sampling is refined until two successive estimates agree.
A grid level whose Newton-Raphson iteration diverges, or whose estimate
leaves the six-sample window, contributes no estimate and the next halving
is tried, so every result is a converged Newton solution inside a window
bracketing the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .sos_core import SecondOrderParams, step_value

__all__ = [
    "ToleranceBand",
    "TimeDomainMetrics",
    "newton_inverse_interp",
    "unit_rise_time",
    "unit_settling_time",
    "omega_n_for",
    "settled_final_value",
    "extract_metrics",
]

# Newton-Raphson on the normalized abscissa u: stop when a step is this small
_NR_TOL = 1e-10
_NR_MAXIT = 100
# outer grid refinement: stop when consecutive halvings agree this closely.
# Looser, two coarse levels can agree while sharing one interpolation error:
# at 1e-6 the rise time near zeta = 0.6 was off by 2.5e-7
_REFINE_TOL = 1e-8
# the last level samples 5 * 2**19 + 1 points; the unit step responses'
# crossings need at most 13 levels for zeta in [1e-4, 0.99999]
_REFINE_MAX_LEVELS = 20


@dataclass(frozen=True)
class ToleranceBand:
    """Settlement band final*(1 +/- dev)."""

    dev: float

    def __post_init__(self):
        if not 0 < self.dev < 1:
            raise ValueError("tolerance band must be a fraction in (0, 1)")


@dataclass(frozen=True)
class TimeDomainMetrics:
    """Overshoot fraction, rise time, settling time, final value."""

    mp: float
    tr: float
    ts: float
    final_value: float

    def __post_init__(self):
        if self.mp < 0:
            raise ValueError("overshoot fraction cannot be negative")
        if self.tr < 0 or self.ts < 0:
            raise ValueError("rise and settling times cannot be negative")


def newton_inverse_interp(times, values, target: float) -> float:
    """Solve f(t) = target from six equally spaced (t, f) samples.

    Builds the fifth-order Newton forward-difference polynomial and inverts
    it by Newton-Raphson on the normalized abscissa u, starting from the
    secant estimate; the derivative is accumulated in the same product loop
    as the value. Raises NumericalError if the iteration fails to settle
    within 100 steps.
    """
    if np.shape(times) != (6,) or np.shape(values) != (6,):
        raise ValueError("exactly six samples are required")
    t = [float(x) for x in times]
    f = [float(x) for x in values]
    h = t[1] - t[0]
    # every spacing within atol + rtol*|h| of h, with rtol = 1e-9 and
    # atol = 1e-12*max(1, |h|); a NaN spacing fails the test
    tol = 1e-12 * max(1.0, abs(h)) + 1e-9 * abs(h)
    if not h > 0 or not all(abs((b - a) - h) <= tol for a, b in zip(t, t[1:])):
        raise ValueError("samples must be equally spaced in time")
    if not (min(f) <= target <= max(f)):
        raise ValueError("target is not bracketed by the samples")

    # forward differences of increasing order, taken at the first sample
    diffs = [f[0]]
    col = f
    for _ in range(5):
        col = [b - a for a, b in zip(col, col[1:])]
        diffs.append(col[0])
    if diffs[1] == 0:
        raise NumericalError("inverse interpolation diverged: flat first difference")

    u = (target - diffs[0]) / diffs[1]
    for _ in range(_NR_MAXIT):
        # p(u) - target and p'(u), with the basis prod_{i<k} (u - i) / k!
        g = diffs[0] - target
        dg = 0.0
        prod = 1.0
        dprod = 0.0
        fact = 1.0
        for k in range(1, 6):
            dprod = dprod * (u - (k - 1)) + prod
            prod *= u - (k - 1)
            fact *= k
            g += prod / fact * diffs[k]
            dg += dprod / fact * diffs[k]
        if dg == 0:
            raise NumericalError("inverse interpolation diverged: flat interpolant")
        step = g / dg
        u -= step
        if not math.isfinite(u) or abs(u) > 1e6:
            raise NumericalError("inverse interpolation diverged")
        if abs(step) < _NR_TOL:
            return t[0] + u * h
    raise NumericalError("inverse interpolation diverged")


def _refined_crossing(f, lo: float, hi: float, target: float) -> float:
    """Crossing of target on [lo, hi] where f is monotone through it."""
    prev = None
    for level in range(_REFINE_MAX_LEVELS):
        n = 5 * 2**level + 1  # each level halves the sample spacing
        # samples are placed by their offset from lo: far from t = 0 the
        # absolute times round unequally and fail the equal-spacing check
        ds = np.linspace(0.0, hi - lo, n)
        fs = f(lo + ds)
        sign = 1.0 if fs[-1] >= fs[0] else -1.0
        j = int(np.searchsorted(sign * fs, sign * target))
        w = min(max(j - 3, 0), n - 6)
        # a level whose Newton solve fails, or lands outside the six samples
        # around the crossing, records no estimate: the next level retries
        try:
            d_hat = newton_inverse_interp(ds[w:w + 6], fs[w:w + 6], target)
        except (ValueError, NumericalError):
            continue
        if not ds[w] <= d_hat <= ds[w + 5]:
            continue
        t_hat = lo + d_hat
        if prev is not None and abs(t_hat - prev) < _REFINE_TOL:
            return float(t_hat)
        prev = t_hat
    raise NumericalError("crossing search did not converge")


def _unit_step(zeta: float):
    params = SecondOrderParams(1.0, zeta)
    return lambda t: step_value(params, t)


def unit_rise_time(zeta: float) -> float:
    """10%-90% rise time of the unit-frequency step response."""
    if not 0 < zeta < 1:
        raise ValueError("damping ratio must lie strictly inside (0, 1)")
    f = _unit_step(zeta)
    t_peak = math.pi / math.sqrt(1 - zeta * zeta)
    t10 = _refined_crossing(f, 0.0, t_peak, 0.1)
    t90 = _refined_crossing(f, 0.0, t_peak, 0.9)
    return t90 - t10


def unit_settling_time(zeta: float, band: ToleranceBand) -> float:
    """Last entry of the unit-frequency step response into the band.

    The response extrema sit at t_k = k*pi/wd where the deviation from the
    final value equals exp(-zeta*t_k) exactly, so the final band-exceeding
    lobe is located by scanning k and the crossing is solved inside it.
    """
    if not 0 < zeta < 1:
        raise ValueError("damping ratio must lie strictly inside (0, 1)")
    dev = band.dev
    wd = math.sqrt(1 - zeta * zeta)

    k = max(0, math.ceil(wd * math.log(1.0 / dev) / (zeta * math.pi)) - 1)
    while k > 0 and math.exp(-zeta * k * math.pi / wd) <= dev:
        k -= 1

    t_lo = k * math.pi / wd
    t_hi = ((k + 1) * math.pi - math.acos(zeta)) / wd
    target = 1.0 - dev if k % 2 == 0 else 1.0 + dev
    return _refined_crossing(_unit_step(zeta), t_lo, t_hi, target)


def omega_n_for(zeta: float, tr_spec: float, ts_spec: float, band: ToleranceBand) -> float:
    """Smallest natural frequency meeting both timing requirements.

    Rise and settling times scale as 1/omega_n, so the binding requirement
    is whichever ratio of unit-frequency time to specified time is larger.
    """
    if not tr_spec > 0:
        raise ValueError("rise time specification must be positive")
    if not ts_spec > 0:
        raise ValueError("settling time specification must be positive")
    return max(unit_rise_time(zeta) / tr_spec,
               unit_settling_time(zeta, band) / ts_spec)


def settled_final_value(values, band: ToleranceBand) -> float | None:
    """Final value of a step trace, or None while the trace is unsettled.

    The final value is the mean of the last 5% of samples; the trace is
    settled when every sample in its final 10% lies inside the band around
    it. A final value <= 0 cannot settle into a band and raises
    NumericalError.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    final = float(np.mean(y[-max(1, round(0.05 * n)):]))
    if not final > 0:
        raise NumericalError(f"degenerate final value {final!r}: the response is not positive")
    tail = y[-max(1, round(0.10 * n)):]
    if np.any(np.abs(tail - final) > band.dev * final):
        return None
    return final


def extract_metrics(times, values, band: ToleranceBand) -> TimeDomainMetrics:
    """Measure mp, tr, ts and the final value of a uniformly sampled trace.

    The trace must already be settled by the rule of settled_final_value.
    Crossings are located by linear interpolation between samples.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or t.size < 20:
        raise ValueError("trace must be two matching 1-D arrays with at least 20 samples")

    try:
        final = settled_final_value(y, band)
    except NumericalError as exc:
        raise ValueError(str(exc)) from None
    if final is None:
        raise ValueError("unsettled trace")
    half_band = band.dev * final

    mp = max(0.0, (float(np.max(y)) - final) / final)

    def first_crossing(level):
        idx = np.nonzero(y >= level)[0]
        if idx.size == 0:
            return None
        j = int(idx[0])
        if j == 0:
            return float(t[0])
        return float(t[j - 1] + (level - y[j - 1]) / (y[j] - y[j - 1]) * (t[j] - t[j - 1]))

    t90 = first_crossing(0.9 * final)
    if t90 is None:
        raise ValueError("no rise: trace never reaches 90% of its final value")
    t10 = first_crossing(0.1 * final)
    tr = t90 - t10

    outside = np.nonzero(np.abs(y - final) > half_band)[0]
    if outside.size == 0:
        ts = 0.0
    else:
        j = int(outside[-1])
        boundary = final + half_band if y[j] > final else final - half_band
        ts = float(t[j] + (boundary - y[j]) / (y[j + 1] - y[j]) * (t[j + 1] - t[j]))

    return TimeDomainMetrics(mp=mp, tr=tr, ts=ts, final_value=final)
