"""Rise and settling times of the closed-form second-order step response,
the damping sweep's natural frequencies, and the paper's inverse
interpolation of a crossing in sampled data. The metrics of a simulated
trace are read by simulate, which owns the round trip.

Crossings of the closed-form unit step response are solved by bracketed
Newton iteration on the closed form itself, whose exact derivative is the
unit impulse response: each step keeps a window the response is monotone
on, and a Newton step that would leave it is replaced by bisection. The
crossings are solved in batches: every crossing of a damping sweep (the 10%
and 90% crossings and the settling crossing of each damping ratio) is one
row of numpy arrays, all rows take one Newton or bisection step per pass,
and a converged row leaves the batch. A single rise or settling time is a
batch of one damping ratio.

A crossing of sampled data is read by the paper's fifth-order Newton
forward-difference inverse interpolation on one window of six equally
spaced samples (newton_inverse_interp): the interpolating quintic is
inverted by Newton-Raphson from the secant estimate, in Python floats.

A sweep's unit-frequency rise times (t90 - t10) and settling times are kept
in a bounded cache keyed by the exact damping grid and the band's dev. Rise
and settling times scale exactly as 1/omega_n, so tr and ts only divide
these times in the last step of omega_ns_for, and specs that differ only in
tr and ts share one solve. The cache holds at most _UNIT_TIMES_CACHE grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .sos_core import closed_form_step

__all__ = [
    "ToleranceBand",
    "newton_inverse_interp",
    "unit_rise_time",
    "unit_settling_time",
    "omega_ns_for",
]

# Newton-Raphson on the normalized abscissa u: stop when a step is this small
_NR_TOL = 1e-10
_NR_MAXIT = 100
# the step response reaches 0.9 by t = 4 for every zeta in (0, 1): at least
# 0.908, the critically damped 1 - 5 exp(-4)
_RISE_WINDOW = 4.0
# passes of the bracketed Newton iteration: bisection alone narrows any
# window to a few ulps in about 64, and the unit step responses' crossings
# need at most 18 for zeta in [1e-4, 0.99999] and dev in [0.001, 0.9]
_MAX_PASSES = 100
# damping grids whose unit-frequency times are kept. The benchmark's sweep
# cycles 30 grids (5 mp x 3 dev x 2 steps), and an LRU smaller than its cycle
# misses every time; 128 leaves room for a designer's own grids. At the
# largest sweep (family._MAX_WD_PAIRS = 1000 pairs) an entry holds an 8 KB
# key and two 8 KB arrays, so a full cache holds about 3 MB
_UNIT_TIMES_CACHE = 128


@dataclass(frozen=True)
class ToleranceBand:
    """Settlement band final*(1 +/- dev)."""

    dev: float

    def __post_init__(self):
        if not 0 < self.dev < 1:
            raise ValueError("tolerance band must be a fraction in (0, 1)")


def newton_inverse_interp(times, values, target) -> float:
    """Solve f(t) = target from one window of six equally spaced (t, f) samples.

    Builds the fifth-order Newton forward-difference polynomial and inverts
    it by Newton-Raphson on the normalized abscissa u, starting from the
    secant estimate; the derivative is accumulated in the same product loop
    as the value, in Python floats, which never warn. Unequal spacing or an
    unbracketed target raise ValueError; a flat first difference or
    interpolant, or an iteration that leaves |u| <= 1e6 or fails to settle
    within 100 steps, raise NumericalError.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.shape != (6,) or f.shape != (6,):
        raise ValueError("exactly six samples are required")
    t, f, target = t.tolist(), f.tolist(), float(np.asarray(target, dtype=float))
    h = t[1] - t[0]
    # every spacing within atol + rtol*|h| of h, with rtol = 1e-9 and atol =
    # 1e-12*max(1, |t0|, |t5|): sample times round in proportion to their
    # size; a NaN spacing or an infinite time fails the test
    tol = 1e-12 * max(1.0, abs(t[0]), abs(t[5])) + 1e-9 * abs(h)
    if not (h > 0 and math.isfinite(tol)
            and all(abs((b - a) - h) <= tol for a, b in zip(t, t[1:]))):
        raise ValueError("samples must be equally spaced in time")
    # min() is NaN when the first sample is NaN, and otherwise blind to NaN
    if not min(f) <= target <= max(f):
        raise ValueError("target is not bracketed by the samples")

    # forward differences of increasing order, taken at the first sample
    diffs = [f[0]]
    col = f
    for _ in range(5):
        col = [b - a for a, b in zip(col, col[1:])]
        diffs.append(col[0])
    if diffs[1] == 0:
        raise NumericalError("inverse interpolation diverged: flat first difference")
    # a non-finite secant start makes dg NaN, so the first step diverges
    u = (target - diffs[0]) / diffs[1]
    for _ in range(_NR_MAXIT):
        # p(u) - target and p'(u) on the basis prod_{i<k} (u - i) / k!: the
        # product and its derivative are accumulated factor by factor and
        # the terms summed in the order of k
        g, dg = diffs[0] - target, 0.0
        prod, dprod = 1.0, 0.0
        for k, fact in enumerate((1.0, 2.0, 6.0, 24.0, 120.0), start=1):
            dprod = dprod * (u - (k - 1)) + prod
            prod *= u - (k - 1)
            g += prod / fact * diffs[k]
            dg += dprod / fact * diffs[k]
        if dg == 0:
            raise NumericalError("inverse interpolation diverged: flat interpolant")
        step = g / dg
        u -= step
        if not abs(u) <= 1e6:  # a non-finite u fails too
            break
        if abs(step) < _NR_TOL:
            return t[0] + u * h
    raise NumericalError("inverse interpolation diverged")


def _crossings(zeta, lo, hi, target):
    """Crossing of target[r] by the unit step response of zeta[r], per row r.

    The response must be monotone through the crossing on [lo[r], hi[r]].
    Each pass evaluates the closed form y and its exact derivative, the unit
    impulse response exp(-zeta t) sin(wd t) / wd, at one point t per row;
    the sign of y - target says which end of the row's window t replaces.
    The next point is t's Newton step where that lands strictly inside the
    window and the window's midpoint otherwise; the first is the secant of
    the window's ends. A row is solved at t when y equals the
    target or either its Newton step or its next point is within two ulps of
    t. Raises NumericalError unless every row is solved within _MAX_PASSES.
    """
    zeta, lo, hi, target = (np.asarray(a, dtype=float) for a in (zeta, lo, hi, target))
    result = np.full(zeta.shape, np.nan)
    # per live row: its index in result, its closed form's coefficients
    # (decay = -zeta, root = wd, phi), window, target and the sign that
    # makes the response increase through the crossing
    row = np.arange(zeta.size)
    wd = np.sqrt(1 - zeta * zeta)
    phi = np.array([math.acos(z) for z in zeta.tolist()])
    y_lo, y_hi = closed_form_step(-zeta, wd, wd, phi, np.stack([lo, hi])) - target
    sign = np.where(y_hi >= y_lo, 1.0, -1.0)
    # a zero derivative, at a window's end, or a non-finite value only sends
    # its row to the midpoint
    with np.errstate(divide="ignore", invalid="ignore"):
        t = lo - y_lo * (hi - lo) / (y_hi - y_lo)
        t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
        for _ in range(_MAX_PASSES):
            if row.size == 0:
                break
            y = closed_form_step(-zeta, wd, wd, phi, t) - target
            below, above = sign * y < 0, sign * y > 0
            lo = np.where(below, t, lo)
            hi = np.where(above, t, hi)
            newton = t - y * wd / (np.exp(-zeta * t) * np.sin(wd * t))
            nxt = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
            close = np.minimum(np.abs(newton - t), np.abs(nxt - t)) <= 2 * np.spacing(t)
            done = (y == 0) | ((below | above) & close)
            result[row[done]] = t[done]
            keep = ~done
            row, zeta, wd, phi, lo, hi, target, sign, t = (
                a[keep] for a in (row, zeta, wd, phi, lo, hi, target, sign, nxt))
    if row.size:
        raise NumericalError("crossing search did not converge")
    return result


def _check_damping(zetas) -> None:
    if not np.all((zetas > 0) & (zetas < 1)):
        raise ValueError("damping ratio must lie strictly inside (0, 1)")


def _rise_rows(zetas):
    """(zeta, lo, hi, target) rows of the 10% crossings, then the 90% ones.

    Both lie on the monotone rise up to the first peak at pi/wd, and before
    _RISE_WINDOW, which bounds the window as zeta -> 1 and the peak recedes.
    """
    t_end = [min(math.pi / math.sqrt(1 - z * z), _RISE_WINDOW) for z in zetas.tolist()]
    return (np.tile(zetas, 2), np.zeros(2 * zetas.size), np.tile(t_end, 2),
            np.repeat([0.1, 0.9], zetas.size))


def _settling_rows(zetas, band: ToleranceBand):
    """(zeta, lo, hi, target) rows of the last entries into the band.

    The response extrema sit at t_k = k*pi/wd where the deviation from the
    final value equals exp(-zeta*t_k) exactly, so the final band-exceeding
    lobe is located by scanning k and the crossing is solved inside it.
    """
    dev = band.dev
    windows = []
    for zeta in zetas.tolist():
        wd = math.sqrt(1 - zeta * zeta)
        k = max(0, math.ceil(wd * math.log(1.0 / dev) / (zeta * math.pi)) - 1)
        while k > 0 and math.exp(-zeta * k * math.pi / wd) <= dev:
            k -= 1
        windows.append((k * math.pi / wd, ((k + 1) * math.pi - math.acos(zeta)) / wd,
                        1.0 - dev if k % 2 == 0 else 1.0 + dev))
    lo, hi, target = np.array(windows).reshape(-1, 3).T
    return zetas, lo, hi, target


def unit_rise_time(zeta: float) -> float:
    """10%-90% rise time of the unit-frequency step response."""
    zetas = np.array([zeta], dtype=float)
    _check_damping(zetas)
    t10, t90 = _crossings(*_rise_rows(zetas))
    return float(t90 - t10)


def unit_settling_time(zeta: float, band: ToleranceBand) -> float:
    """Last entry of the unit-frequency step response into the band."""
    zetas = np.array([zeta], dtype=float)
    _check_damping(zetas)
    return float(_crossings(*_settling_rows(zetas, band))[0])


def omega_ns_for(zetas, tr_spec: float, ts_spec: float, band: ToleranceBand) -> np.ndarray:
    """Smallest natural frequency meeting both timing requirements, per damping ratio.

    Rise and settling times scale as 1/omega_n, so the binding requirement
    is whichever ratio of unit-frequency time to specified time is larger.
    All three crossings of every damping ratio are solved as one batch, once
    per damping grid and band: the unit-frequency times are cached.
    """
    if not tr_spec > 0:
        raise ValueError("rise time specification must be positive")
    if not ts_spec > 0:
        raise ValueError("settling time specification must be positive")
    zetas = np.asarray(zetas, dtype=float).ravel()
    _check_damping(zetas)
    rise, settle = _unit_times(zetas.tobytes(), band.dev)
    return np.maximum(rise / tr_spec, settle / ts_spec)


@functools.lru_cache(maxsize=_UNIT_TIMES_CACHE)
def _unit_times(zeta_bytes: bytes, dev: float):
    """Read-only unit-frequency rise and settling times of a damping grid."""
    zetas = np.frombuffer(zeta_bytes)
    rows = [np.concatenate(parts)
            for parts in zip(_rise_rows(zetas), _settling_rows(zetas, ToleranceBand(dev)))]
    t10, t90, settle = _crossings(*rows).reshape(3, -1)
    rise, settle = t90 - t10, settle.copy()
    rise.flags.writeable = settle.flags.writeable = False
    return rise, settle
