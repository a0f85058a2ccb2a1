"""Time-domain metrics: crossing solvers, rise and settling times.

Crossings of the closed-form step response are solved by fifth-order Newton
forward-difference inverse interpolation on six equally spaced samples: the
interpolating quintic is inverted by Newton-Raphson from the secant
estimate, and the sampling is refined until two successive estimates agree.
A grid level whose Newton-Raphson iteration diverges, or whose estimate
leaves the six-sample window, contributes no estimate and the next halving
is tried, so every result is a converged Newton solution inside a window
bracketing the root.

The crossings are solved in batches: every crossing of a damping sweep (the
10% and 90% crossings and the settling crossing of each damping ratio) is one
row of numpy arrays, all rows advance one refinement level at a time, and a
converged row leaves the batch. A level samples only the fine-grid points
around the bracket its row found at the level before, so each level costs
the same per row at any depth; those points equal the ones np.linspace would
place over the whole window. A single rise or settling time is a batch of
one damping ratio.

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
    "TimeDomainMetrics",
    "newton_inverse_interp",
    "unit_rise_time",
    "unit_settling_time",
    "omega_n_for",
    "omega_ns_for",
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
# level L places 5 * 2**L + 1 points on the window; the unit step responses'
# crossings need at most 13 levels for zeta in [1e-4, 0.99999]
_REFINE_MAX_LEVELS = 20
# the step response reaches 0.9 by t = 4 for every zeta in (0, 1): at least
# 0.908, the critically damped 1 - 5 exp(-4)
_RISE_WINDOW = 4.0
# points of a level evaluated per row, centred on the previous level's
# bracket: the six-sample window needs seven of them, the rest is margin
_LOCAL_SAMPLES = 17
# damping grids whose unit-frequency times are kept. The benchmark's sweep
# cycles 30 grids (5 mp x 3 dev x 2 steps), and an LRU smaller than its cycle
# misses every time; 128 leaves room for a designer's own grids. At the
# largest sweep (family._MAX_WD_PAIRS = 1000 pairs) an entry holds an 8 KB
# key and two 8 KB arrays, so a full cache holds about 3 MB
_UNIT_TIMES_CACHE = 128
# the factors u - (k - 1) and the k! of the Newton forward-difference basis, k = 1..5
_SHIFTS = np.arange(5.0)[:, None]
_FACTORIALS = np.array([1.0, 2.0, 6.0, 24.0, 120.0])[:, None, None]

# why a row of samples gave no estimate, and what a single call raises for it
_OK, _UNEVEN, _UNBRACKETED, _FLAT_DIFF, _FLAT_INTERP, _DIVERGED = range(6)
_FAILURES = {
    _UNEVEN: (ValueError, "samples must be equally spaced in time"),
    _UNBRACKETED: (ValueError, "target is not bracketed by the samples"),
    _FLAT_DIFF: (NumericalError, "inverse interpolation diverged: flat first difference"),
    _FLAT_INTERP: (NumericalError, "inverse interpolation diverged: flat interpolant"),
    _DIVERGED: (NumericalError, "inverse interpolation diverged"),
}


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


def newton_inverse_interp(times, values, target) -> float:
    """Solve f(t) = target from six equally spaced (t, f) samples.

    Builds the fifth-order Newton forward-difference polynomial and inverts
    it by Newton-Raphson on the normalized abscissa u, starting from the
    secant estimate; the derivative is accumulated in the same product loop
    as the value. Unequal spacing, an unbracketed target or an iteration
    that fails to settle within 100 steps raise ValueError or
    NumericalError.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.shape != (6,) or f.shape != (6,):
        raise ValueError("exactly six samples are required")
    est, status = _invert_rows(t[None], f[None], np.array([target], dtype=float))
    if status[0] != _OK:
        error, message = _FAILURES[int(status[0])]
        raise error(message)
    return float(est[0])


def _invert_rows(t, f, target):
    """Newton inverse interpolation of each row of six (t, f) samples.

    Returns the estimates, NaN where a row fails, and each row's status: _OK
    or the key of its failure in _FAILURES.
    """
    est = np.full(len(t), np.nan)
    status = np.full(len(t), _OK)
    # rows that fail compute garbage until they are dropped; only the status
    # says whether a row failed
    with np.errstate(all="ignore"):
        h = t[:, 1] - t[:, 0]
        # every spacing within atol + rtol*|h| of h, with rtol = 1e-9 and atol
        # = 1e-12*max(1, |t0|, |t5|): sample times round in proportion to
        # their size; a NaN spacing or an infinite time fails the test
        tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(t[:, 0]), np.abs(t[:, 5])))
        tol += 1e-9 * np.abs(h)
        spaced = ((h > 0) & np.isfinite(tol)
                  & np.all(np.abs(np.diff(t, axis=1) - h[:, None]) <= tol[:, None], axis=1))
        # min() and max() of the samples as Python takes them: NaN when the
        # first is NaN, otherwise blind to NaN
        bracketed = ((np.fmin.reduce(f, axis=1) <= target) & (target <= np.fmax.reduce(f, axis=1))
                     & ~np.isnan(f[:, 0]))

        # forward differences of increasing order, taken at the first sample
        col = f
        diffs = [col[:, 0]]
        for _ in range(5):
            col = col[:, 1:] - col[:, :-1]
            diffs.append(col[:, 0])
        d = np.array(diffs)
        status[d[1] == 0] = _FLAT_DIFF
        status[~bracketed] = _UNBRACKETED
        status[~spaced] = _UNEVEN

        rows = np.flatnonzero(status == _OK)
        u = (target[rows] - d[0, rows]) / d[1, rows]
        # from a non-finite secant start the iteration can only diverge
        finite = np.isfinite(u)
        status[rows[~finite]] = _DIVERGED
        rows, u = rows[finite], u[finite]
        for _ in range(_NR_MAXIT):
            if rows.size == 0:
                break
            dr = d[:, rows]
            # p(u) - target and p'(u) on the basis prod_{i<k} (u - i) / k!:
            # basis[k-1] holds that product and its derivative, accumulated
            # factor by factor and summed term by term in the order of k
            shifted = u - _SHIFTS
            basis = np.empty((5, 2, rows.size))
            shifted.cumprod(axis=0, out=basis[:, 0])
            basis[0, 1] = 1.0
            for k in range(1, 5):
                np.multiply(basis[k - 1, 1], shifted[k], out=basis[k, 1])
                basis[k, 1] += basis[k - 1, 0]
            basis /= _FACTORIALS
            basis *= dr[1:, None]
            acc = np.zeros((2, rows.size))
            np.subtract(dr[0], target[rows], out=acc[0])
            for term in basis:
                acc += term
            g, dg = acc
            step = g / dg
            u = u - step
            flat = dg == 0
            failed = flat | ~(np.abs(u) <= 1e6)  # a non-finite u fails too
            done = ~failed & (np.abs(step) < _NR_TOL)
            status[rows[failed]] = np.where(flat[failed], _FLAT_INTERP, _DIVERGED)
            solved = rows[done]
            est[solved] = t[solved, 0] + u[done] * h[solved]
            going = ~(failed | done)
            rows, u = rows[going], u[going]
        status[rows] = _DIVERGED
    return est, status


def _crossings(zeta, lo, hi, target):
    """Crossing of target[r] by the unit step response of zeta[r], per row r.

    The response must be monotone through the crossing on [lo[r], hi[r]].
    Level L places n = 5 * 2**L + 1 points on each window by their offset
    from lo, so that far from t = 0 they are as evenly spaced as near it. It
    evaluates only _LOCAL_SAMPLES of them, around twice the previous level's
    bracket, the position of the same point on the halved grid. Raises
    NumericalError unless every row converges within _REFINE_MAX_LEVELS.
    """
    zeta, lo, hi, target = (np.asarray(a, dtype=float) for a in (zeta, lo, hi, target))
    result = np.full(zeta.shape, np.nan)
    # per live row: its index in result, its closed form's coefficients
    # (decay, root = wd, phi), window, target, the sign that makes the
    # response increase through the crossing, the level's np.searchsorted
    # index of the target and the last estimate
    row = np.arange(zeta.size)
    root = np.sqrt(1 - zeta * zeta)
    coef = np.stack([-zeta, root, root, [math.acos(z) for z in zeta.tolist()]], axis=1)
    bracket = np.zeros(zeta.shape, dtype=np.intp)
    prev = np.full(zeta.shape, np.nan)
    span = hi - lo
    for level in range(_REFINE_MAX_LEVELS):
        if row.size == 0:
            break
        n = 5 * 2**level + 1
        width = min(n, _LOCAL_SAMPLES)
        first = np.minimum(np.maximum(2 * bracket - _LOCAL_SAMPLES // 2, 0), n - width)
        idx = first[:, None] + np.arange(width)
        # np.linspace(0, span, n)[idx]: idx * step, and the last point is span
        ds = np.where(idx == n - 1, span[:, None], idx * (span / (n - 1))[:, None])
        fs = closed_form_step(*coef.T[:, :, None], lo[:, None] + ds)
        if level == 0:  # the only level whose samples include both ends of every window
            sign = np.where(fs[:, -1] >= fs[:, 0], 1.0, -1.0)
        bracket = first + np.count_nonzero((sign[:, None] * fs) < (sign * target)[:, None],
                                           axis=1)
        pick = (np.arange(row.size)[:, None],
                np.minimum(np.maximum(bracket - first - 3, 0), width - 6)[:, None] + np.arange(6))
        d6 = ds[pick]
        # a level whose Newton solve fails, or lands outside the six samples
        # around the crossing, records no estimate: the next level retries
        d_hat, status = _invert_rows(d6, fs[pick], target)
        found = (status == _OK) & (d6[:, 0] <= d_hat) & (d_hat <= d6[:, 5])
        t_hat = lo + d_hat
        done = found & (np.abs(t_hat - prev) < _REFINE_TOL)
        result[row[done]] = t_hat[done]
        prev = np.where(found, t_hat, prev)
        keep = ~done
        row, coef, lo, span, target, sign, bracket, prev = (
            a[keep] for a in (row, coef, lo, span, target, sign, bracket, prev))
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


def omega_n_for(zeta: float, tr_spec: float, ts_spec: float, band: ToleranceBand) -> float:
    """Smallest natural frequency meeting both timing requirements.

    The one-damping-ratio case of omega_ns_for.
    """
    return float(omega_ns_for([zeta], tr_spec, ts_spec, band)[0])


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
