"""Step-response simulation, and the round trip that measures the bounds.

The transfer function T is realized in controllable canonical form in the
time unit 1/w0, w0 the magnitude of its fastest pole, as T(w0 s), whose
companion coefficients stay bounded however fast the bound is. Under a unit
step the input is constant, so a zero-order hold is exact: one step of size
u = h w0 is the affine map x <- P x + f, with [[P, f], [0, 1]] = exp(u [[A,
b], [0, 0]]) (Van Loan 1978). That step matrix is formed once, to rounding,
and iterated, so the samples, at the times k h, are exact at any step size.

The iteration is applied in blocks of _BLOCK steps rather than one step at
a time. Powers P^j and offsets S_j f (the state j steps after starting
from zero) for j <= _BLOCK are built by doubling, P^(k+j) = P^k P^j, and
so are the block start states: the first k starts, advanced by the jump
P^(kB), give the next k, and the jump is then squared. Every output sample
y[kB + j] = c P^j x_k + c S_j f + d comes from one matrix product, so a
trace costs about log2(B) + log2(steps/B) small products and no per-step
state history is held. The products come in a different order than the
step-by-step loop, so samples differ from it by rounding only. B = 128
is kept: on traces of 10,001 and 40,000 samples, none of B = 64, 256 and
512 ran faster than 128 in every one of three runs.

round_trip measures each bound against its exact final value, the DC gain.
A bound k/(s^2 + a s + b) with 0 < a < 2 sqrt(b) is a family member scaled
by k/b: its overshoot has a closed form, and its rise and settling times are
the sweep's unit-frequency crossings (timing.unit_times) over omega_n. Any
other bound is simulated up to a horizon that its poles fix (settled_trace)
and read off that trace (_trace_metrics). emit writes both settled_traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import BoundPair
from .errors import NumericalError
from .family import Spec
from .sos_core import overshoot
from .tf_model import RationalTF, dc_gain
from .timing import ToleranceBand, unit_times

__all__ = [
    "StepTrace",
    "TimeDomainMetrics",
    "FinalTD",
    "step_response",
    "settled_trace",
    "round_trip",
]

# largest trace work in float64 values: the steps + 1 output samples plus the
# _BLOCK + 1 powers of the (states + 1)-square step matrix. A trace holds its
# times and its values, so at 2**23 values it peaks at about 128 MiB, far
# above any trace the default settings need. Each doubling product is at most
# half of the powers or of the block starts, (steps + 1) / _BLOCK rows of
# states + 1 values, and is freed before the samples are formed
_MAX_TRACE_VALUES = 2**23
# steps propagated per block; see the module docstring
_BLOCK = 128
_MIN_STEPS = 1e4  # the default step is at most t_end / _MIN_STEPS


@dataclass(frozen=True, eq=False)
class StepTrace:
    """Uniformly sampled step response, starting at t = 0.

    Both arrays are held read-only. A writeable array is copied first, so
    the caller cannot change the trace; a read-only one is held as it is.
    """

    times: np.ndarray
    values: np.ndarray
    step_size: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != y.shape or t.size < 2:
            raise ValueError("trace must hold two matching 1-D arrays")
        if not self.step_size > 0:
            raise ValueError("step size must be positive")
        object.__setattr__(self, "times", _read_only(t))
        object.__setattr__(self, "values", _read_only(y))


def _read_only(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeDomainMetrics:
    """Overshoot fraction, rise time, settling time, final value."""

    mp: float
    tr: float
    ts: float
    final_value: float

    def __post_init__(self):
        if not self.mp >= 0:
            raise ValueError("overshoot fraction cannot be negative")
        if not (self.tr >= 0 and self.ts >= 0):
            raise ValueError("rise and settling times cannot be negative")


@dataclass(frozen=True)
class FinalTD:
    """Round-trip metrics of the two bound responses."""

    lower: TimeDomainMetrics
    upper: TimeDomainMetrics


def _canonical(tf: RationalTF, w0: float):
    """Generator [[A, b], [0, 0]] and output row [c, d] on [x, 1] of T(w0 s)."""
    m = tf.den_degree
    # the coefficients of s**k in den and num, num padded to den's length,
    # over den[0] w0**(m - k): w0 divides a factor at a time, so none overflows
    den, num = coeffs = np.zeros((2, m + 1))
    coeffs[0], coeffs[1, m + 1 - tf.num.size:] = tf.den, tf.num
    coeffs /= tf.den[0]
    for k in range(1, m + 1):
        coeffs[:, k:] /= w0
    direct = num[0]  # the feedthrough d, 0 unless biproper
    row = (num - direct * den)[::-1]  # c reversed, then 0 where d goes
    row[-1] = direct
    gen = np.zeros((m + 1, m + 1))
    gen[:m - 1, 1:m] = np.eye(m - 1)
    gen[m - 1, :m] = -den[:0:-1]
    gen[m - 1, m] = 1.0
    return gen, row


def step_response(tf: RationalTF, t_end: float, step_size: float | None = None) -> StepTrace:
    """Simulate the unit step response on [0, t_end].

    The samples are exact to rounding at any positive step_size up to
    t_end. When it is omitted it defaults to min(0.05/|fastest pole|,
    t_end/1e4), which sets the spacing of the samples that the metrics are
    read at.
    """
    if not t_end > 0:
        raise ValueError("end time must be positive")
    if tf.den_degree < 1:
        raise ValueError("static function has no step dynamics to simulate")
    if np.max(tf.poles.real) >= 0:
        raise NumericalError("cannot simulate to steady state: system is not strictly stable")
    fastest = float(np.max(np.abs(tf.poles)))

    if step_size is None:
        h = min(0.05 / fastest, t_end / _MIN_STEPS)
    elif not step_size > 0:
        raise ValueError("step size must be positive")
    elif step_size > t_end:
        raise ValueError(f"step size {step_size!r} exceeds the end time {t_end!r}")
    else:
        h = float(step_size)

    gen, row = _canonical(tf, fastest)
    m = gen.shape[0] - 1

    # a float until it has passed the budget: an infinite t_end has no int
    n_steps = np.floor(t_end / h + 1e-9)
    n_values = (n_steps + 1) + (_BLOCK + 1) * (m + 1) ** 2
    if not n_values <= _MAX_TRACE_VALUES:
        raise NumericalError(
            f"simulation needs {n_steps + 1:.3g} steps of {m} states, {n_values:.3g} values "
            f"over the budget of {_MAX_TRACE_VALUES}: the time scales are too far apart "
            f"or the order is too high")
    n_steps = int(n_steps)
    # powers[j] holds [[P^j, S_j f], [0, 1]], acting on [x, 1]
    powers = np.empty((_BLOCK + 1, m + 1, m + 1))
    powers[0] = np.eye(m + 1)
    # powers[1] = exp(u gen), u = h w0, by scaling and squaring (Higham 2005):
    # 2**-s takes the 1-norm of u A, which in companion form can exceed u,
    # under 1/4, where the Taylor remainder past degree 12 is under 1e-17. The
    # last column of (u gen)**k is u**k A**(k-1) b, so b is left out of the
    # norm. Horner's rule runs over the factors u gen / 2**s / k
    u = h * fastest
    s = max(0, math.frexp(u * np.abs(gen[:, :m]).sum(axis=0).max())[1] + 2)
    step = powers[0]
    for factor in gen * (math.ldexp(u, -s) / np.arange(12.0, 0.0, -1.0))[:, None, None]:
        step = powers[0] + factor @ step
    for _ in range(s):
        step = step @ step
    powers[1] = step
    # by doubling: powers k+1 to 2k are P^k times powers 1 to k
    k = 1
    while k < _BLOCK:
        n = min(k, _BLOCK - k)
        powers[k + 1:k + n + 1] = powers[k] @ powers[1:n + 1]
        k += n
    # output row j of a block: y = out[j] @ [x_k, 1]
    out = row @ powers[:_BLOCK]
    # block starts by doubling too: starts k to 2k - 1 are the first k
    # advanced by the jump P^(kB), whose square is the next jump
    n_blocks = -(-(n_steps + 1) // _BLOCK)
    starts = np.empty((n_blocks, m + 1))
    starts[0] = powers[0, m]  # the zero state, [0, 1]
    jump = powers[_BLOCK]
    k = 1
    while k < n_blocks:
        n = min(k, n_blocks - k)
        starts[k:k + n] = starts[:n] @ jump.T
        jump = jump @ jump
        k += n
    # fresh arrays, marked read-only so that StepTrace holds them uncopied
    times = np.arange(n_steps + 1, dtype=float)
    times *= h
    values = (starts @ out.T).ravel()[:n_steps + 1]
    times.flags.writeable = values.flags.writeable = False
    return StepTrace(times, values, h)


def settled_trace(tf: RationalTF, spec: Spec) -> StepTrace:
    """Step response of a strictly stable bound of positive DC gain to its horizon.

    The horizon is the later of 3*ts and the modal time: y(t) = dc + sum_i
    c_i exp(p_i t), c_i = N(p_i) / (p_i D'(p_i)), is within eps * dc of dc
    once sum_i |c_i| exp(-sigma t) is, sigma the slowest decay rate and eps =
    min(dev, 0.1), whose 0.1 keeps the 90% crossing inside wider bands. The
    margin keeps the last sample, up to t_end / _MIN_STEPS early, past it.
    Poles that coincide exactly have no finite residue: they count as split
    by 1e-6 |p_i|, whose large residues bound the factors t**k of their mode.
    """
    if tf.den_degree < 1:
        raise ValueError("static function has no step dynamics to simulate")
    poles = tf.poles
    dc = dc_gain(tf)
    if not dc > 0:
        raise NumericalError(f"degenerate final value {dc!r}: the DC gain is not positive")
    # |D'(p_i)| = |den[0]| * prod_{j != i} |p_i - p_j|
    gaps = np.abs(poles[:, None] - poles)
    gaps = np.where(gaps > 0, gaps, 1e-6 * np.abs(poles)[:, None])
    np.fill_diagonal(gaps, 1.0)
    amplitude = np.sum(np.abs(np.polyval(tf.num, poles) / (tf.den[0] * poles)) / gaps.prod(axis=1))
    modal = math.log(max(amplitude / (min(spec.dev, 0.1) * dc), 1.0)) / -np.max(poles.real)
    t_end = max(3.0 * spec.ts, float(modal) / (1.0 - 1.0 / _MIN_STEPS))
    return step_response(tf, t_end)


def _trace_metrics(trace: StepTrace, final: float, dev: float) -> TimeDomainMetrics:
    """Measure mp, tr and ts of a trace against its positive final value.

    Crossings are located by linear interpolation between samples. The
    trace is computed, not given, so a trace that ends outside the band
    final*(1 +/- dev) or never reaches 90% of final raises NumericalError.
    """
    t, y = trace.times, trace.values
    half_band = dev * final
    if not abs(y[-1] - final) <= half_band:
        raise NumericalError("unsettled trace")
    peak = float(np.max(y))
    if not peak >= 0.9 * final:
        raise NumericalError("no rise: trace never reaches 90% of its final value")

    def first_crossing(level):
        j = int(np.argmax(y >= level))
        if j == 0:
            return float(t[0])
        return float(t[j - 1] + (level - y[j - 1]) / (y[j] - y[j - 1]) * (t[j] - t[j - 1]))

    ts = 0.0
    outside = np.nonzero(np.abs(y - final) > half_band)[0]
    if outside.size:
        j = int(outside[-1])
        boundary = final + half_band if y[j] > final else final - half_band
        ts = float(t[j] + (boundary - y[j]) / (y[j + 1] - y[j]) * (t[j + 1] - t[j]))
    tr = first_crossing(0.9 * final) - first_crossing(0.1 * final)
    return TimeDomainMetrics(max(0.0, (peak - final) / final), tr, ts, final)


def _member(tf: RationalTF):
    """(zeta, omega_n) of a bound k/(s^2 + a s + b), k/b > 0 and 0 < a < 2 sqrt(b):
    the member of that damping and natural frequency scaled by k/b; else None."""
    if tf.num.size != 1 or tf.den.size != 3:
        return None
    d0, d1, d2 = tf.den.tolist()
    if not (d2 / d0 > 0 and dc_gain(tf) > 0):
        return None
    omega_n = math.sqrt(d2 / d0)
    zeta = d1 / d0 / (2.0 * omega_n)
    return (zeta, omega_n) if 0 < zeta < 1 else None


def round_trip(bounds: BoundPair, spec: Spec) -> FinalTD:
    """Measure both bounds against their DC gains: family members by overshoot
    and one unit_times batch, any other bound off its settled_trace."""
    tfs = (bounds.lower, bounds.upper)
    members = [_member(tf) for tf in tfs]
    zetas = [m[0] for m in members if m is not None]
    if zetas:
        rise, settle = unit_times(zetas, ToleranceBand(spec.dev))
    metrics, row = [], 0
    for tf, m in zip(tfs, members):
        if m is None:
            metrics.append(_trace_metrics(settled_trace(tf, spec), dc_gain(tf), spec.dev))
        else:
            zeta, omega_n = m
            metrics.append(TimeDomainMetrics(overshoot(zeta), float(rise[row]) / omega_n,
                                             float(settle[row]) / omega_n, dc_gain(tf)))
            row += 1
    return FinalTD(*metrics)
