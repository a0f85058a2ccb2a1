"""Step-response simulation and round-trip metric extraction.

The transfer function is realized in controllable canonical form and the
unit-step forced response is integrated with the classical fixed-step
fourth-order Runge-Kutta method. For a linear system driven by a constant
input one RK4 step is an affine map x <- P x + f, so the propagation
matrix P and forcing vector f are formed once and iterated.

The iteration is applied in blocks of _BLOCK steps rather than one step at
a time. Powers P^j and offsets S_j f (the state j steps after starting
from zero) are built for j <= _BLOCK by the same recursion; only the block
start states are stepped, by x <- P^B x + S_B f, and every output sample
y[kB + j] = c P^j x_k + c S_j f + d comes from one matrix product. The
Python loop then runs about steps/B times instead of once per step, and no
per-step state history is held. B = 128 balances the two costs that
remain: the precomputation grows with B and the block loop with steps/B.
On traces of 10,001 to 16,000 steps, B = 32, 64, 256 and 512 each ran
slower than 128 (64 only slightly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import BoundPair
from .errors import NumericalError
from .family import Spec
from .tf_model import RationalTF, roots
from .timing import TimeDomainMetrics, ToleranceBand, extract_metrics, settled_final_value

__all__ = [
    "StepTrace",
    "FinalTD",
    "step_response",
    "settled_step_response",
    "round_trip",
]

_MAX_EXTENSIONS = 16
# largest trace work in float64 values: the steps + 1 output samples plus the
# _BLOCK + 1 powers of the (states + 1)-square step matrix. A trace holds its
# times and its values, so at 2**23 values it peaks at about 128 MiB, far
# above any trace the default settings need
_MAX_TRACE_VALUES = 2**23
# steps propagated per block; see the module docstring
_BLOCK = 128


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
        if self.step_size <= 0:
            raise ValueError("step size must be positive")
        object.__setattr__(self, "times", _read_only(t))
        object.__setattr__(self, "values", _read_only(y))


def _read_only(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FinalTD:
    """Round-trip metrics of the two bound responses."""

    lower: TimeDomainMetrics
    upper: TimeDomainMetrics


def _canonical(tf: RationalTF):
    den = tf.den / tf.den[0]
    num = tf.num / tf.den[0]
    m = den.size - 1
    if num.size == den.size:
        direct = num[0]
        num = (num - direct * den)[1:]
    else:
        direct = 0.0
        num = np.concatenate([np.zeros(den.size - num.size - 1), num])
    a = np.zeros((m, m))
    a[:-1, 1:] = np.eye(m - 1)
    a[-1, :] = -den[1:][::-1]
    b = np.zeros(m)
    b[-1] = 1.0
    c = num[::-1].copy()
    return a, b, c, float(direct)


def step_response(tf: RationalTF, t_end: float, step_size: float | None = None) -> StepTrace:
    """Simulate the unit step response on [0, t_end].

    When step_size is omitted it defaults to min(0.05/|fastest pole|,
    t_end/1e4). An explicit step_size larger than 0.1/|fastest pole|
    violates the accuracy contract and is rejected.
    """
    if not t_end > 0:
        raise ValueError("end time must be positive")
    if tf.den_degree < 1:
        raise ValueError("static function has no step dynamics to simulate")
    poles = roots(tf.den)
    if np.max(poles.real) >= 0:
        raise NumericalError("cannot simulate to steady state: system is not strictly stable")
    fastest = float(np.max(np.abs(poles)))

    if step_size is None:
        h = min(0.05 / fastest, t_end / 1e4)
    else:
        if step_size <= 0:
            raise ValueError("step size must be positive")
        if step_size > 0.1 / fastest:
            raise NumericalError("step size violates accuracy contract for the fastest mode")
        h = float(step_size)

    a, b, c, direct = _canonical(tf)
    m = a.shape[0]
    ha = h * a
    # classical RK4 for x' = a x + b with constant input, as one affine map
    prop = np.eye(m) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
    force = (h * (np.eye(m) + ha / 2 + ha @ ha / 6 + ha @ ha @ ha / 24)) @ b

    # a float until it has passed the budget: an infinite t_end has no int
    n_steps = np.floor(t_end / h + 1e-9)
    n_values = (n_steps + 1) + (_BLOCK + 1) * (m + 1) ** 2
    if not n_values <= _MAX_TRACE_VALUES:
        raise NumericalError(
            f"simulation needs {n_steps + 1:.3g} steps of {m} states, {n_values:.3g} values "
            f"over the budget of {_MAX_TRACE_VALUES}: the time scales are too far apart "
            f"or the order is too high")
    n_steps = int(n_steps)
    # affine map as one matrix on [x, 1]; powers[j] holds [[P^j, S_j f], [0, 1]]
    step = np.eye(m + 1)
    step[:m, :m] = prop
    step[:m, m] = force
    powers = np.empty((_BLOCK + 1, m + 1, m + 1))
    powers[0] = np.eye(m + 1)
    for j in range(_BLOCK):
        powers[j + 1] = step @ powers[j]
    # output row j of a block: y = out[j] @ [x_k, 1]
    out = np.append(c, direct) @ powers[:_BLOCK]
    n_blocks = -(-(n_steps + 1) // _BLOCK)
    starts = np.empty((n_blocks, m + 1))
    starts[0] = powers[0, m]  # the zero state, [0, 1]
    for k in range(1, n_blocks):
        starts[k] = powers[_BLOCK] @ starts[k - 1]
    # fresh arrays, marked read-only so that StepTrace holds them uncopied
    times = np.arange(n_steps + 1, dtype=float)
    times *= h
    values = (starts @ out.T).ravel()[:n_steps + 1]
    times.flags.writeable = values.flags.writeable = False
    return StepTrace(times, values, h)


def settled_step_response(tf: RationalTF, ts_spec: float, band: ToleranceBand) -> StepTrace:
    """Simulate starting at t_end = 3*ts, doubling until the trace settles."""
    t_end = 3.0 * ts_spec
    for _ in range(_MAX_EXTENSIONS):
        trace = step_response(tf, t_end)
        if settled_final_value(trace.values, band) is not None:
            return trace
        t_end *= 2
    raise NumericalError("response did not settle within the extension budget")


def round_trip(bounds: BoundPair, spec: Spec) -> tuple[FinalTD, tuple[StepTrace, StepTrace]]:
    """Simulate both bounds until settled; their metrics and traces."""
    band = ToleranceBand(spec.dev)
    traces = tuple(settled_step_response(tf, spec.ts, band)
                   for tf in (bounds.lower, bounds.upper))
    lower, upper = (extract_metrics(tr.times, tr.values, band) for tr in traces)
    return FinalTD(lower=lower, upper=upper), traces
