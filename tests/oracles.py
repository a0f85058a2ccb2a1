"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own solvers: the step
response is re-derived from the closed form with math-module scalars, and
crossings are located by plain bisection (plus a dense linear scan for the
settling search), so agreement with the package is meaningful. Polynomials
are evaluated by a Horner loop over Python complex numbers. The loop
reference steps the simulator's exact step matrix one step at a time, the
plain loop the package's block propagation must reproduce, and the inverse
interpolation reference spells out, step by step, the operation order the
package's scalar solver must reproduce bit for bit; the modal step response
is exact. The family members are built one transfer function at
a time, and the family's complex responses, broadcast in the operation
order of the package's Horner rule, equal theirs entry for entry; the
package's closed-form member terms and envelopes must reproduce those
responses and their general complex hull.
"""

import math

import numpy as np


def step_scalar(zeta, t, omega_n=1.0):
    root = math.sqrt(1 - zeta * zeta)
    wd = omega_n * root
    return 1.0 - math.exp(-zeta * omega_n * t) / root * math.sin(wd * t + math.acos(zeta))


def bisect_crossing(f, lo, hi, target, iters=200):
    g_lo = f(lo) - target
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g_mid = f(mid) - target
        if g_mid == 0:
            return mid
        if (g_mid < 0) == (g_lo < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_step_crossing(zeta, target, omega_n=1.0):
    """First crossing of target on the monotone rise [0, first peak]."""
    wd = omega_n * math.sqrt(1 - zeta * zeta)
    t_peak = math.pi / wd
    return bisect_crossing(lambda t: step_scalar(zeta, t, omega_n), 0.0, t_peak, target)


def oracle_rise_time(zeta, omega_n=1.0):
    return (oracle_step_crossing(zeta, 0.9, omega_n)
            - oracle_step_crossing(zeta, 0.1, omega_n))


def oracle_settling_time(zeta, dev, omega_n=1.0):
    """Last crossing into the band, by dense scan plus bisection refinement."""
    t_max = 40.0 / (zeta * omega_n)
    t = np.linspace(0.0, t_max, 400_001)
    root = math.sqrt(1 - zeta * zeta)
    wd = omega_n * root
    f = 1.0 - np.exp(-zeta * omega_n * t) / root * np.sin(wd * t + math.acos(zeta))
    outside = np.nonzero(np.abs(f - 1.0) > dev)[0]
    if outside.size == 0:
        return 0.0
    j = int(outside[-1])
    target = 1.0 + dev if f[j] > 1.0 else 1.0 - dev
    return bisect_crossing(lambda x: step_scalar(zeta, x, omega_n), t[j], t[j + 1], target)


def oracle_omega_n(zeta, tr_spec, ts_spec, dev):
    return max(oracle_rise_time(zeta) / tr_spec,
               oracle_settling_time(zeta, dev) / ts_spec)


def newton_on_step(zeta, target):
    """Package Newton solver applied to a window around the step crossing.

    Builds six equally spaced samples of the closed form bracketing the
    first crossing of target, inside the monotone rise. The window is
    halved and retried when the fixed-point iteration diverges, matching
    the documented caller-side fallback; the returned value is always a
    converged Newton result.
    """
    from trackbounds import NumericalError, newton_inverse_interp

    t_peak = math.pi / math.sqrt(1 - zeta * zeta)
    t_star = oracle_step_crossing(zeta, target)
    h = min(t_star, t_peak - t_star, 1.0) / 10.0
    for _ in range(8):
        t = t_star - 2.5 * h + h * np.arange(6.0)
        f = np.array([step_scalar(zeta, ti) for ti in t])
        try:
            return newton_inverse_interp(t, f, target)
        except NumericalError:
            h /= 2.0
    raise AssertionError("Newton solver kept diverging as the window shrank")


def loop_newton_inverse(times, values, target):
    """Newton inverse interpolation of six samples by the plain scalar loop.

    The fifth-order forward-difference quintic inverted by Newton-Raphson
    from the secant start, with the same checks, in Python floats one
    sample at a time: the arithmetic newton_inverse_interp must reproduce
    bit for bit. Returns None where newton_inverse_interp raises.
    """
    t = [float(x) for x in times]
    f = [float(x) for x in values]
    h = t[1] - t[0]
    tol = 1e-12 * max(1.0, abs(t[0]), abs(t[5])) + 1e-9 * abs(h)
    if not (h > 0 and math.isfinite(tol)):
        return None
    if not all(abs((b - a) - h) <= tol for a, b in zip(t, t[1:])):
        return None
    if not min(f) <= target <= max(f):
        return None
    diffs = [f[0]]
    col = f
    for _ in range(5):
        col = [b - a for a, b in zip(col, col[1:])]
        diffs.append(col[0])
    if diffs[1] == 0:
        return None
    u = (target - diffs[0]) / diffs[1]
    for _ in range(100):
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
            return None
        step = g / dg
        u -= step
        if not math.isfinite(u) or abs(u) > 1e6:
            return None
        if abs(step) < 1e-10:
            return t[0] + u * h
    return None


def horner(coeffs, s):
    """Polynomial value at s by Horner's rule over Python complex numbers."""
    acc = 0j
    for c in coeffs:
        acc = acc * complex(s) + float(c)
    return acc


def loop_step_response(tf, step_size, n_steps):
    """Exact step response stepped one sample at a time, z <- E z on z = [x, 1].

    E = exp(u [[A, b], [0, 0]]) is built as the simulator builds it, in the
    time unit 1/w0, w0 the fastest pole's magnitude, where the step is u =
    step_size * w0: scaled by 2**-s to a 1-norm under 1/4, summed to Taylor
    degree 12 by Horner's rule, and squared s times.
    """
    from trackbounds.simulate import _canonical

    w0 = float(np.max(np.abs(tf.poles)))
    gen, row = _canonical(tf, w0)
    n = gen.shape[0]
    u = step_size * w0
    s = max(0, math.frexp(u * np.abs(gen).sum(axis=0).max())[1] + 2)
    step = np.eye(n)
    for k in range(12, 0, -1):
        step = np.eye(n) + (gen * (math.ldexp(u, -s) / k)) @ step
    for _ in range(s):
        step = step @ step
    states = np.empty((n_steps + 1, n))
    z = np.eye(n)[-1]
    states[0] = z
    for k in range(1, n_steps + 1):
        z = step @ z
        states[k] = z
    return states @ row


def modal_terms(tf):
    """Poles p_i, step-response mode coefficients c_i = N(p_i) / (p_i D'(p_i))
    and direct feedthrough D of a function with simple poles.

    The step response is y(t) = D + sum_i c_i (exp(p_i t) - 1), and its
    final value D - sum_i c_i.
    """
    num = np.asarray(tf.num, dtype=float)
    den = np.asarray(tf.den, dtype=float)
    poles = np.roots(den)
    residues = np.polyval(num, poles) / np.polyval(np.polyder(den), poles)
    direct = num[0] / den[0] if num.size == den.size else 0.0
    return poles, residues / poles, direct


def oracle_modal_step(tf, t, chunk=2**15):
    """Exact step response of a function with simple poles, by partial fractions.

    y(t) = D + sum_i r_i / p_i (exp(p_i t) - 1) with r_i = N(p_i) / D'(p_i)
    and D the direct feedthrough (zero unless the function is biproper),
    evaluated chunk samples at a time: each chunk's modes take 16 bytes per
    pole and sample.
    """
    poles, coeffs, direct = modal_terms(tf)
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    for start in range(0, t.size, chunk):
        modes = coeffs[:, None] * np.expm1(np.outer(poles, t.flat[start:start + chunk]))
        out.flat[start:start + chunk] = direct + np.real(np.sum(modes, axis=0))
    return out


def family_tfs(table, i):
    """Transfer functions of every pair, natural frequencies scaled by i."""
    from trackbounds import make_tf, scale_omega

    return [make_tf(scale_omega(p, i)) for p in table.pairs]


def family_response(table, wi, omegas):
    """Complex responses H[i-1, k, j] of pair k scaled by i = 1..wi at omegas[j].

    Evaluates wn^2 / (s^2 + 2*zeta*wn*s + wn^2) at s = j*omega by
    broadcasting, in the operation order of eval_poly's Horner rule, so
    every entry equals freq_response of make_tf(scale_omega(pair, i)).
    """
    wn = table.omega_ns()[None, :, None] * np.arange(1, wi + 1)[:, None, None]
    z = table.zetas()[None, :, None]
    s = 1j * np.asarray(omegas, dtype=float)
    wn2 = wn * wn
    return wn2 / ((s + 2 * z * wn) * s + wn2)


def complex_hull(responses, grid):
    """Pointwise min and max of magnitude and of unwrapped phase over member rows.

    responses holds one complex response per member along its last axis;
    returns (lower, upper) as complex samples on the grid.
    """
    from trackbounds import FrequencyResponse

    resp = np.asarray(responses, dtype=complex).reshape(-1, len(grid))
    mag = np.abs(resp)
    phase = np.unwrap(np.angle(resp), axis=-1)
    return (FrequencyResponse(grid, mag.min(axis=0) * np.exp(1j * phase.min(axis=0))),
            FrequencyResponse(grid, mag.max(axis=0) * np.exp(1j * phase.max(axis=0))))
