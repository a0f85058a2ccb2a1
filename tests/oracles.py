"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own solvers: the step
response is re-derived from the closed form with math-module scalars, and
crossings are located by plain bisection (plus a dense linear scan for the
settling search), so agreement with the package is meaningful. The RK4
reference steps the simulator's affine map one step at a time, the plain
loop the package's block propagation must reproduce; the modal step
response is exact. The family members are built one transfer function at
a time, the form the package's broadcast family response must reproduce.
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


def loop_step_response(tf, step_size, n_steps):
    """RK4 step response stepped one sample at a time, x <- P x + f."""
    from trackbounds.simulate import _canonical

    a, b, c, direct = _canonical(tf)
    m = a.shape[0]
    ha = step_size * a
    prop = np.eye(m) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
    force = (step_size * (np.eye(m) + ha / 2 + ha @ ha / 6 + ha @ ha @ ha / 24)) @ b
    states = np.empty((n_steps + 1, m))
    x = np.zeros(m)
    states[0] = x
    for k in range(1, n_steps + 1):
        x = prop @ x + force
        states[k] = x
    return states @ c + direct


def oracle_modal_step(tf, t):
    """Exact step response of a function with simple poles, by partial fractions.

    y(t) = D + sum_i r_i / p_i (exp(p_i t) - 1) with r_i = N(p_i) / D'(p_i)
    and D the direct feedthrough (zero unless the function is biproper).
    """
    num = np.asarray(tf.num, dtype=float)
    den = np.asarray(tf.den, dtype=float)
    poles = np.roots(den)
    residues = np.polyval(num, poles) / np.polyval(np.polyder(den), poles)
    direct = num[0] / den[0] if num.size == den.size else 0.0
    t = np.asarray(t, dtype=float)
    modes = (residues / poles)[:, None] * np.expm1(np.outer(poles, t))
    return direct + np.real(np.sum(modes, axis=0))


def family_tfs(table, i):
    """Transfer functions of every pair, natural frequencies scaled by i."""
    from trackbounds import make_tf, scale_omega

    return [make_tf(scale_omega(p, i)) for p in table.pairs]
