"""Timing a step response: rise, settling, and inverse interpolation.

Rise time asks "when does the response first cross 90% of its final
value" -- an inverse problem. Instead of scanning a dense trace, six
equally spaced samples around the crossing define a fifth-order Newton
forward-difference polynomial, which Newton-Raphson inverts from the
secant estimate to give the crossing time.
"""

import numpy as np

from trackbounds import (
    SecondOrderParams,
    ToleranceBand,
    newton_inverse_interp,
    omega_ns_for,
    step_value,
    unit_times,
)

# ---------------------------------------------------------------------------
# unit-frequency timings as functions of damping alone
# ---------------------------------------------------------------------------
# unit_times solves every damping ratio's crossings in one batch
band = ToleranceBand(0.03)
zetas = (0.52, 0.67, 0.82, 0.97)
print("damping   unit rise   unit settling (3% band)")
for zeta, tr1, ts1 in zip(zetas, *unit_times(zetas, band)):
    print(f"  {zeta:.2f}    {tr1:8.4f}    {ts1:8.4f}")

# scaling: a system at omega_n has rise time unit_rise / omega_n, so the
# stiffest requirement (rise or settling) fixes the natural frequency;
# omega_ns_for takes a whole damping grid, here a grid of one
zeta = 0.52
w_n = omega_ns_for([zeta], 5.0, 30.0, band)[0]
print(f"\nzeta = {zeta}: omega_n = {w_n:.6f} meets tr <= 5 and ts <= 30")
(tr1,), (ts1,) = unit_times([zeta], band)
print(f"  implied rise     : {tr1 / w_n:.4f} s")
print(f"  implied settling : {ts1 / w_n:.4f} s")

# ---------------------------------------------------------------------------
# six samples are enough to invert a smooth crossing
# ---------------------------------------------------------------------------
params = SecondOrderParams(omega_n=1.0, zeta=zeta)
window = np.linspace(1.2, 2.2, 6)
samples = step_value(params, window)
print("\nsamples bracketing the 90% crossing:")
for ti, yi in zip(window, samples):
    print(f"  t = {ti:.2f}   y = {yi:.6f}")

t_cross = newton_inverse_interp(window, samples, 0.9)
print(f"interpolated crossing : t = {t_cross:.8f}")
print(f"value at that instant : {float(step_value(params, t_cross)):.8f} (target 0.9)")

# a dense scan agrees but needs five orders of magnitude more evaluations
dense_t = np.linspace(0.0, 4.0, 400_001)
dense_y = step_value(params, dense_t)
t_scan = dense_t[np.searchsorted(dense_y[: dense_y.argmax()] >= 0.9, True)]
print(f"dense-scan crossing   : t = {t_scan:.8f} (400001 samples)")
