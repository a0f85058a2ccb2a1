"""Envelope bounds: pointwise min/max plus a least-squares rational fit.

Endpoint restriction keeps whole members, which can be loose in the
middle of the band. The envelope mode instead takes the pointwise
magnitude and phase minimum (and maximum) over all fifty family members
and then recovers a low-order rational transfer function from those
complex samples by linear least squares. Every member is 1/(x + jy) with
v = omega / omega_n, x = 1 - v^2 and y = 2 * zeta * v > 0, so the
envelopes follow in closed form from the extremes of x^2 + y^2 (magnitude)
and of x/y (phase) over the members.
"""

import numpy as np

from trackbounds import (
    FitProblem,
    Spec,
    build_wd,
    cleanup,
    envelope_of,
    fit,
    make_grid,
    report,
)

spec = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)
table = build_wd(spec, 0.05)
grid = make_grid(0.01, 100.0, 200)
print(f"family size: {spec.wi * len(table)} members over {len(grid)} grid points")

# ---------------------------------------------------------------------------
# pointwise envelopes, from the members' closed forms
# ---------------------------------------------------------------------------
lo_data, hi_data = envelope_of(table, spec.wi, grid)
k = np.searchsorted(grid.omegas, 1.0)
print(f"at omega = {grid.omegas[k]:.3f} rad/s the envelope magnitudes are "
      f"{lo_data.magnitude()[k]:.4f} (lower) and {hi_data.magnitude()[k]:.4f} (upper)")

# ---------------------------------------------------------------------------
# rational recovery from the envelope samples
# ---------------------------------------------------------------------------
lo_fit = fit(FitProblem(lo_data, 0, 2))
print("\nlower envelope, constant over quadratic:")
print(f"  numerator   : {lo_fit.num}")
print(f"  denominator : {lo_fit.den}")

hi_fit = fit(FitProblem(hi_data, 1, 2))
print("upper envelope, first order over quadratic:")
print(f"  numerator   : {hi_fit.num}")
print(f"  denominator : {hi_fit.den}")

# the tiny s-coefficient carries no dynamics this side of the far zero;
# a looser significance threshold strips it and keeps the gain
trimmed = cleanup(hi_fit, zero_tol=1e-2, ref_omega=grid.omegas[0])
print("upper after cleanup:")
print(f"  numerator   : {trimmed.num}")
print(f"  denominator : {trimmed.den}")

# ---------------------------------------------------------------------------
# how faithful are the fits?
# ---------------------------------------------------------------------------
for name, fitted, data in (("lower", lo_fit, lo_data), ("upper", hi_fit, hi_data)):
    rep = report(fitted, data)
    print(f"{name} fit: max |mag error| = {rep.max_mag_error:.4f}, "
          f"max phase error = {rep.max_phase_error_deg:+.3f} deg")
