"""From one specification to a family of admissible curves.

Sweeping the damping ratio from its overshoot-limited minimum toward
critical damping, and giving each damping the natural frequency that
makes the rise or settling requirement bind, produces the wd table.
Multiplying each natural frequency by i = 1..wi yields the harmonic
families whose frequency responses will be bounded.
"""

import numpy as np

from trackbounds import (
    Spec,
    build_wd,
    format_wd_table,
    freq_response,
    make_grid,
    make_tf,
    scale_omega,
)

spec = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)
print(f"specification: Mp <= {spec.mp}, tr <= {spec.tr} s, ts <= {spec.ts} s, "
      f"band {spec.dev}, harmonics up to {spec.wi}")

# ---------------------------------------------------------------------------
# the damping sweep
# ---------------------------------------------------------------------------
table = build_wd(spec, 0.05)
print(f"\nwd table ({len(table)} pairs):")
print(format_wd_table(table), end="")

# every pair meets the same time-domain numbers; the trade is bandwidth
# against damping: stiffer damping needs a faster natural frequency
zetas = table.zetas()
omegas = table.omega_ns()
print(f"zeta spans  {zetas[0]:.4f} .. {zetas[-1]:.4f}")
print(f"omega spans {omegas[0]:.4f} .. {omegas[-1]:.4f} rad/s")

# ---------------------------------------------------------------------------
# harmonic families
# ---------------------------------------------------------------------------
grid = make_grid(0.01, 100.0, 5)
print("\n|T(j omega)| for the least-damped member at each harmonic:")
print("omega:      " + "  ".join(f"{w:8.3f}" for w in grid.omegas))
for i in (1, 2, 5):
    member = make_tf(scale_omega(table.pairs[0], i))
    mags = freq_response(member, grid).magnitude()
    print(f"i = {i}:      " + "  ".join(f"{m:8.4f}" for m in mags))

print("\nhigher harmonics hold their gain further out in frequency,")
print("which is what widens the band the bounds must cover.")
