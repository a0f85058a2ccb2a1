"""Collapsing a curve family into two bounds by endpoint restriction.

The cheapest way to bound a family is to pick whole members: at the low
end of the grid the base family's smallest magnitude gives the lower
bound and the highest harmonic's largest magnitude gives the upper; at
the high end the same rule picks a different pair. The round trip closes
the loop back to time-domain numbers: both bounds are family members, so
it reads their overshoot, rise and settling times from the same closed
form and crossing solver as the damping sweep, with no simulation.
"""

from trackbounds import (
    Spec,
    build_wd,
    make_grid,
    round_trip,
    select_restricted,
)

spec = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)
table = build_wd(spec, 0.05)
grid = make_grid(0.01, 100.0, 200)


def describe(name, tf):
    num = ", ".join(f"{c:.6g}" for c in tf.num)
    den = ", ".join(f"{c:.6g}" for c in tf.den)
    print(f"  {name}: ({num}) / ({den})")


for end in ("low", "high"):
    pair = select_restricted(table, spec.wi, grid, end)
    print(f"\nrestriction at the {end}-frequency end (mode {end}):")
    describe("lower", pair.lower)
    describe("upper", pair.upper)

    # round trip: measure both bounds against their DC gains
    result = round_trip(pair, spec)
    for name, m in (("lower", result.lower), ("upper", result.upper)):
        print(f"  {name} round trip: Mp = {m.mp:.4f}, tr = {m.tr:.3f} s, "
              f"ts = {m.ts:.3f} s, final = {m.final_value:.4f}")

print("\nthe upper bounds come from the 5th-harmonic family, so their rise")
print("and settling run five times faster than the base specification.")
