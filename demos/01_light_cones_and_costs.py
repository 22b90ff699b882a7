"""Light cones, causal classes, and the Lorentzian cost.

The cost of an ordered pair of events is minus their time separation when
the second event is reachable from the first without exceeding light speed,
and infinite otherwise. This script walks through the basic geometry on
flat Minkowski space and on the spatial circle (cylinder).
"""

import numpy as np

from lorot import Cylinder, Minkowski

mk = Minkowski(1)
cyl = Cylinder(5.0)

print("=== Minkowski(1): one spatial dimension plus time ===")
origin = mk.make_point([0.0], 0.0)
for spatial, t, label in [
    (0.0, 1.0, "straight up in time"),
    (1.0, 1.0, "on the light cone"),
    (0.6, 1.0, "inside the cone"),
    (2.0, 1.0, "outside the cone"),
    (0.0, -1.0, "into the past"),
]:
    target = mk.make_point([spatial], t)
    c = mk.cost(origin, target)
    cls = mk.causal_class(origin, target).value
    margin = mk.cone_margin(origin, target)
    print(f"  to ({spatial:+.1f}; {t:+.1f})  [{label:>20s}]  "
          f"class={cls:<13s} margin={margin:+.2f}  cost={c}")

print()
print("The cone margin dtau - |dx| tells the class at a glance:")
print("  positive -> timelike (negative cost), zero -> lightlike (zero cost),")
print("  negative -> not causally reachable (infinite cost).")

print()
print("=== Geodesics are straight, parametrized affinely in time ===")
x = mk.make_point([0.0], 0.0)
y = mk.make_point([0.5], 2.0)
for t in (0.0, 0.25, 0.5, 1.0):
    print(f"  gamma({t:.2f}) = {mk.geodesic_point(x, y, t)}")
mid = mk.geodesic_point(x, y, 0.5)
print("  additivity on the segment:",
      mk.cost(x, mid) + mk.cost(mid, y), "==", mk.cost(x, y))

print()
print("=== Cylinder: displacement is minimized over windings ===")
a = cyl.make_point([4.0], 0.0)
b = cyl.make_point([0.0], 3.0)
print(f"  from (4;0) to (0;3): going right wraps past the seam, distance 1")
print(f"  cost = {cyl.cost(a, b)}   (equals -sqrt(3^2 - 1^2) = -sqrt(8))")
g = cyl.geodesic_point(a, b, 1 / 3)
print(f"  a third of the way: {g}  (the short way around)")

print()
print("=== Reverse triangle inequality (time separations superadd) ===")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    p = mk.make_point(rng.uniform(-1, 1, 1), rng.uniform(-1, 1))
    step1 = rng.uniform(-1, 1, 1)
    q = mk.make_point(np.asarray(p.spatial) + step1,
                      p.time + np.linalg.norm(step1) + rng.uniform(0, 1))
    step2 = rng.uniform(-1, 1, 1)
    r = mk.make_point(np.asarray(q.spatial) + step2,
                      q.time + np.linalg.norm(step2) + rng.uniform(0, 1))
    slack = mk.cost(p, q) + mk.cost(q, r) - mk.cost(p, r)
    worst = max(worst, -slack)
print(f"  cost(x,z) <= cost(x,y) + cost(y,z) over 2000 random causal chains;")
print(f"  worst violation {worst:.2e} (pure rounding)")
