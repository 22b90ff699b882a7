"""A dual potential that exists but is not Lipschitz.

On the cylinder, take the potential induced by a height profile that is
flat on part of the circle and dips through zero with a square-root cusp.
The matched target of each source solves a critical-point equation; near
the cusp the profile's slope diverges and drags the transport direction
onto the light cone, yet the transport stays uniformly away from the
opposite cone edge. The pair of marginals is strictly timelike even though
the coupling grazes the cone: existence of a dual potential does not give
Lipschitz control.
"""

import numpy as np

from lorot import build_profile, cylinder_potential, run_cylinder_example

eps = 0.25

print("=== The cusp profile ===")
f = build_profile(eps)
print("  piecewise on [0,5]: flat 1+eps | upper arch | lower arch | flat eps-1 | cosine")
for x in (0.5, 1.5, 2.0, 2.5, 3.5, 4.5):
    print(f"  f({x}) = {f(x):+.4f}    f'({x}) = {f.derivative(x):+.4f}")
print("  f has a square-root cusp through zero at x = 2 (derivative -> -inf).")

print()
print("=== The induced potential on the cylinder ===")
targets = np.array([[0.5, 1.0], [2.0, 0.5], [3.3, 0.8]])
for (theta, t), phi in zip(targets, cylinder_potential(f, targets, 20000)):
    print(f"  phi(({theta}; {t})) = {phi:+.6f}")

print()
print("=== The subdifferential transport field at t = 1 ===")
report = run_cylinder_example(eps, 10000, 1.0)
for eta in (0.1, 0.05, 0.01):
    m = report.scalars[f"near_null_measure_eta_{eta}"].value
    print(f"  measure of sources with cone margin < {eta:<5}: {m:.4f}  (positive)")
print(f"  min distance to the trailing cone point: "
      f"{report.scalars['delta_trailing_cone'].value:.3g}")
print(f"  min distance to the leading cone point:  "
      f"{report.scalars['delta_leading_cone'].value:.3g}  "
      f"(stable as the grid refines)")

table = report.tables["subdifferential"]
margins, thetas = table["margin"], table["theta"]
print()
print("Margin profile along the circle (min over bands of width 0.5):")
for lo in np.arange(0.0, 5.0, 0.5):
    band = margins[(thetas >= lo) & (thetas < lo + 0.5)]
    bar = "#" * max(1, int(40 * band.min()))
    print(f"  theta in [{lo:.1f},{lo + 0.5:.1f}): min margin {band.min():.3f} {bar}")
print("  (the margins vanishing around theta = 2 are the cusp at work; the")
print("   0.047 floor on the cosine piece is set by its maximal slope pi)")
