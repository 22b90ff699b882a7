"""Solving the causal transport problem exactly, with dual certificates.

Mass may only move forward in time and inside the light cone; the solver
excludes all other arcs and minimizes the (negative) total time separation.
Because the weights are rescaled to exact integers internally, marginals
are met exactly, and the transportation network simplex hands back LP dual
variables, read off its final spanning tree, certifying optimality.
"""

import numpy as np

from lorot import (
    DiscreteMeasure,
    DualPotential,
    Minkowski,
    TransportProblem,
    audit,
    brute_force_oracle,
    chain_potential,
    dkp_verify,
    dual_objective,
    solve,
)

mk = Minkowski(1)

print("=== A 2x2 instance ===")
mu = DiscreteMeasure.from_atoms(
    [(mk.make_point([0.0], 0.0), 0.5), (mk.make_point([1.0], 0.0), 0.5)]
)
nu = DiscreteMeasure.from_atoms(
    [(mk.make_point([0.0], 2.0), 0.5), (mk.make_point([1.0], 2.0), 0.5)]
)
problem = TransportProblem(mk, mu, nu)
coupling, (u, v) = solve(problem)
print("  optimal entries (i, j, mass):", coupling.entries)
print(f"  total cost {coupling.total_cost}  "
      f"(the straight-up pairing beats the crossing, -2 < -sqrt(3))")
print(f"  dual objective {dual_objective(coupling, (u, v))}, gap "
      f"{abs(coupling.total_cost - dual_objective(coupling, (u, v))):.1e}")

oracle = brute_force_oracle(problem)
print(f"  the independent assignment oracle agrees: {oracle.total_cost}")

print()
print("=== Dual potentials from the chain construction ===")
psi = chain_potential(mk, coupling)
print("  psi on the sources:", psi)
potential = DualPotential.from_psi(mk, mu, psi, nu)
print("  phi on the targets:", np.asarray(potential.phi))
report = dkp_verify(mk, coupling, potential, tol=1e-10)
print(f"  feasibility and support tightness: {report.feasible}, "
      f"{report.support_tight} (max violation {report.max_violation:.1e})")

print()
print("=== The standard audit ===")
diag = audit(mk, problem, coupling, (u, v))
for key, value in diag.as_dict().items():
    print(f"  {key:>24s} = {value}")
print("  (min_margin = 2: both arcs are two full time units inside the cone)")
