"""From couplings to maps: transport rays and monotone rearrangement.

The support of a cyclically monotone coupling splits into transport rays --
maximal causal lines each carrying a one-dimensional transport. Along one
ray the total cost depends only on the marginals, so mass can be re-paired
monotonically in time; when the source is refined enough that no atom has
to split, this produces a genuine map with the optimal cost.
"""

from lorot import (
    MongeMap,
    monge_map,
    ray_decomposition,
    separated_rays_problem,
    solve,
)

problem = separated_rays_problem(seed=3)
print(f"=== Instance: {problem.mu.n_atoms} source atoms, "
      f"{problem.nu.n_atoms} target atoms ===")

coupling, _ = solve(problem)
print(f"  optimal cost {coupling.total_cost:+.6f} on {coupling.n_entries} arcs")

rays = ray_decomposition(problem.model, coupling)
print(f"  support decomposes into {len(rays)} rays:")
for k, ray in enumerate(rays):
    print(f"    ray {k}: {len(ray.mu_atoms)} sources over {len(ray.nu_atoms)} "
          f"targets, time span [{ray.mu_taus[0]:.3f}, {ray.nu_taus[-1]:.3f}]")

print()
print("=== Per-ray cumulative masses drive the rearrangement ===")
ray = rays[0]
cdf_mu, cdf_nu = ray.cdf_mu(), ray.cdf_nu()
print("  source levels:", [f"{v:.3f}" for v in cdf_mu.cumulative])
print("  target levels:", [f"{v:.3f}" for v in cdf_nu.cumulative])
print("  each source atom lands on the first target whose level covers it")

# the coupling and its rays are still held here, so monge_map reuses both
out = monge_map(problem.model, problem)
assert isinstance(out, MongeMap) and out.rays is rays
print()
print(f"=== The map ===")
print(f"  assignment (source -> target): {out.assignment}")
print(f"  map cost {out.total_cost:+.6f} vs coupling cost "
      f"{coupling.total_cost:+.6f} (difference "
      f"{abs(out.total_cost - coupling.total_cost):.1e})")

print()
print("When an atom is forced to split, the outcome says so instead of")
print("pretending a map exists:")
from lorot import DiscreteMeasure, Minkowski, TransportProblem  # noqa: E402

mk = Minkowski(1)
mu = DiscreteMeasure.from_atoms([(mk.make_point([0.0], 0.0), 1.0)])
nu = DiscreteMeasure.from_atoms(
    [(mk.make_point([0.0], 2.0), 0.5), (mk.make_point([0.0], 3.0), 0.5)]
)
print(" ", monge_map(mk, TransportProblem(mk, mu, nu)))
print("  (refining the source to two atoms of weight 1/2 fixes it)")
mu2 = DiscreteMeasure.from_atoms(
    [(mk.make_point([0.0], 0.0), 0.5), (mk.make_point([0.0], 0.5), 0.5)]
)
print(" ", monge_map(mk, TransportProblem(mk, mu2, nu)))
