"""Exact Kantorovich solver for atomic marginals with extended-real costs.

Pairs outside the causal cone carry infinite cost and are simply excluded
from the arc set; the remaining problem is a plain transportation problem.
It is solved by successive shortest paths with node potentials on the
bipartite graph of finite arcs (Ahuja, Magnanti and Orlin, *Network Flows*,
ch. 9), which handles forbidden arcs natively and produces LP dual variables
for free. Each shortest-path search is one Dijkstra over the nu-atoms: arcs
of the current support have reduced cost zero, so a mu-atom is reached at
the distance of the first settled nu-atom it ships to. Ties go to the lowest
index, which makes the coupling and the duals deterministic.

Marginal weights are rescaled to a common integer denominator (every
binary64 weight is an exact dyadic rational), so row and column sums of the
returned coupling match the input weights exactly in rational arithmetic.
Costs stay in binary64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import Infeasible, SchemaError, TooLarge
from .measures import DiscreteMeasure, measure_from_json
from .spacetime import SpacetimeModel, model_from_config

ORACLE_CAP = 6
PROBLEM_FIELDS = ("model", "mu", "nu")


@dataclass(frozen=True)
class TransportProblem:
    model: SpacetimeModel
    mu: DiscreteMeasure
    nu: DiscreteMeasure

    def cost_matrix(self) -> np.ndarray:
        return self.model.cost_matrix(self.mu.coords_array(), self.nu.coords_array())


@dataclass(frozen=True)
class Coupling:
    """Sparse nonnegative coupling of mu and nu, supported on finite arcs.

    ``entries`` is sorted by (i, j). When the coupling comes out of the exact
    solver, ``exact_masses``/``exact_denominator`` carry the masses as
    integers over a common denominator; the float masses are these rationals
    correctly rounded.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    entries: tuple[tuple[int, int, float], ...]
    total_cost: float
    exact_masses: tuple[int, ...] | None = None
    exact_denominator: int | None = None

    @classmethod
    def from_entries(cls, model, mu, nu, entries, exact_masses=None, exact_denominator=None):
        order = sorted(range(len(entries)), key=lambda k: (entries[k][0], entries[k][1]))
        entries = tuple(
            (int(entries[k][0]), int(entries[k][1]), float(entries[k][2])) for k in order
        )
        if exact_masses is not None:
            exact_masses = tuple(exact_masses[k] for k in order)
        if not entries:
            raise ValueError("coupling must have at least one entry")
        C = model.cost_matrix(mu.coords_array(), nu.coords_array())
        for i, j, mass in entries:
            if not mass > 0:
                raise ValueError(f"entry ({i},{j}) has nonpositive mass {mass}")
            if not np.isfinite(C[i, j]):
                raise ValueError(f"entry ({i},{j}) pairs non-causal atoms")
        total = float(sum(mass * C[i, j] for i, j, mass in entries))
        return cls(mu, nu, entries, total, exact_masses, exact_denominator)

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def index_arrays(self):
        ii = np.array([e[0] for e in self.entries], dtype=np.int64)
        jj = np.array([e[1] for e in self.entries], dtype=np.int64)
        mm = np.array([e[2] for e in self.entries], dtype=float)
        return ii, jj, mm

    def entry_coords(self):
        """Coordinate rows (time last) of each entry's source and target."""
        ii, jj, _ = self.index_arrays()
        return self.mu.coords_array()[ii], self.nu.coords_array()[jj]

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.mu.n_atoms)
        for i, _, mass in self.entries:
            out[i] += mass
        return out

    def col_sums(self) -> np.ndarray:
        out = np.zeros(self.nu.n_atoms)
        for _, j, mass in self.entries:
            out[j] += mass
        return out

    def exact_mass_fractions(self):
        if self.exact_masses is None:
            return None
        d = self.exact_denominator
        return [Fraction(m, d) for m in self.exact_masses]


def _integer_marginals(wa, wb):
    """Scale both weight vectors to integers over a common denominator.

    Floats are exact dyadic rationals, so this is lossless. When the two
    exact totals differ (each is only within 1e-12 of one), the demand side
    is rescaled by the ratio of totals so supply and demand balance exactly;
    the relative adjustment is below 1e-11.
    """
    fa = [Fraction(w) for w in wa]
    fb = [Fraction(w) for w in wb]
    sa, sb = sum(fa), sum(fb)
    if sa != sb:
        scale = sa / sb
        fb = [w * scale for w in fb]
    denom = lcm(*[f.denominator for f in itertools.chain(fa, fb)])
    a = [int(f * denom) for f in fa]
    b = [int(f * denom) for f in fb]
    assert sum(a) == sum(b)
    return a, b, denom


def solve(problem: TransportProblem):
    """Minimize the Lorentzian cost over couplings of (mu, nu).

    Returns ``(coupling, (u, v))`` where the coupling attains the minimum
    over all couplings supported on finite-cost arcs and the LP duals
    satisfy ``v[j] - u[i] <= cost(i, j)`` on every finite arc with equality
    on the support. Raises :class:`Infeasible` when no causal coupling
    exists.
    """
    mu, nu = problem.mu, problem.nu
    C = problem.cost_matrix()
    n, m = C.shape
    finite = np.isfinite(C)
    for side, other, axis in (("mu", "nu", 1), ("nu", "mu", 0)):
        alone = np.flatnonzero(~finite.any(axis=axis))
        if len(alone):
            raise Infeasible(
                f"{side}-atom {alone[0]} has no causal partner among the {other}-atoms"
            )

    supplies, demands, denom = _integer_marginals(mu.weights, nu.weights)
    rem_a = list(supplies)
    rem_b = list(demands)

    u = np.zeros(n)
    v = C.min(axis=0)  # finite: every nu-atom has a causal partner
    flow: list[dict[int, int]] = [{} for _ in range(m)]  # flow[j][i]: mass i ships to j

    while sources := [i for i, a in enumerate(rem_a) if a > 0]:
        rc = C + u[:, None] - v[None, :]
        np.maximum(rc, 0.0, out=rc)

        # Dijkstra over the nu-atoms; ``via`` maps each reached mu-atom to
        # the settled nu-atom it ships to that reached it (-1 for a source)
        dist = np.full(m, np.inf)
        pred = np.full(m, -1, dtype=np.int64)
        done = np.zeros(m, dtype=bool)
        via = dict.fromkeys(sources, -1)
        rows, d = sources, 0.0
        while True:
            for i in rows:
                nd = d + rc[i]
                better = (nd < dist) & ~done
                dist[better] = nd[better]
                pred[better] = i
            open_dist = np.where(done, np.inf, dist)
            j = int(np.argmin(open_dist))
            d = open_dist[j]
            if d == np.inf:
                # no augmenting path: the flow is maximal and some supply is stranded
                raise Infeasible(
                    f"mu-atom {sources[0]} cannot place mass "
                    f"{Fraction(rem_a[sources[0]], denom)}: "
                    "every nu-atom it can reach is already full"
                )
            done[j] = True
            if rem_b[j] > 0:
                break
            rows = [i for i in sorted(flow[j]) if i not in via]
            via.update(dict.fromkeys(rows, j))

        du = np.full(n, d)
        for i, k in via.items():
            du[i] = dist[k] if k >= 0 else 0.0
        u += du
        v += np.minimum(dist, d)

        # augment along the path from a source to nu-atom j: each mu-atom on
        # it ships delta more to the nu-atom it relaxed and, unless it is the
        # source, delta less to the nu-atom it was reached through
        path = []
        k = j
        while k >= 0:
            i = int(pred[k])
            path.append((i, k, via[i]))
            k = via[i]
        # the walk ends at the source i
        delta = min(rem_a[i], rem_b[j],
                    *(flow[back][i2] for i2, _, back in path if back >= 0))
        for i2, fwd, back in path:
            flow[fwd][i2] = flow[fwd].get(i2, 0) + delta
            if back >= 0:
                flow[back][i2] -= delta
                if not flow[back][i2]:
                    del flow[back][i2]
        rem_a[i] -= delta
        rem_b[j] -= delta

    arcs = [(i, j, q) for j, col in enumerate(flow) for i, q in col.items()]
    coupling = Coupling.from_entries(
        problem.model, mu, nu, [(i, j, float(Fraction(q, denom))) for i, j, q in arcs],
        exact_masses=[q for *_, q in arcs], exact_denominator=denom,
    )
    return coupling, (u, v)


def dual_objective(coupling: Coupling, duals) -> float:
    u, v = duals
    return float(
        np.dot(coupling.nu.weights_array(), v) - np.dot(coupling.mu.weights_array(), u)
    )


def brute_force_oracle(problem: TransportProblem) -> Coupling:
    """Independent exact optimum for small instances.

    With equal atom counts and uniform weights the vertices of the coupling
    polytope are permutation matrices, so the optimum is found by enumerating
    permutations that avoid forbidden arcs. Other small instances are solved
    by linear programming (scipy HiGHS), an entirely separate code path from
    :func:`solve`. Raises :class:`TooLarge` above the size cap.
    """
    mu, nu = problem.mu, problem.nu
    n, m = mu.n_atoms, nu.n_atoms
    if n > ORACLE_CAP or m > ORACLE_CAP:
        raise TooLarge(f"oracle handles at most {ORACLE_CAP} atoms per side")
    C = problem.cost_matrix()
    wa = mu.weights_array()
    wb = nu.weights_array()

    uniform = (
        n == m
        and np.all(wa == wa[0])
        and np.all(wb == wb[0])
        and wa[0] == wb[0]
    )
    if uniform:
        best_total = np.inf
        best_sigma = None
        rows = np.arange(n)
        for sigma in itertools.permutations(range(n)):
            costs = C[rows, sigma]
            if not np.isfinite(costs).all():
                continue
            total = float(np.dot(wa, costs))
            if total < best_total:
                best_total = total
                best_sigma = sigma
        if best_sigma is None:
            raise Infeasible("no permutation avoids the forbidden arcs")
        entries = [(i, best_sigma[i], wa[i]) for i in range(n)]
        return Coupling.from_entries(problem.model, mu, nu, entries)

    from scipy.optimize import linprog

    arcs = [(i, j) for i in range(n) for j in range(m) if np.isfinite(C[i, j])]
    if not arcs:
        raise Infeasible("no causal arcs at all")
    costs = np.array([C[i, j] for i, j in arcs])
    a_eq = np.zeros((n + m, len(arcs)))
    for k, (i, j) in enumerate(arcs):
        a_eq[i, k] = 1.0
        a_eq[n + j, k] = 1.0
    b_eq = np.concatenate([wa, wb])
    res = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        raise Infeasible("no causal coupling exists")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    entries = [
        (arcs[k][0], arcs[k][1], res.x[k]) for k in range(len(arcs)) if res.x[k] > 1e-13
    ]
    return Coupling.from_entries(problem.model, mu, nu, entries)


def check_problem_fields(obj) -> None:
    """Raise :class:`SchemaError` unless ``obj`` is an object with no field
    outside ``PROBLEM_FIELDS``; the error names the unknown fields."""
    if not isinstance(obj, dict):
        raise SchemaError("problem must be a JSON object")
    unknown = sorted(set(obj) - set(PROBLEM_FIELDS))
    if unknown:
        raise SchemaError(
            f"problem has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(PROBLEM_FIELDS)}"
        )


def problem_from_json(obj: dict) -> TransportProblem:
    """Parse the canonical problem JSON: exactly the fields model, mu and nu."""
    check_problem_fields(obj)
    for key in PROBLEM_FIELDS:
        if key not in obj:
            raise SchemaError(f"problem is missing the {key!r} field")
    model = model_from_config(obj["model"])
    mu = measure_from_json(model, obj["mu"])
    nu = measure_from_json(model, obj["nu"])
    return TransportProblem(model, mu, nu)


def problem_to_json(problem: TransportProblem) -> dict:
    return {
        "model": problem.model.to_config(),
        "mu": problem.mu.to_json_obj(),
        "nu": problem.nu.to_json_obj(),
    }
