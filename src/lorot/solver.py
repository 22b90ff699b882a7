"""Exact Kantorovich solver for atomic marginals with extended-real costs.

Pairs outside the causal cone carry infinite cost and are excluded from the
arc set; the remaining problem is a plain transportation problem. It is
solved by the transportation network simplex (Ahuja, Magnanti and Orlin,
*Network Flows*, ch. 11; the exact solver behind POT's ``ot.emd``, Bonneel
et al. 2011):

* The basis is a spanning tree over the n + m atoms, rooted at mu-atom 0.
  Its arcs carry exact integer flows; the potentials are read off the tree.
* The start is the north-west-corner staircase in the canonical atom order.
  On a tie the column advances, so every zero-flow arc points away from the
  root and the tree is strongly feasible (Cunningham 1976).
* Each pivot prices every finite arc with one ``argmin`` over the reduced
  costs ``C + u - v``; the lowest flat index wins ties.
* The leaving arc is the last blocking arc met going round the cycle from
  its apex down to the entering arc's nu-atom, across the entering arc and
  back up. This keeps the tree strongly feasible, so the method cannot cycle.
* Staircase cells whose pair is not causal are artificial arcs. They cost 1
  in a second, artificial cost that is compared before the real one, so no
  big-M constant enters float arithmetic; other non-causal pairs are not
  priced. An artificial arc still carrying flow at the optimum is stranded
  mass: every non-causal pair is then priced as an artificial arc, so that
  the least mass stays stranded, and :class:`Infeasible` names the lowest
  mu-atom that still ships on an artificial arc and its exact mass there.
* The returned duals are the real potentials plus lambda times the
  artificial ones, with lambda the smallest value that makes every finite
  arc dual feasible; lambda is 0 when no artificial arc stays in the basis.

Marginal weights are rescaled to a common integer denominator (every
binary64 weight is an exact dyadic rational), so row and column sums of the
returned coupling match the input weights exactly in rational arithmetic.
Costs stay in binary64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import Infeasible, SchemaError, TooLarge
from .measures import DiscreteMeasure, measure_from_json
from .spacetime import SpacetimeModel, model_from_config

ORACLE_CAP = 6
#: an arc enters the basis when its reduced cost is below -PRICE_TOL * (1 + max |C|)
PRICE_TOL = 1e-11
PROBLEM_FIELDS = ("model", "mu", "nu")


@dataclass(frozen=True)
class TransportProblem:
    model: SpacetimeModel
    mu: DiscreteMeasure
    nu: DiscreteMeasure

    def cost_matrix(self) -> np.ndarray:
        """The n x m costs of mu against nu, +inf on non-causal pairs.

        Computed on the first call; every later call returns the same
        read-only array, so every layer prices this problem alike.
        """
        if "_cost" not in self.__dict__:
            C = self.model.cost_matrix(self.mu.coords_array(), self.nu.coords_array())
            C.setflags(write=False)
            object.__setattr__(self, "_cost", C)
        return self._cost


@dataclass(frozen=True)
class Coupling:
    """Sparse nonnegative coupling of the marginals of ``problem``, supported
    on finite arcs.

    ``entries`` is sorted by (i, j). When the coupling comes out of the exact
    solver, ``exact_masses`` are its masses as Python integers over the one
    ``exact_denominator``; each float mass is ``q / exact_denominator``,
    correctly rounded.
    """

    problem: TransportProblem
    entries: tuple[tuple[int, int, float], ...]
    total_cost: float
    exact_masses: tuple[int, ...] | None = None
    exact_denominator: int | None = None

    @property
    def mu(self) -> DiscreteMeasure:
        return self.problem.mu

    @property
    def nu(self) -> DiscreteMeasure:
        return self.problem.nu

    def cost_matrix(self, model) -> np.ndarray:
        """The problem's cost matrix; ``model`` must be the problem's own."""
        if model != self.problem.model:
            raise ValueError(
                f"coupling is priced under {self.problem.model!r}, not {model!r}"
            )
        return self.problem.cost_matrix()

    @classmethod
    def from_entries(cls, problem, entries, exact_masses=None, exact_denominator=None):
        order = sorted(range(len(entries)), key=lambda k: (entries[k][0], entries[k][1]))
        entries = tuple(
            (int(entries[k][0]), int(entries[k][1]), float(entries[k][2])) for k in order
        )
        if exact_masses is not None:
            exact_masses = tuple(exact_masses[k] for k in order)
        if not entries:
            raise ValueError("coupling must have at least one entry")
        C = problem.cost_matrix()
        for i, j, mass in entries:
            if not mass > 0:
                raise ValueError(f"entry ({i},{j}) has nonpositive mass {mass}")
            if not np.isfinite(C[i, j]):
                raise ValueError(f"entry ({i},{j}) pairs non-causal atoms")
        total = float(sum(mass * C[i, j] for i, j, mass in entries))
        return cls(problem, entries, total, exact_masses, exact_denominator)

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


def _integer_marginals(wa, wb):
    """Put both weight vectors over their least common denominator.

    Floats are exact dyadic rationals, so this is lossless. When the two
    exact totals differ (each is only within 1e-12 of one), the demand side
    is rescaled by the ratio of totals so supply and demand balance exactly;
    the relative adjustment is below 1e-11. Returns ``(a, b, denom)``.
    """
    ra = [w.as_integer_ratio() for w in wa]
    rb = [w.as_integer_ratio() for w in wb]
    denom = lcm(*[d for _, d in itertools.chain(ra, rb)])
    a = [p * (denom // d) for p, d in ra]
    b = [p * (denom // d) for p, d in rb]
    sa, sb = sum(a), sum(b)
    if sa != sb:
        # b scaled by sa / sb, with a and b over denom * (sb / g)
        g = gcd(sa, sb)
        a = [q * (sb // g) for q in a]
        b = [q * (sa // g) for q in b]
        denom *= sb // g
    assert sum(a) == sum(b)
    g = gcd(denom, *a, *b)
    return [q // g for q in a], [q // g for q in b], denom // g


def _staircase(supplies, demands):
    """North-west-corner cells ``(i, j, mass)`` in staircase order.

    Each cell ships what is left of row i or of column j, whichever is less.
    On a tie the column advances, so the zero-mass cell that follows joins
    mu-atom i to the next nu-atom.
    """
    cells = []
    i = j = 0
    a, b = supplies[0], demands[0]
    while True:
        q = min(a, b)
        cells.append((i, j, q))
        a -= q
        b -= q
        if b == 0 and j + 1 < len(demands):
            j += 1
            b = demands[j]
        elif i + 1 < len(supplies):
            i += 1
            a = supplies[i]
        else:
            return cells


class _Basis:
    """Spanning-tree basis over the atoms: node i is mu-atom i, node n + j is
    nu-atom j, and the root is mu-atom 0.

    Every other node x stores the arc between it and ``parent[x]``: its
    integer flow and whether it is artificial (its pair is not causal).
    ``pot`` holds the real potentials (u on mu-nodes, v on nu-nodes) and
    ``art`` the artificial ones; each makes its reduced cost
    ``cost + u[i] - v[j]`` zero on every tree arc (i, j).
    """

    def __init__(self, C, supplies, demands):
        self.C = C
        n = self.n = len(supplies)
        size = n + len(demands)
        self.parent = [-1] * size
        self.flow = [0] * size
        self.artificial = [False] * size
        self.children = [set() for _ in range(size)]
        self.depth = [0] * size
        self.pot = [0.0] * size
        self.art = [0] * size
        prev_i = 0
        for i, j, q in _staircase(supplies, demands):
            # each cell after the first brings in one atom: a mu-atom when
            # the row advanced, else a nu-atom
            x, p = (i, n + j) if i != prev_i else (n + j, i)
            prev_i = i
            self.parent[x], self.flow[x] = p, q
            self.artificial[x] = not np.isfinite(C[i, j])
            self.children[p].add(x)
        self.n_artificial = sum(self.artificial)
        for x in self.children[0]:
            self._relabel(x)

    def potentials(self, art=False):
        pot = np.array(self.art if art else self.pot)
        return pot[: self.n], pot[self.n:]

    def arcs(self):
        """``(i, j, flow, artificial)`` for every tree arc."""
        n = self.n
        for x, p in enumerate(self.parent):
            if p >= 0:
                i, j = (x, p - n) if x < n else (p, x - n)
                yield i, j, self.flow[x], self.artificial[x]

    def stranded(self):
        """Mass each mu-atom ships on artificial arcs, where it is nonzero."""
        out = {}
        for i, _, q, artificial in self.arcs():
            if artificial and q:
                out[i] = out.get(i, 0) + q
        return out

    def _relabel(self, top):
        """Set depth and potentials of ``top`` and its subtree."""
        n, C = self.n, self.C
        parent, depth, pot, art = self.parent, self.depth, self.pot, self.art
        stack = [top]
        while stack:
            x = stack.pop()
            p = parent[x]
            depth[x] = depth[p] + 1
            c, a = (0.0, 1) if self.artificial[x] else (C.item(min(x, p), max(x, p) - n), 0)
            if x >= n:
                pot[x] = pot[p] + c
                art[x] = art[p] + a
            else:
                pot[x] = pot[p] - c
                art[x] = art[p] - a
            stack.extend(self.children[x])

    def pivot(self, i, j):
        """Bring arc (i, j) into the tree and drive one blocking arc out."""
        n, parent, flow, depth = self.n, self.parent, self.flow, self.depth
        # climb to the apex; the tree arcs of the cycle are those above the
        # nodes of side_i (from mu-atom i up) and side_j (from nu-atom j up)
        side_i, side_j = [], []
        x, y = i, n + j
        while depth[x] > depth[y]:
            side_i.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            side_j.append(y)
            y = parent[y]
        while x != y:
            side_i.append(x)
            x = parent[x]
            side_j.append(y)
            y = parent[y]
        # walk the cycle from the apex down to nu-atom j, across to mu-atom i
        # and back up; flow rises on (i, j), so it falls on the arcs above the
        # nu-atoms of side_j and the mu-atoms of side_i
        walk = [(y, y >= n) for y in reversed(side_j)] + [(x, x < n) for x in side_i]
        delta = min(flow[x] for x, falls in walk if falls)
        leave = next(x for x, falls in reversed(walk) if falls and flow[x] == delta)
        if delta:
            for x, falls in walk:
                flow[x] += -delta if falls else delta
        # hang the subtree cut off by the leaving arc from the entering arc,
        # reversing the tree path in between
        top, side, p = (i, side_i, n + j) if leave in side_i else (n + j, side_j, i)
        q, artificial = delta, not np.isfinite(self.C[i, j])
        self.n_artificial += artificial
        for x in side[: side.index(leave) + 1]:
            self.children[parent[x]].discard(x)
            self.children[p].add(x)
            p, parent[x] = x, p
            q, flow[x] = flow[x], q
            artificial, self.artificial[x] = self.artificial[x], artificial
        self.n_artificial -= artificial
        self._relabel(top)


def _optimize(basis, cost, tol):
    """Pivot until no arc prices below ``-tol``; return the final ``(u, v)``
    and reduced costs.

    Arcs where ``cost`` is finite are priced. Their artificial cost (1 on
    non-causal pairs) is compared first, their real cost ``cost`` second.
    """
    m = cost.shape[1]
    priced = np.isfinite(cost)
    noncausal = ~np.isfinite(basis.C)
    rc = np.empty_like(cost)
    while True:
        u, v = basis.potentials()
        np.add(cost, u[:, None], out=rc)
        rc -= v
        key = rc
        if basis.n_artificial:
            ua, va = basis.potentials(art=True)
            ra = ua[:, None] - va + noncausal
            key = rc.copy()
            key[ra > 0] = np.inf
            key[(ra < 0) & priced] = -np.inf
        k = int(np.argmin(key))
        if not key.flat[k] < -tol:
            return u, v, rc
        basis.pivot(*divmod(k, m))


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
    basis = _Basis(C, supplies, demands)
    tol = PRICE_TOL * (1.0 + float(np.max(np.abs(C[finite]))))
    u, v, rc = _optimize(basis, C, tol)
    if basis.stranded():
        # so far only staircase cells could hold the stranded mass; offer it
        # every non-causal pair, so that what stays stranded is the least
        _optimize(basis, np.where(finite, C, 0.0), tol)
        i, q = min(basis.stranded().items())
        raise Infeasible(
            f"mu-atom {i} cannot place mass {Fraction(q, denom)}: "
            "no causal coupling carries all of mu"
        )

    if basis.n_artificial:
        # lift the real duals along the artificial ones, just far enough to
        # make every finite arc dual feasible
        ua, va = basis.potentials(art=True)
        ra = ua[:, None] - va
        lift = finite & (ra > 0)
        lam = max(0.0, float(np.max(-rc[lift] / ra[lift]))) if lift.any() else 0.0
        u, v = u + lam * ua, v + lam * va

    arcs = [(i, j, q) for i, j, q, artificial in basis.arcs() if q and not artificial]
    coupling = Coupling.from_entries(
        problem, [(i, j, q / denom) for i, j, q in arcs],
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
        return Coupling.from_entries(problem, entries)

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
    return Coupling.from_entries(problem, entries)


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
