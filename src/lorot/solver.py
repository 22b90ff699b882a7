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
* Each pivot prices every finite arc, walking the rows in blocks; the most
  negative reduced cost ``C + u - v`` enters, the lowest flat index winning
  ties.
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

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd, isfinite
from weakref import ref

import numpy as np

from .errors import Infeasible, SchemaError, TooLarge
from .measures import DiscreteMeasure, measure_from_json
from .spacetime import SpacetimeModel, model_from_config, row_block_buffers

#: atoms a side above which brute_force_oracle raises TooLarge
ORACLE_CAP = 200
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

    def __reduce__(self):  # the cached costs and the held optimum are derived state
        return TransportProblem, (self.model, self.mu, self.nu)


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
    # the (i, j, mass) columns of ``entries`` when the caller already holds
    # them; ``dataclasses.replace`` leaves this None, so a replaced coupling
    # rebuilds its columns from its own entries
    columns: InitVar[tuple | None] = None
    # read-only columns of ``entries``
    _ii: np.ndarray = field(init=False, compare=False, repr=False)
    _jj: np.ndarray = field(init=False, compare=False, repr=False)
    _masses: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self, columns):
        if columns is None:
            columns = [np.array([e[k] for e in self.entries], dtype=dtype)
                       for k, dtype in enumerate((np.int64, np.int64, float))]
        for name, array in zip(("_ii", "_jj", "_masses"), columns):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __reduce__(self):  # from its entries: read-only columns, no kept rays
        return Coupling, (self.problem, self.entries, self.total_cost,
                          self.exact_masses, self.exact_denominator)

    @property
    def mu(self) -> DiscreteMeasure:
        return self.problem.mu

    @property
    def nu(self) -> DiscreteMeasure:
        return self.problem.nu

    def check_model(self, model):
        """``ValueError`` naming both models unless ``model`` is the problem's."""
        if model != self.problem.model:
            raise ValueError(f"coupling is priced under {self.problem.model!r}, not {model!r}")

    def cost_matrix(self, model) -> np.ndarray:
        """The problem's cost matrix, after :meth:`check_model`."""
        self.check_model(model)
        return self.problem.cost_matrix()

    @classmethod
    def from_entries(cls, problem, entries):
        """The coupling of ``problem`` with these ``(i, j, mass)`` entries.

        Raises ``ValueError`` naming the first bad entry in (i, j) order: out
        of range, nonpositive mass, a non-causal pair or a repeated pair; or
        naming the first atom, mu side first, whose row or column sum misses
        its weight w by more than ``1e-9 * (1 + w)``.
        """
        if not len(entries):
            raise ValueError("coupling must have at least one entry")
        ii, jj, masses = zip(*entries)
        try:
            ii, jj = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
        except OverflowError:
            i, j = next((i, j) for i, j, _ in entries if max(abs(int(i)), abs(int(j))) >= 2**63)
            raise ValueError(f"entry ({i},{j}) lies outside the "
                             f"{problem.mu.n_atoms}x{problem.nu.n_atoms} problem") from None
        return cls.from_columns(problem, ii, jj, np.array(masses, dtype=float))

    @classmethod
    def from_columns(cls, problem, ii, jj, masses, exact_masses=None, exact_denominator=None):
        """:meth:`from_entries` for entries held as three equal-length arrays:
        int64 ``ii`` and ``jj`` and float ``masses``, in any order."""
        if not len(ii):
            raise ValueError("coupling must have at least one entry")
        C = problem.cost_matrix()
        n, m = C.shape
        order = np.lexsort((jj, ii))
        ii, jj, masses = ii[order], jj[order], masses[order]
        if exact_masses is not None:
            exact_masses = tuple([exact_masses[k] for k in order.tolist()])
        il, jl = ii.tolist(), jj.tolist()
        inside = 0 <= il[0] and il[-1] < n and 0 <= min(jl) and max(jl) < m
        if inside:
            # the flat index of each pair rises strictly unless a pair repeats
            flat = ii * m + jj
            cost = C.take(flat)
        if not (inside and masses.min() > 0 and np.isfinite(cost).all()
                and (flat[1:] > flat[:-1]).all()):
            raise ValueError(_first_bad_entry(C, ii, jj, masses))
        # summed in (i, j) order, one entry after the other, as a Python loop
        # from 0 would: accumulate adds sequentially, and + 0.0 turns the
        # -0.0 of an all -0.0 sum into the loop's 0.0
        total = float(np.add.accumulate(masses * cost)[-1]) + 0.0
        # both marginals in one count: node i is mu-atom i, node n + j nu-atom j
        w = np.concatenate((problem.mu.weights_array(), problem.nu.weights_array()))
        sums = np.bincount(np.concatenate((ii, jj + n)), np.concatenate((masses, masses)), n + m)
        off = np.abs(sums - w) > 1e-9 * (1.0 + w)
        if off.any():
            k = int(off.argmax())
            side, atom = ("mu", k) if k < n else ("nu", k - n)
            raise ValueError(
                f"{side}-atom {atom} carries mass {float(sums[k])!r} in the coupling, "
                f"not its weight {float(w[k])!r}"
            )
        entries = tuple(zip(il, jl, masses.tolist()))
        return cls(problem, entries, total, exact_masses, exact_denominator,
                   columns=(ii, jj, masses))

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def index_arrays(self):
        """Read-only ``(i, j, mass)`` columns of ``entries``."""
        return self._ii, self._jj, self._masses

    def entry_coords(self):
        """Coordinate rows (time last) of each entry's source and target."""
        ii, jj, _ = self.index_arrays()
        return self.mu.coords_array()[ii], self.nu.coords_array()[jj]


def _first_bad_entry(C, ii, jj, masses):
    """The fault of the first bad entry of columns sorted by (i, j): out of
    range, nonpositive mass, non-causal or repeated, checked in that order."""
    n, m = C.shape
    outside = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= m)
    cost = C[np.where(outside, 0, ii), np.where(outside, 0, jj)]
    checks = (outside, ~(masses > 0), ~np.isfinite(cost),
              np.concatenate(([False], (ii[1:] == ii[:-1]) & (jj[1:] == jj[:-1]))))
    k = int(np.argmax(np.logical_or.reduce(checks)))
    i, j, mass = ii.item(k), jj.item(k), masses.item(k)
    return next(message for check, message in zip(checks, (
        f"entry ({i},{j}) lies outside the {n}x{m} problem",
        f"entry ({i},{j}) has nonpositive mass {mass}",
        f"entry ({i},{j}) pairs non-causal atoms",
        f"entry ({i},{j}) appears more than once",
    )) if check[k])


def _integer_marginals(wa, wb):
    """Put both weight vectors over their least common denominator.

    Floats are exact dyadic rationals, so this is lossless. When the two
    exact totals differ (each is only within 1e-12 of one), the demand side
    is rescaled by the ratio of totals so supply and demand balance exactly;
    the relative adjustment is below 1e-11. Returns ``(a, b, denom)``.
    """
    ra = [w.as_integer_ratio() for w in wa]
    rb = [w.as_integer_ratio() for w in wb]
    # every denominator is a power of two, so their lcm is the largest; the
    # weight with that denominator has an odd numerator (unless the
    # denominator is 1), so a, b and denom share no factor
    denom = max(d for _, d in ra + rb)
    a = [p * (denom // d) for p, d in ra]
    b = [p * (denom // d) for p, d in rb]
    sa, sb = sum(a), sum(b)
    if sa == sb:
        return a, b, denom
    # b scaled by sa / sb, with a and b over denom * (sb / g)
    g = gcd(sa, sb)
    a = [q * (sb // g) for q in a]
    b = [q * (sa // g) for q in b]
    denom *= sb // g
    assert sum(a) == sum(b)
    g = gcd(denom, *a, *b)
    return [q // g for q in a], [q // g for q in b], denom // g


class _Basis:
    """Spanning-tree basis over the atoms: node i is mu-atom i, node n + j is
    nu-atom j, and the root is mu-atom 0.

    Every other node x stores the arc between it and ``parent[x]``: its
    integer flow and whether it is artificial (its pair is not causal).
    ``children[x]`` lists the nodes whose parent is x, and ``depth`` counts
    arcs up to the root. ``pot`` holds the real potentials (u on mu-nodes, v
    on nu-nodes) and ``art`` the artificial ones; each makes its reduced cost
    ``cost + u[i] - v[j]`` zero on every tree arc (i, j).
    """

    def __init__(self, C, supplies, demands):
        """The north-west-corner staircase: each cell ships what is left of
        row i or of column j, whichever is less. On a tie the column
        advances, so the zero-flow cell that follows joins mu-atom i to the
        next nu-atom."""
        self.C = C
        n = self.n = len(supplies)
        m = len(demands)
        parent = self.parent = [-1] * (n + m)
        flow = self.flow = [0] * (n + m)
        artificial = self.artificial = [False] * (n + m)
        children = self.children = [[] for _ in range(n + m)]
        depth = self.depth = [0] * (n + m)
        pot = self.pot = [0.0] * (n + m)
        art = self.art = [0] * (n + m)
        cost = C.item
        i = j = 0
        a, b = supplies[0], demands[0]
        # each cell brings in one atom x below a node p already in the tree:
        # nu-atom j when the column advanced, mu-atom i when the row did. The
        # labels of p are final, so those of x are set here as _relabel would
        x, p = n, 0
        while True:
            q = a if a < b else b
            parent[x], flow[x] = p, q
            children[p].append(x)
            depth[x] = depth[p] + 1
            c = cost(i, j)
            d = not isfinite(c)
            if d:
                artificial[x] = True
                c = 0.0
            if x >= n:
                pot[x] = pot[p] + c
                art[x] = art[p] + d
            else:
                pot[x] = pot[p] - c
                art[x] = art[p] - d
            a -= q
            b -= q
            if b == 0 and j + 1 < m:
                j += 1
                b = demands[j]
                x, p = n + j, i
            elif i + 1 < n:
                i += 1
                a = supplies[i]
                x, p = i, n + j
            else:
                break
        self.n_artificial = sum(artificial)

    def potentials(self, art=False):
        """``(u, v)`` as float arrays; the artificial ones are exact integers."""
        pot = np.array(self.art if art else self.pot, dtype=float)
        return pot[: self.n], pot[self.n:]

    def support(self):
        """``(ii, jj, flows)`` of the real tree arcs that carry flow, in node
        order: two index arrays and the exact flows as a list."""
        n, ii, jj, flows = self.n, [], [], []
        for x, (p, q, artificial) in enumerate(zip(self.parent, self.flow, self.artificial)):
            if q and not artificial:
                i, j = (x, p - n) if x < n else (p, x - n)
                ii.append(i)
                jj.append(j)
                flows.append(q)
        return np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64), flows

    def stranded(self):
        """Mass each mu-atom ships on artificial arcs, where it is nonzero."""
        out = {}
        for x, p in enumerate(self.parent):
            if self.artificial[x] and self.flow[x]:
                i = x if x < self.n else p
                out[i] = out.get(i, 0) + self.flow[x]
        return out

    def _relabel(self, top):
        """Set depth and potentials of ``top`` and its subtree."""
        n, cost = self.n, self.C.item
        parent, depth, pot, art = self.parent, self.depth, self.pot, self.art
        artificial, children = self.artificial, self.children
        stack = [top]
        while stack:
            x = stack.pop()
            p = parent[x]
            depth[x] = depth[p] + 1
            a = artificial[x]
            if x >= n:
                pot[x] = pot[p] + (0.0 if a else cost(p, x - n))
                art[x] = art[p] + a
            else:
                pot[x] = pot[p] - (0.0 if a else cost(x, p - n))
                art[x] = art[p] - a
            stack.extend(children[x])

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
        # flow rises on (i, j), so it falls on the arcs above the nu-atoms of
        # side_j and the mu-atoms of side_i; listed as the cycle is walked,
        # from the apex down to nu-atom j, across to mu-atom i and back up
        falling = [y for y in reversed(side_j) if y >= n] + [x for x in side_i if x < n]
        flows = [flow[x] for x in falling]
        delta = min(flows)
        # the last arc met at the least flow leaves
        leave = falling[len(flows) - 1 - flows[::-1].index(delta)]
        if delta:
            for x in side_j:
                flow[x] += -delta if x >= n else delta
            for x in side_i:
                flow[x] += -delta if x < n else delta
        # hang the subtree cut off by the leaving arc from the entering arc,
        # reversing the tree path in between
        top, side, p = (i, side_i, n + j) if leave in side_i else (n + j, side_j, i)
        q, artificial = delta, not isfinite(self.C.item(i, j))
        self.n_artificial += artificial
        for x in side[: side.index(leave) + 1]:
            self.children[parent[x]].remove(x)
            self.children[p].append(x)
            p, parent[x] = x, p
            q, flow[x] = flow[x], q
            artificial, self.artificial[x] = self.artificial[x], artificial
        self.n_artificial -= artificial
        self._relabel(top)


def _optimize(basis, finite, tol, stranded=False):
    """Pivot until no arc prices below ``-tol``; return the final ``(u, v)``.

    Finite arcs are priced at their cost; with ``stranded`` so are the
    non-causal ones, at real cost 0. The artificial cost (1 on non-causal
    pairs) is compared first, the real cost second. Pricing walks the rows in
    blocks; the most negative arc with the lowest flat index enters.
    """
    C = basis.C
    m = C.shape[1]
    # each block's rows of C and finite, and the scratch its keys go to
    blocks = [(rows.start * m, rows, C[rows], finite[rows], key, flags)
              for rows, (key, flags) in row_block_buffers(*C.shape, float, bool)]
    while True:
        u, v = basis.potentials()
        ua, va = basis.potentials(art=True) if basis.n_artificial else (None, None)
        best, k = -tol, None
        for first, rows, cost, fin, block, flags in blocks:
            if ua is not None:
                # the artificial reduced costs ua - va + (1 if not causal) are
                # small integers, exact in the block
                np.copyto(block, ua[rows, None] + 1.0)
                block -= va
                block -= fin
                np.less(block, 0, out=flags)
                if not stranded:
                    flags &= fin
                if flags.any():
                    # a priced arc below zero there beats every real cost
                    k = first + int(np.argmax(flags))
                    break
                np.greater(block, 0, out=flags)  # these never enter
            np.add(np.where(fin, cost, 0.0) if stranded else cost, u[rows, None], out=block)
            block -= v
            if ua is not None:
                block[flags] = np.inf
            b = int(block.argmin())
            if block.item(b) < best:
                best, k = block.item(b), first + b
        if k is None:
            return u, v
        basis.pivot(*divmod(k, m))


def _lift(C, finite, duals, art_duals):
    """The least lam >= 0 with ``C + u - v + lam * (ua - va) >= 0`` on every
    finite arc where ``ua - va > 0``, for ``(u, v) = duals`` and
    ``(ua, va) = art_duals``.

    Each pair needs two float values here, the artificial and the real
    reduced cost, so the row blocks are sized for twice m.
    """
    (u, v), (ua, va) = duals, art_duals
    n, m = C.shape
    lam = 0.0
    for rows, (pair,) in row_block_buffers(n, 2 * m, float):
        ra, rc = pair.reshape(2, -1, m)
        np.subtract(ua[rows, None], va, out=ra)
        lift = ra > 0
        lift &= finite[rows]
        if lift.any():
            np.add(C[rows], u[rows, None], out=rc)
            rc -= v
            np.negative(rc, out=rc)
            np.divide(rc, ra, out=rc, where=lift)
            lam = max(lam, float(np.max(rc, where=lift, initial=-np.inf)))
    return lam


def solve(problem: TransportProblem):
    """Minimize the Lorentzian cost over couplings of (mu, nu).

    Returns ``(coupling, (u, v))`` where the coupling attains the minimum
    over all couplings supported on finite-cost arcs and the LP duals
    satisfy ``v[j] - u[i] <= cost(i, j)`` on every finite arc with equality
    on the support. The duals are read-only arrays. Raises
    :class:`Infeasible` when no causal coupling exists.

    The problem holds its optimum weakly: while any caller still holds the
    returned coupling, a later call on the same problem object returns that
    same coupling and the same duals without solving again. Once the last
    reference to the coupling is gone, the next call solves afresh. An
    infeasible problem is solved, and raises, on every call.
    """
    held = problem.__dict__.get("_optimum")
    if held is not None:
        coupling = held[0]()
        if coupling is not None:
            return coupling, held[1]
    mu, nu = problem.mu, problem.nu
    C = problem.cost_matrix()
    n, m = C.shape
    finite = np.isfinite(C)
    for side, other, axis in (("mu", "nu", 1), ("nu", "mu", 0)):
        reached = finite.any(axis=axis)
        if not reached.all():
            raise Infeasible(f"{side}-atom {int(reached.argmin())} has no causal partner "
                             f"among the {other}-atoms")

    supplies, demands, denom = _integer_marginals(mu.weights, nu.weights)
    basis = _Basis(C, supplies, demands)
    # max |C| over the finite arcs, read in place
    top = C.max(where=finite, initial=-np.inf)
    bottom = C.min(where=finite, initial=np.inf)
    tol = PRICE_TOL * (1.0 + float(max(top, -bottom)))
    u, v = _optimize(basis, finite, tol)
    if basis.n_artificial and basis.stranded():
        # so far only staircase cells could hold the stranded mass; offer it
        # every non-causal pair, so that what stays stranded is the least
        _optimize(basis, finite, tol, stranded=True)
        i, q = min(basis.stranded().items())
        raise Infeasible(
            f"mu-atom {i} cannot place mass {Fraction(q, denom)}: "
            "no causal coupling carries all of mu"
        )

    if basis.n_artificial:
        # lift the real duals along the artificial ones, just far enough to
        # make every finite arc dual feasible
        ua, va = basis.potentials(art=True)
        lam = _lift(C, finite, (u, v), (ua, va))
        u, v = u + lam * ua, v + lam * va

    ii, jj, exact = basis.support()
    coupling = Coupling.from_columns(problem, ii, jj, np.array([q / denom for q in exact]),
                                     exact_masses=exact, exact_denominator=denom)
    u.setflags(write=False)
    v.setflags(write=False)
    duals = (u, v)
    # a weak reference: the coupling holds the problem, so a strong one would
    # keep every optimum alive as long as its problem
    object.__setattr__(problem, "_optimum", (ref(coupling), duals))
    return coupling, duals


def dual_objective(coupling: Coupling, duals) -> float:
    u, v = duals
    return float(
        np.dot(coupling.nu.weights_array(), v) - np.dot(coupling.mu.weights_array(), u)
    )


def brute_force_oracle(problem: TransportProblem) -> Coupling:
    """Independent optimum by scipy, for up to ``ORACLE_CAP`` atoms a side.

    With equal atom counts and one uniform weight the vertices of the
    coupling polytope are permutation matrices, so the optimum is an
    assignment: ``linear_sum_assignment`` (Crouse 2016), exact and
    combinatorial, with each non-causal pair a forbidden arc. Every other
    instance is a linear program over the causal arcs, solved by HiGHS with a
    sparse equality matrix; its masses meet the marginals to HiGHS's
    feasibility tolerance. Neither path shares code with :func:`solve`.
    Raises :class:`TooLarge` above the cap, before any cost is computed, and
    :class:`Infeasible` when no causal coupling exists.
    """
    mu, nu = problem.mu, problem.nu
    for side, measure in (("mu", mu), ("nu", nu)):
        if measure.n_atoms > ORACLE_CAP:
            raise TooLarge(f"oracle handles at most {ORACLE_CAP} atoms per side; "
                           f"{side} has {measure.n_atoms}")
    C = problem.cost_matrix()
    n, m = C.shape
    wa, wb = mu.weights_array(), nu.weights_array()
    if n == m and (wa == wa[0]).all() and (wb == wa[0]).all():
        from scipy.optimize import linear_sum_assignment

        try:
            ii, jj = linear_sum_assignment(C)
        except ValueError:
            raise Infeasible("no permutation avoids the forbidden arcs") from None
        return Coupling.from_columns(problem, ii, jj, wa)

    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    ii, jj = np.nonzero(np.isfinite(C))
    if not len(ii):
        raise Infeasible("no causal arcs at all")
    # column k is arc (ii[k], jj[k]): a 1 in row ii[k] and in row n + jj[k]
    rows = np.column_stack((ii, n + jj)).ravel()
    a_eq = csc_array((np.ones(len(rows)), rows, np.arange(0, len(rows) + 1, 2)),
                     shape=(n + m, len(ii)))
    res = linprog(C[ii, jj], A_eq=a_eq, b_eq=np.concatenate((wa, wb)), bounds=(0, None),
                  method="highs")
    if res.status == 2:
        raise Infeasible("no causal coupling exists")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    keep = res.x > 1e-13
    return Coupling.from_columns(problem, ii[keep], jj[keep], res.x[keep])


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
