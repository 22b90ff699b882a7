"""Shared instance builders and fixtures for the test suite."""

import numpy as np
import pytest

from lorot.measures import DiscreteMeasure
from lorot.solver import TransportProblem
from lorot.spacetime import Minkowski, SpacetimeModel


def point(model, *coords):
    """Build a point from flat coordinates, time last."""
    return model.make_point(coords[:-1], coords[-1])


def two_by_two_problem():
    """Two unit-mass columns two time units apart; diagonal is optimal."""
    model = Minkowski(1)
    mu = DiscreteMeasure.from_atoms(
        [(point(model, 0.0, 0.0), 0.5), (point(model, 1.0, 0.0), 0.5)]
    )
    nu = DiscreteMeasure.from_atoms(
        [(point(model, 0.0, 2.0), 0.5), (point(model, 1.0, 2.0), 0.5)]
    )
    return TransportProblem(model, mu, nu)


def mirrored(problem):
    """The 1-D problem reflected in space, x -> -x (0.0 becomes -0.0)."""
    flip = np.array([-1.0, 1.0])
    return TransportProblem(*[problem.model] + [
        DiscreteMeasure.from_arrays(m.coords_array() * flip, m.weights_array())[0]
        for m in (problem.mu, problem.nu)
    ])


def random_uniform_causal_problem(rng, n_max=6, d=1):
    """Uniform-weight instance where the shifted identity pairing is causal.

    Every target sits well inside the forward cone of its matching source,
    so at least one permutation coupling is feasible.
    """
    n = int(rng.integers(1, n_max + 1))
    model = Minkowski(d)
    xs = rng.uniform(-1, 1, size=(n, d))
    ts = rng.uniform(-0.2, 0.2, size=n)
    jitter = rng.uniform(-0.3, 0.3, size=(n, d))
    dt = rng.uniform(1.5, 2.5, size=n)
    mu = DiscreteMeasure.from_atoms(
        [(model.make_point(xs[i], ts[i]), 1.0 / n) for i in range(n)]
    )
    nu = DiscreteMeasure.from_atoms(
        [(model.make_point(xs[i] + jitter[i], ts[i] + dt[i]), 1.0 / n) for i in range(n)]
    )
    return TransportProblem(model, mu, nu)


def random_weighted_causal_problem(rng, n_max=6):
    """Small instance with unequal dyadic weights and full causal access."""
    model = Minkowski(1)
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, n_max + 1))
    wa = rng.integers(1, 8, size=n).astype(float)
    wb = rng.integers(1, 8, size=m).astype(float)
    wa /= wa.sum()
    wb /= wb.sum()
    mu = DiscreteMeasure.from_atoms(
        [(model.make_point([rng.uniform(-1, 1)], rng.uniform(-0.1, 0.1)), wa[i])
         for i in range(n)]
    )
    nu = DiscreteMeasure.from_atoms(
        [(model.make_point([rng.uniform(-1, 1)], rng.uniform(3.0, 3.5)), wb[j])
         for j in range(m)]
    )
    return TransportProblem(model, mu, nu)


@pytest.fixture
def cost_matrix_calls(monkeypatch):
    """Shapes of every cost matrix a model builds while the test runs."""
    calls = []
    build = SpacetimeModel.cost_matrix

    def counted(self, xs, ys):
        calls.append((len(xs), len(ys)))
        return build(self, xs, ys)

    monkeypatch.setattr(SpacetimeModel, "cost_matrix", counted)
    return calls


def value_copy(measure):
    """A distinct measure object with the same atoms and weights."""
    return DiscreteMeasure(measure.coords_array(), measure.weights_array())


@pytest.fixture
def stray_costs_calls(monkeypatch):
    """Shapes of every ``SpacetimeModel.costs`` call made outside
    ``SpacetimeModel.cost_matrix`` while the test runs."""
    calls, building = [], []
    costs, build = SpacetimeModel.costs, SpacetimeModel.cost_matrix

    def counted(self, xs, ys, *args, **kwargs):
        if not building:
            calls.append(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]))
        return costs(self, xs, ys, *args, **kwargs)

    def flagged(self, xs, ys):
        building.append(True)
        try:
            return build(self, xs, ys)
        finally:
            building.pop()

    monkeypatch.setattr(SpacetimeModel, "costs", counted)
    monkeypatch.setattr(SpacetimeModel, "cost_matrix", flagged)
    return calls
