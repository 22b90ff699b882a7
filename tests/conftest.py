"""Shared instance builders and fixtures for the test suite."""

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
