import math

import pytest

from conftest import two_by_two_problem
from lorot.diagnostics import (
    audit,
    class_fractions,
    lightlike_fraction,
    strict_margin,
)
from lorot.experiments import line_blowup_problem, strictified_line_problem
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, solve
from lorot.spacetime import CausalClass, Minkowski

MK1 = Minkowski(1)


def pt(*coords):
    return MK1.make_point(coords[:-1], coords[-1])


def solved(problem):
    coupling, duals = solve(problem)
    return problem, coupling, duals


class TestLightlikeFraction:
    def test_line_instance_all_null(self):
        _, coupling, _ = solved(line_blowup_problem(12))
        assert lightlike_fraction(MK1, coupling) == 1.0

    def test_strictified_all_timelike(self):
        _, coupling, _ = solved(strictified_line_problem(12, eps=0.5))
        assert lightlike_fraction(MK1, coupling) == 0.0

    def test_identity_coupling_excluded(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(1, 0), 0.5)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, mu), [(0, 0, 0.5), (1, 1, 0.5)])
        assert lightlike_fraction(MK1, coupling) == 0.0

    def test_same_null_band_as_causal_class(self):
        # margin 5e-10: chronological, with a nonzero cost, for the model
        x, y = pt(0, 0), pt(1, 1 + 5e-10)
        assert MK1.causal_class(x, y) is CausalClass.CHRONOLOGICAL
        assert MK1.cost(x, y) < 0.0
        mu = DiscreteMeasure.from_atoms([(x, 1.0)])
        nu = DiscreteMeasure.from_atoms([(y, 1.0)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 1.0)])
        assert class_fractions(MK1, coupling) == {
            "lightlike": 0.0, "chronological": 1.0, "identical": 0.0,
        }

    def test_fractions_sum_to_one(self):
        _, coupling, _ = solved(line_blowup_problem(9))
        f = class_fractions(MK1, coupling)
        assert f["lightlike"] + f["chronological"] + f["identical"] == pytest.approx(
            1.0, abs=1e-12
        )


class TestStrictMargin:
    def test_line_instance_zero(self):
        _, coupling, _ = solved(line_blowup_problem(10))
        assert strict_margin(MK1, coupling) == pytest.approx(0.0, abs=1e-12)

    def test_strictified_margin(self):
        _, coupling, _ = solved(strictified_line_problem(10, eps=0.3))
        assert strict_margin(MK1, coupling) == pytest.approx(0.3, abs=1e-12)

    def test_two_by_two(self):
        _, coupling, _ = solved(two_by_two_problem())
        assert strict_margin(MK1, coupling) == 2.0

    def test_identity_sentinel(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, mu), [(0, 0, 1.0)])
        assert strict_margin(MK1, coupling) == math.inf


class TestAudit:
    def test_two_by_two_report(self):
        problem, coupling, duals = solved(two_by_two_problem())
        report = audit(MK1, problem, coupling, duals)
        assert report.lightlike_fraction == 0.0
        assert report.min_margin == 2.0
        assert report.dual_gap <= 1e-8
        assert report.monotonicity_violations == 0

    def test_line_instance_report(self):
        problem, coupling, duals = solved(line_blowup_problem(100))
        report = audit(MK1, problem, coupling, duals)
        assert report.lightlike_fraction == 1.0
        assert report.min_margin == pytest.approx(0.0, abs=1e-12)
        assert report.dual_gap <= 1e-8
        assert report.monotonicity_violations == 0

    def test_seeded_sampling_deterministic(self):
        problem, coupling, duals = solved(line_blowup_problem(30))
        a = audit(MK1, problem, coupling, duals, seed=5)
        b = audit(MK1, problem, coupling, duals, seed=5)
        assert a == b

    def test_as_dict_keys(self):
        problem, coupling, duals = solved(two_by_two_problem())
        d = audit(MK1, problem, coupling, duals).as_dict()
        assert set(d) == {
            "lightlike_fraction",
            "min_margin",
            "dual_gap",
            "monotonicity_violations",
        }
