import math

import pytest

from conftest import two_by_two_problem
import numpy as np

from lorot import diagnostics
from lorot.diagnostics import (
    TWO_CYCLE_TOL,
    _two_cycle_violations,
    audit,
    class_fractions,
    count_monotonicity_violations,
    lightlike_fraction,
    strict_margin,
)
from lorot.dual import chain_potential
from lorot.experiments import (
    line_blowup_problem,
    random_strict_problem,
    separated_rays_problem,
    strictified_line_problem,
)
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, solve
from lorot.spacetime import CausalClass, Cylinder, Minkowski
from lorot.transport import interpolate, ray_decomposition, restrict

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

    def test_foreign_problem_rejected(self):
        problem, coupling, duals = solved(separated_rays_problem(0))
        with pytest.raises(ValueError, match="does not solve the audited problem"):
            audit(MK1, separated_rays_problem(1), coupling, duals)
        # an equal problem built afresh is the coupling's own
        assert audit(MK1, separated_rays_problem(0), coupling, duals).dual_gap <= 1e-8

    def test_foreign_model_rejected(self):
        problem, coupling, duals = solved(separated_rays_problem(0))
        with pytest.raises(ValueError, match=r"Minkowski\(d=1\), not Minkowski\(d=2\)"):
            audit(Minkowski(2), problem, coupling, duals)


def indexed_two_cycles(C, ii, jj, e, f):
    """``_two_cycle_violations`` read with 2-D fancy indexing, as it once was."""
    own = C[ii, jj]
    lhs = own[e] + own[f]
    rhs = C[ii[e], jj[f]] + C[ii[f], jj[e]]
    return lhs > rhs + TWO_CYCLE_TOL, lhs, rhs


class TestAuditDraws:
    """The audit draws both index rows in one call and reads C at flat
    indices; both must match the two-draw, fancy-indexed reference."""

    @pytest.mark.parametrize("k", [17, 100, 139, 2**33])
    def test_one_draw_is_the_two_draw_stream(self, k):
        for samples in (1, 37, 999, 1000):
            for seed in (0, 5):
                rng = np.random.default_rng(seed)
                first, second = rng.integers(0, k, size=samples), rng.integers(0, k, size=samples)
                both = np.random.default_rng(seed).integers(0, k, size=(2, samples))
                assert (both[0] == first).all() and (both[1] == second).all()

    @pytest.mark.parametrize("samples, seed", [(1, 0), (37, 5), (999, 1), (1000, 0)])
    def test_count_matches_two_draws(self, samples, seed, monkeypatch):
        # the anti-diagonal coupling of the 2 x 2 problem: every pair of distinct entries violates
        problem = two_by_two_problem()
        anti = Coupling.from_entries(problem, [(0, 1, 0.5), (1, 0, 0.5)])
        drawn = []
        monkeypatch.setattr(diagnostics, "_two_cycle_violations",
                            lambda *args: drawn.append(args[3:]) or _two_cycle_violations(*args))
        for coupling in (anti, solve(random_strict_problem(3))[0], solve(line_blowup_problem(40))[0]):
            C = coupling.problem.cost_matrix()
            ii, jj, _ = coupling.index_arrays()
            rng = np.random.default_rng(seed)
            e1 = rng.integers(0, len(ii), size=samples)
            e2 = rng.integers(0, len(ii), size=samples)
            count = count_monotonicity_violations(coupling.problem.model, coupling, samples, seed)
            assert count == np.count_nonzero(indexed_two_cycles(C, ii, jj, e1, e2)[0])
            e, f = drawn.pop()
            assert (e == e1).all() and (f == e2).all()
        e1, e2 = np.random.default_rng(seed).integers(0, 2, size=(2, samples))
        assert count_monotonicity_violations(MK1, anti, samples, seed) == np.count_nonzero(e1 != e2)

    @pytest.mark.parametrize("problem", [line_blowup_problem(60), random_strict_problem(0),
                                         random_strict_problem(7), separated_rays_problem(2)],
                             ids=["line", "strict-0", "strict-7", "rays"])
    def test_flat_reads_match_fancy_indexing(self, problem):
        coupling, _ = solve(problem)
        C = problem.cost_matrix()
        ii, jj, _ = coupling.index_arrays()
        k = np.arange(len(ii))
        e, f = np.random.default_rng(1).integers(0, len(ii), size=(2, 500))
        for pair in ((e, f), (k[:, None], k[None, :])):
            for got, want in zip(_two_cycle_violations(C, ii, jj, *pair),
                                 indexed_two_cycles(C, ii, jj, *pair)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestForeignModel:
    """Every layer that reads a coupling under a model refuses any model but
    the coupling's own, naming both."""

    LAYERS = {
        "chain_potential": chain_potential,
        "ray_decomposition": ray_decomposition,
        "lightlike_fraction": lightlike_fraction,
        "strict_margin": strict_margin,
        "class_fractions": class_fractions,
        "interpolate": lambda model, coupling: interpolate(model, coupling, 0.5),
        "restrict": lambda model, coupling: restrict(model, coupling, 0.25, 0.75),
    }

    @pytest.mark.parametrize("layer", LAYERS)
    def test_layer_names_both_models(self, layer):
        coupling, _ = solve(separated_rays_problem(0))
        with pytest.raises(ValueError) as info:
            self.LAYERS[layer](Cylinder(0.5), coupling)
        assert str(info.value) == (
            "coupling is priced under Minkowski(d=1), not Cylinder(circumference=0.5)")
