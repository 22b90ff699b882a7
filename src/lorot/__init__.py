"""Discrete optimal transport with Lorentzian cost functions.

The cost of moving mass from x to y is minus the time separation when y is
in the causal future of x and infinite otherwise. This package provides the
two flat model spacetimes (Minkowski and a spatial circle), finite atomic
measures, an exact transportation solver that excludes non-causal arcs,
chain-constructed dual potentials with tightness checks, displacement
interpolation with exact measure contraction, transport-ray Monge maps, and
turn-key experiments reproducing dual blow-up on the line and the
non-Lipschitz dual potential on the cylinder.
"""

__version__ = "0.1.0"

from .diagnostics import (
    DiagnosticsReport,
    audit,
    class_fractions,
    lightlike_fraction,
    strict_margin,
)
from .dual import (
    DkpReport,
    DualPotential,
    PositiveCycle,
    c_transform,
    chain_potential,
    dkp_verify,
)
from .errors import (
    BadGrid,
    ExperimentCheckFailed,
    Infeasible,
    LorotError,
    MonotonicityViolation,
    NotCausalPair,
    SchemaError,
    TooLarge,
    UnreachableAtom,
    ValidationFailed,
)
from .experiments import (
    ExperimentReport,
    ProfileFunction,
    ScalarResult,
    build_profile,
    cylinder_potential,
    line_blowup_problem,
    run_cylinder_example,
    run_line_counterexample,
    separated_rays_problem,
    strictified_line_problem,
)
from .measures import DiscreteMeasure, grid_segment, measure_from_json, strictify
from .solver import (
    Coupling,
    TransportProblem,
    brute_force_oracle,
    dual_objective,
    problem_from_json,
    problem_to_json,
    solve,
)
from .spacetime import (
    CausalClass,
    Cylinder,
    Minkowski,
    Point,
    SpacetimeModel,
    model_from_config,
)
from .transport import (
    AtomSplit,
    MongeMap,
    TransportRay,
    contraction_check,
    interpolate,
    monge_map,
    ray_decomposition,
    restrict,
)
