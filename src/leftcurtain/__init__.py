"""Left-curtain martingale coupling toolkit.

Builds the lifted left-curtain coupling of two atomic measures in convex
order through exact piecewise-linear potential geometry: shadow measures,
irreducible decomposition, destination functions with their quantile
table, plus independent brute-force oracles and theorem-level verifiers.
"""

from .curtain import (
    CurtainTable,
    ExcessPotential,
    InternalGeometry,
    LiftedCoupling,
    PointConstruction,
    StepMap,
    TABLE_DTYPE,
    build_curtain,
    coupling,
    curve_rows,
    excess_potential,
    point_construction,
    sample_y,
    sample_y_many,
    td_tu,
)
from .decompose import DecomposeError, Decomposition, IrreducibleComponent, decompose
from .measures import (
    DiscreteMeasure,
    Order,
    OrderResult,
    check_convex_order,
    measure_from_json,
    measure_to_json,
    put_potential,
    quantile_left,
    quantize_density,
    random_cx_pair,
    restricted_measure,
)
from .oracle import Infeasible, NegativeKernel, curtain_incremental, joint_tv, shadow_lp, simplex_solve
from .pwl import (
    NonConvexPotential,
    PiecewiseLinear,
    contact_points,
    convex_hull,
    measure_from_potential,
)
from .shadow import ShadowInvalid, shadow
from .verify import (
    VerificationReport,
    destination_cdf,
    verify_all,
    verify_coupling,
    verify_left_monotone,
    verify_marginal_identity,
    verify_shadow_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "CurtainTable",
    "DecomposeError",
    "Decomposition",
    "DiscreteMeasure",
    "ExcessPotential",
    "Infeasible",
    "InternalGeometry",
    "IrreducibleComponent",
    "LiftedCoupling",
    "NegativeKernel",
    "NonConvexPotential",
    "Order",
    "OrderResult",
    "PiecewiseLinear",
    "PointConstruction",
    "ShadowInvalid",
    "StepMap",
    "TABLE_DTYPE",
    "VerificationReport",
    "build_curtain",
    "check_convex_order",
    "contact_points",
    "convex_hull",
    "coupling",
    "curtain_incremental",
    "curve_rows",
    "decompose",
    "destination_cdf",
    "excess_potential",
    "joint_tv",
    "measure_from_json",
    "measure_from_potential",
    "measure_to_json",
    "point_construction",
    "put_potential",
    "quantile_left",
    "quantize_density",
    "random_cx_pair",
    "restricted_measure",
    "sample_y",
    "sample_y_many",
    "shadow",
    "shadow_lp",
    "simplex_solve",
    "td_tu",
    "verify_all",
    "verify_coupling",
    "verify_left_monotone",
    "verify_marginal_identity",
    "verify_shadow_consistency",
]
