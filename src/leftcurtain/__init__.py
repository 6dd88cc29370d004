"""Left-curtain martingale coupling toolkit.

Builds the lifted left-curtain coupling of two atomic measures in convex
order by using up the target's atoms, one shadow after another: the
destination functions with their quantile table, the shadow measure from
the same walk, the convex-order check as that walk's verdict, the
irreducible decomposition, and theorem-level verifiers.  The independent
references that tests check against live in :mod:`leftcurtain.oracle`; of
them only ``curtain_incremental`` and ``joint_tv`` are exported here.
"""

from .curtain import (
    CurtainTable,
    LiftedCoupling,
    OrderResult,
    TABLE_DTYPE,
    build_curtain,
    check_convex_order,
    coupling,
    curve_rows,
    sample_y_many,
)
from .decompose import Decomposition, IrreducibleComponent, decompose
from .measures import (
    DecomposeError,
    DiscreteMeasure,
    measure_from_json,
    measure_to_json,
    put_potential,
    quantile_left,
    quantize_density,
    random_cx_pair,
    restricted_measure,
)
from .oracle import curtain_incremental, joint_tv
from .shadow import shadow
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
    "IrreducibleComponent",
    "LiftedCoupling",
    "OrderResult",
    "TABLE_DTYPE",
    "VerificationReport",
    "build_curtain",
    "check_convex_order",
    "coupling",
    "curtain_incremental",
    "curve_rows",
    "decompose",
    "destination_cdf",
    "joint_tv",
    "measure_from_json",
    "measure_to_json",
    "put_potential",
    "quantile_left",
    "quantize_density",
    "random_cx_pair",
    "restricted_measure",
    "sample_y_many",
    "shadow",
    "verify_all",
    "verify_coupling",
    "verify_left_monotone",
    "verify_marginal_identity",
    "verify_shadow_consistency",
]
