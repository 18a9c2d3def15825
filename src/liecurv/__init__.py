"""Scalar curvature of invariant metrics on compact Lie groups and
homogeneous spaces, with numerical rigidity certificates for bi-invariant
reference metrics."""

import os

# liecurv's matrices are at most a few dozen entries on a side, so a second
# BLAS thread buys nothing: it spin-waits after numpy loads and after each
# threaded product, and the process is charged for that CPU.  OpenBLAS reads
# its thread count once, when numpy loads it.  So unless the caller set a
# count, numpy is loaded here on one thread and the environment is restored
# at once; a program that imported numpy first keeps numpy's choice.
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .lie_core import (
    LieAlgebra,
    KillingData,
    abelian,
    algebra_from_dict,
    algebra_from_file,
    algebra_to_dict,
    build_so,
    build_su,
    direct_sum,
    from_matrix_basis,
    jacobi_defect,
    killing,
    resolve_algebra,
)
from .binorm import (
    OrthonormalModel,
    antisymmetry_defect,
    binormalize,
    diagonalize_metric,
    killing_metric,
)
from .curvature import (
    CurvatureResult,
    frame_curvatures,
    scalar_curvature_closed,
    scalar_curvature_koszul,
    scalar_gradient,
)
from .homogeneous import (
    HomogeneousSpec,
    SubalgebraEmbedding,
    build_spec,
    spec_from_dict,
    spec_from_file,
    sum_rule_defect,
)
# Not in __all__: old names the benchmark in perfbench/ still calls.
from .homogeneous import group_as_homogeneous, scalar_curvature_homogeneous, scalar_gradient_homogeneous
from .rigidity import (
    CenterPresentError,
    GapBreakdown,
    RigidityReport,
    ShrinkExample,
    gap_breakdown,
    gap_polynomial,
    ordered_gap_terms,
    su2_shrink_example,
    verify_rigidity,
)

__version__ = "0.1.0"

__all__ = [
    "LieAlgebra", "KillingData", "abelian", "algebra_from_dict",
    "algebra_from_file", "algebra_to_dict", "build_so", "build_su", "direct_sum",
    "from_matrix_basis", "jacobi_defect", "killing", "resolve_algebra",
    "OrthonormalModel", "antisymmetry_defect",
    "binormalize", "diagonalize_metric", "killing_metric",
    "CurvatureResult", "frame_curvatures", "scalar_curvature_closed",
    "scalar_curvature_koszul", "scalar_gradient",
    "HomogeneousSpec", "SubalgebraEmbedding", "build_spec", "spec_from_dict",
    "spec_from_file", "sum_rule_defect",
    "CenterPresentError", "GapBreakdown", "RigidityReport", "ShrinkExample",
    "gap_breakdown", "gap_polynomial", "ordered_gap_terms", "su2_shrink_example",
    "verify_rigidity",
]
