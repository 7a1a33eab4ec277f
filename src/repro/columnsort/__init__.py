"""Columnsort kernel: transformations, sequential reference, and the
Birkhoff–von-Neumann matchings the transfer schedules are lowered from
(:mod:`repro.mcb.vector.lower`)."""

from .matrix import (
    PHASE_PERMS,
    apply_perm,
    dims_valid,
    downshift_perm,
    from_columns,
    is_permutation,
    max_columns_for,
    require_valid_dims,
    to_columns,
    transfer_matrix,
    transpose_perm,
    undiagonalize_perm,
    upshift_perm,
)
from .reference import (
    ColumnsortTrace,
    columnsort,
    figure1_example,
    is_columnsorted,
    transformations_demo,
)
from .zero_one import (
    columnsort_zero_one_counterexample,
    columnsort_zero_one_exhaustive,
    columnsort_zero_one_sampled,
)
from .schedule import bvn_decomposition, bvn_for_phase

__all__ = [
    "ColumnsortTrace",
    "PHASE_PERMS",
    "apply_perm",
    "bvn_decomposition",
    "bvn_for_phase",
    "columnsort",
    "columnsort_zero_one_counterexample",
    "columnsort_zero_one_exhaustive",
    "columnsort_zero_one_sampled",
    "dims_valid",
    "downshift_perm",
    "figure1_example",
    "from_columns",
    "is_columnsorted",
    "is_permutation",
    "max_columns_for",
    "require_valid_dims",
    "to_columns",
    "transfer_matrix",
    "transformations_demo",
    "transpose_perm",
    "undiagonalize_perm",
    "upshift_perm",
]
