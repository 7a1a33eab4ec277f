"""Distributed sorting algorithms (paper Sections 5-7)."""

from .common import DUMMY, is_dummy, neg_elem, pack_elem, segment_owner, unpack_elem
from .dispatch import Strategy, choose_strategy, mcb_sort
from .even_collect import padded_column_length, sort_even_collect
from .even_pk import SortResult, columnsort_program, sort_even_pk
from .merge_sort import merge_sort, merge_sort_group
from .merging import mcb_merge, merge_streams
from .rank_sort import rank_sort, rank_sort_group
from .ones import sort_ones
from .rebalance import even_targets, rebalance
from .uneven import sort_uneven
from .vector import (
    BatchSortResult,
    prewarm_plan_cache,
    sort_even_pk_batch,
)
from .backends import (
    BACKENDS,
    backend_unavailable_reason,
    choose_backend,
    crossover_table,
    predicted_cost,
    static_plan_stats,
)
from .cnet_sort import cnet_plans, sort_cnet
from .virtual import sort_virtual

__all__ = [
    "BACKENDS",
    "BatchSortResult",
    "DUMMY",
    "SortResult",
    "Strategy",
    "backend_unavailable_reason",
    "choose_backend",
    "choose_strategy",
    "cnet_plans",
    "columnsort_program",
    "crossover_table",
    "is_dummy",
    "mcb_merge",
    "mcb_sort",
    "merge_streams",
    "merge_sort",
    "merge_sort_group",
    "neg_elem",
    "pack_elem",
    "padded_column_length",
    "predicted_cost",
    "prewarm_plan_cache",
    "rank_sort",
    "rank_sort_group",
    "rebalance",
    "even_targets",
    "segment_owner",
    "sort_cnet",
    "sort_even_collect",
    "sort_even_pk",
    "sort_even_pk_batch",
    "sort_ones",
    "sort_uneven",
    "static_plan_stats",
    "sort_virtual",
    "unpack_elem",
]
