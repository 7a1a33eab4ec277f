"""repro.mcb.vector — vectorized execution of oblivious schedules.

The paper's hot phases (§5.2 transformation schedules, §6.1
virtual-column transfers) are *oblivious*: every message is a
pure function of globally-known parameters.  This package compiles them
into columnar index arrays (:mod:`~repro.mcb.vector.plan`), lowers the
repo's existing schedule sources into that form
(:mod:`~repro.mcb.vector.lower`) and executes whole phases as NumPy
gathers over a ``(p, slots)`` — or batched ``(p, slots, B)`` —
element matrix (:mod:`~repro.mcb.vector.executor`), with bit-identical
outputs and ``RunStats`` accounting to the generator engines.

Opt in from the algorithm layer via ``engine="vector"`` on
:func:`repro.sort.sort_even_pk` / :func:`repro.sort.mcb_sort`, or batch
many instances through one compiled schedule with
:func:`repro.sort.vector.sort_even_pk_batch`.
"""

from .cache import (
    PLAN_SCHEMA_VERSION,
    PlanRegistry,
    cnet_plan_stem,
    columnsort_plan_stem,
    load_compiled_phases,
    plan_cache_dir,
    plan_entry_path,
    plan_registry,
    save_compiled_phases,
)
from .executor import (
    VectorRun,
    build_batched_state,
    build_state,
    compact_rows,
    detect_dtype,
    detect_dtype_rows,
    masked_reduce,
    message_bits,
    static_message_bits,
)
from .lower import (
    lower_columnsort_phases,
    lower_paper_transpose,
    lower_phase_columnar,
    lower_virtual_phase,
    lower_wrap_skip,
)
from .optimize import FusedPhase, fuse_phases
from .plan import CompiledPhase, SchedulePlan

__all__ = [
    "CompiledPhase",
    "FusedPhase",
    "PLAN_SCHEMA_VERSION",
    "PlanRegistry",
    "SchedulePlan",
    "VectorRun",
    "cnet_plan_stem",
    "columnsort_plan_stem",
    "build_batched_state",
    "build_state",
    "compact_rows",
    "detect_dtype",
    "detect_dtype_rows",
    "fuse_phases",
    "load_compiled_phases",
    "lower_columnsort_phases",
    "lower_paper_transpose",
    "lower_phase_columnar",
    "lower_virtual_phase",
    "lower_wrap_skip",
    "masked_reduce",
    "message_bits",
    "plan_cache_dir",
    "plan_entry_path",
    "plan_registry",
    "save_compiled_phases",
    "static_message_bits",
]
