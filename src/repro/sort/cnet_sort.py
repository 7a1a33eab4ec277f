"""Comparator-network sorting on MCB(k, k): one driver per engine.

:func:`sort_cnet` runs any :class:`~repro.mcb.cnet.ComparatorNetwork`
on an even ``p = k`` distribution: Batcher's odd-even merge network,
and the §5.2 columnsort pipeline, which
:func:`~repro.sort.even_pk.sort_even_pk` routes here for every backend.
Each communication round executes its lowered
:class:`~repro.mcb.vector.plan.SchedulePlan`; the local work between
rounds — the merge-split combine of a compare round, the free sorts —
is data-dependent but costs nothing in the MCB model, so it runs as
whole-matrix NumPy on the vector engine (:func:`_cnet_pipeline`) and as
plain Python inside one per-processor sub-generator on the generator
engines (:func:`cnet_program`, which is also
:func:`~repro.sort.even_pk.columnsort_program` inside the collect,
uneven, ones and CREW sorts).

Columnsort's round plans come from
:func:`~repro.mcb.vector.lower.lower_columnsort_phases`, the one place
that picks the lowering of each ``paper_phase2``/``wrap_skip``
variant; every other network's come from
:func:`~repro.mcb.cnet.cnet_to_schedule`.  A line's state holds its
column in slots ``0..m-1`` plus the plans' extra slots — Batcher's
merge scratch, wrap-skip's ``m // 2`` parking slots — and every plan
writes an extra slot before anything reads it.

On the generator engines every round plan runs as one
:class:`~repro.mcb.program.RunPlan` op, which stands for
``SchedulePlan.as_program``'s literal event stream (the same stream
the executor gathers), and the local steps apply the same rules to the
same values, so outputs *and* ``RunStats.to_dict()`` agree bit for bit
between the two drivers and the reference interpreter
(``tests/test_cnet_backends.py``, ``tests/test_differential.py``).

Round plans come from :func:`cnet_plans`, the one front door to the
shared :class:`~repro.mcb.vector.cache.PlanRegistry`: columnsort under
its variant-keyed stem, other networks under
``cnet_<name>_m<m>_k<k>``, so every backend gets the same memory/disk
caching, prewarming and ``vector_plan_cache_total`` accounting
(labelled ``backend=<name>``), and both drivers run the same plan
objects.  A sort fetches its plans once, not once per line.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..columnsort.matrix import require_valid_dims
from ..mcb.cnet import (
    CompareRound,
    PermuteRound,
    SortRound,
    build_network,
    cnet_to_schedule,
)
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from ..mcb.program import RunPlan
from ..mcb.vector import SchedulePlan, VectorRun, build_state
from ..mcb.vector.cache import (
    cnet_plan_stem,
    columnsort_plan_stem,
    plan_registry,
)
from ..mcb.vector.lower import lower_columnsort_phases
from .common import SortResult


def _variant(
    backend: str, k: int, paper_phase2: bool, wrap_skip: bool
) -> tuple[bool, bool]:
    """The normalized ``(paper_phase2, wrap_skip)`` schedule variant.

    Only columnsort has variants; ``wrap_skip`` needs ``k >= 2`` (with
    one column there is no wrap-around to skip).
    """
    if backend != "columnsort":
        if paper_phase2 or wrap_skip:
            raise ConfigurationError(
                "paper_phase2/wrap_skip are columnsort schedule variants; "
                f"backend {backend!r} has no such knobs"
            )
        return False, False
    return bool(paper_phase2), bool(wrap_skip) and k > 1


def _column_length(k: int, columns: dict[int, list], backend: str) -> int:
    """Validate an even ``p = k`` input for ``backend``; returns ``m``.

    Columnsort needs its §5.2 dimension rule (which admits ``m = 0`` at
    ``k = 1``: every phase is then empty); every other network needs
    ``m >= 1``.
    """
    if sorted(columns) != list(range(1, k + 1)):
        raise ValueError("columns must be given for every processor 1..k")
    lengths = {len(c) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError(
            f"distribution is not even: lengths {sorted(lengths)}"
        )
    m = lengths.pop()
    if backend == "columnsort":
        require_valid_dims(m, k)
    elif m < 1:
        raise ConfigurationError(f"need m >= 1 elements per line, got {m}")
    return m


def _phase_label(backend: str, phase: str) -> str:
    """The phase a sort records: ``phase`` for columnsort, the paper's
    own pipeline; ``f"{phase}/cnet-{backend}"`` for any other network
    (:mod:`repro.bounds.overlay` predicts those phases by name)."""
    return phase if backend == "columnsort" else f"{phase}/cnet-{backend}"


def cnet_plans(
    name: str,
    m: int,
    k: int,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
) -> tuple[SchedulePlan, ...]:
    """The round plans of the named network at ``m x k``, in round
    order, compiled, from the shared
    :class:`~repro.mcb.vector.cache.PlanRegistry` (``backend=<name>``):
    both engines run the same objects.  Only columnsort takes
    ``paper_phase2``/``wrap_skip``.

    On a true miss each plan is checked once: ``compile()`` enforces
    collision-freedom, matched reads and unique destinations, and a
    permute plan's reads plus moves must refill rows ``0..m-1`` of every
    column — except column 1's wrap-skip ghost rows after phase 6, which
    phase 8 refills.
    """
    paper_phase2, wrap_skip = _variant(name, k, paper_phase2, wrap_skip)
    cnet_steps(name, k)  # refuses an unknown network before any lookup

    def build() -> tuple[SchedulePlan, ...]:
        network = build_network(name, k)
        if name == "columnsort":
            plans = lower_columnsort_phases(m, k, paper_phase2, wrap_skip)
        else:
            plans = cnet_to_schedule(network, k, k, m)
        comm = [r for r in network.rounds if not isinstance(r, SortRound)]
        for rnd, plan in zip(comm, plans):
            if not isinstance(rnd, PermuteRound):
                continue
            # The raw events: a move onto its own slot leaves no trace
            # in the compiled gather, but it does refill its row.
            reads = np.asarray(plan.reads, dtype=np.int64).reshape(-1, 4)
            moves = np.asarray(plan.moves, dtype=np.int64).reshape(-1, 3)
            filled = np.zeros((k, plan.slots), dtype=bool)
            filled[reads[:, 1], reads[:, 3]] = True
            filled[moves[:, 0], moves[:, 2]] = True
            want = np.ones((k, m), dtype=bool)
            if wrap_skip and rnd.phase == 6:
                want[0, : m // 2] = False
            assert (filled[:, :m] == want).all(), (
                f"phase {rnd.phase} leaves a hole"
            )
        return plans

    if name == "columnsort":
        stem = columnsort_plan_stem(m, k, paper_phase2, wrap_skip)
    else:
        stem = cnet_plan_stem(name, m, k)
    return plan_registry().lookup(stem, backend=name, build=build)


@cache
def cnet_steps(name: str, k: int) -> tuple[tuple, ...]:
    """The driver's step list for the named network at width ``k``: one
    entry per plan execution/local op.

    ``("plan", i)`` executes the ``i``-th communication plan;
    ``("merge", his, los)`` applies the merge-split combine to that
    round's endpoints; ``("sort", skip_first)`` is a free local sort.
    """
    steps: list[tuple] = []
    comm = 0
    for rnd in build_network(name, k).rounds:
        if isinstance(rnd, CompareRound):
            steps.append(("plan", comm))
            comm += 1
            steps.append((
                "merge",
                tuple(hi for hi, _ in rnd.pairs),
                tuple(lo for _, lo in rnd.pairs),
            ))
        elif isinstance(rnd, PermuteRound):
            steps.append(("plan", comm))
            comm += 1
        else:
            steps.append(("sort", rnd.skip_first))
    return tuple(steps)


def cnet_program(
    name: str,
    line: int,
    column: list,
    m: int,
    k: int,
    plans: tuple[SchedulePlan, ...],
):
    """Sub-generator running the named network for one processor line.

    ``line`` is 0-based; ``column`` is the line's initial column
    (length ``m``).  Returns the final sorted column (a descending
    list).  All ``k`` lines must run this concurrently, line ``i``
    writing channel ``i + 1``, on the same ``plans``: the network's
    :func:`cnet_plans`, fetched once for all of them.

    Each round plan runs as one :class:`~repro.mcb.program.RunPlan`
    op: the fast engine runs a plan that all ``k`` lines enter together
    in one collective step, and every other engine steps its
    ``as_program`` ops.  The local sorts and merge-splits between them
    only touch rows ``0..m-1`` (a merge also reads the partner's
    column from scratch slots ``m..2m-1``).
    """
    if m == 0:
        return []  # every round is zero cycles long
    slots = max((plan.slots for plan in plans), default=m)
    row = list(column)
    row += row[: slots - m]  # extra slots; every plan writes them first
    for step in cnet_steps(name, k):
        if step[0] == "plan":
            row = yield RunPlan(plans[step[1]], line, row)
        elif step[0] == "sort":
            if not (step[1] and line == 0):
                row[:m] = sorted(row[:m], reverse=True)
        elif line in step[1] or line in step[2]:
            merged = sorted(row[: 2 * m], reverse=True)
            row[:m] = merged[:m] if line in step[1] else merged[m:]
    return row[:m]


def _sort_slots(view: np.ndarray, descending: bool) -> None:
    """Sort ``view`` along its slot axis (axis 1), in place.

    Ties carry no hidden order: equal values are equal elements (bit
    accounting is a function of the value), so this matches the
    generator's ``sorted(..., reverse=True)`` exactly.  Works on the
    batch axis too.  ``descending=False`` serves the negated numeric
    pipeline, where a plain ascending sort is the descending one.
    Numeric descending sorts go negate/sort/negate, which stays in
    place instead of materializing a reversed-stride copy.
    """
    if not descending:
        view.sort(axis=1)
    elif view.dtype == object:
        view[...] = np.sort(view, axis=1)[:, ::-1]
    else:
        np.negative(view, out=view)
        view.sort(axis=1)
        np.negative(view, out=view)


def _merge_split(
    state: np.ndarray,
    his: tuple[int, ...],
    los: tuple[int, ...],
    m: int,
    descending: bool,
) -> None:
    """Apply one round's merge-splits to ``state`` in place.

    After the round's plan, every paired processor holds its own column
    in slots ``0..m-1`` and its partner's in ``m..2m-1`` — the same
    multiset on both endpoints of a pair, so one sort of the ``hi``
    rows serves both: ``hi`` keeps the top half, ``lo`` the bottom.
    """
    hi_idx = np.asarray(his, dtype=np.intp)
    lo_idx = np.asarray(los, dtype=np.intp)
    seg = state[hi_idx, : 2 * m]  # fancy index -> private copy
    _sort_slots(seg, descending)
    state[hi_idx, :m] = seg[:, :m]
    state[lo_idx, :m] = seg[:, m:]


def _cnet_pipeline(
    run: VectorRun,
    state: np.ndarray,
    name: str,
    m: int,
    variant: tuple[bool, bool],
) -> np.ndarray:
    """Execute every round of the named network on the vector engine.

    ``state`` holds each line's column in slots ``0..m-1`` (axis 1,
    batched or not); it is padded to the compiled plans' slot count
    first (one count per variant), and the local sorts stay within the
    first ``m`` slots.

    Numeric, unobserved runs bracket the whole run with one global
    negation and sort plain ascending in between: bit accounting is
    sign-invariant (ints charge ``bit_length(abs(v))``, floats a flat
    64).  Observed runs sort descending, since dispatch events carry
    the actual values.
    """
    if m == 0:
        return state  # every round is zero cycles long
    compiled = [plan.compile() for plan in cnet_plans(name, m, run.k, *variant)]
    extra = max((ph.slots for ph in compiled), default=m) - m
    if extra:
        state = np.concatenate([state, state[:, :extra]], axis=1)
    descending = state.dtype == object or run._dispatch is not None
    if not descending:
        np.negative(state, out=state)
    for step in cnet_steps(name, run.k):
        if step[0] == "plan":
            state = run.execute(compiled[step[1]], state)
        elif step[0] == "sort":
            _sort_slots(state[1 if step[1] else 0:, :m], descending)
        else:
            _merge_split(state, step[1], step[2], m, descending)
    if not descending:
        np.negative(state, out=state)
    return state


def sort_cnet(
    net: MCBNetwork,
    columns: dict[int, list],
    backend: str,
    *,
    phase: str = "sort",
    engine: str = "generator",
    paper_phase2: bool = False,
    wrap_skip: bool = False,
) -> SortResult:
    """Sort an even ``p = k`` distribution with the named network.

    ``engine="generator"`` runs :func:`cnet_program` on every
    processor; ``"vector"`` runs :func:`_cnet_pipeline` on the network's
    stats and observers; the phase is recorded as
    :func:`_phase_label` names it.  Only columnsort takes
    ``paper_phase2``/``wrap_skip``.
    """
    variant = _variant(backend, net.k, paper_phase2, wrap_skip)
    cnet_steps(backend, net.k)  # refuses an unknown network
    if engine not in ("generator", "vector"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    k = net.k
    if net.p != k:
        raise ConfigurationError(
            "comparator-network sorts run on p == k == width; got "
            f"p={net.p}, k={k}, width={k}"
        )
    m = _column_length(k, columns, backend)
    label = _phase_label(backend, phase)
    pids = range(1, k + 1)
    if engine == "vector":
        run = VectorRun(
            net.p, k, phase=label, stats=net.stats, dispatch=net._dispatch
        )
        state = build_state([list(columns[pid]) for pid in pids])
        state = _cnet_pipeline(run, state, backend, m, variant)
        run.finish()
        rows = state[:, :m].tolist()
        return SortResult(
            output={pid: tuple(rows[pid - 1]) for pid in pids}
        )

    plans = cnet_plans(backend, m, k, *variant) if m else ()

    def make(pid: int):
        def program(ctx):
            return (yield from cnet_program(
                backend, pid - 1, columns[pid], m, k, plans
            ))

        return program

    out = net.run({pid: make(pid) for pid in pids}, phase=label)
    return SortResult(output={pid: tuple(out[pid]) for pid in pids})
