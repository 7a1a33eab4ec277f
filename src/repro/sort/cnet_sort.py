"""Comparator-network sorting on MCB(k, k): vector + generator drivers.

:func:`sort_cnet` runs any :class:`~repro.mcb.cnet.ComparatorNetwork`
on an even ``p = k`` distribution.  Each communication round executes
its lowered :class:`~repro.mcb.vector.plan.SchedulePlan`; the local
work between rounds — the merge-split combine of a compare round, the
free sorts — is data-dependent but costs nothing in the MCB model, so
it runs as whole-matrix NumPy on the vector engine and as plain Python
inside per-processor programs on the generator engine.

The generator driver is the vector driver's parity oracle: every round
plan is rendered through ``SchedulePlan.as_programs`` (the same literal
event stream the executor gathers), and the combine applies the same
merge rule to the same values, so outputs *and* ``RunStats.to_dict()``
accounting agree bit-for-bit (``tests/test_cnet_backends.py``).

Compiled round plans live in the shared
:class:`~repro.mcb.vector.cache.PlanRegistry` under a network-keyed
stem (``cnet_<name>_m<m>_k<k>``), so Batcher plans get the same
memory/disk caching, prewarming, and ``vector_plan_cache_total``
accounting (labelled ``backend=<name>``) as the columnsort phases.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..columnsort.matrix import require_valid_dims
from ..mcb.cnet import (
    CompareRound,
    ComparatorNetwork,
    PermuteRound,
    build_network,
    cnet_to_schedule,
)
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from ..mcb.vector import CompiledPhase, VectorRun, build_state
from ..mcb.vector.cache import cnet_plan_stem, plan_registry
from .even_pk import SortResult
from .vector import _ascending, _descending, _validated_columns


def compiled_cnet_phases(
    name: str, m: int, k: int
) -> tuple[CompiledPhase, ...]:
    """Compiled plans for the named network's communication rounds.

    One entry per compare/permute round, in round order.  The
    ``"columnsort"`` network shares the plain columnsort phase entries
    (same plans, same disk files, same ``backend="columnsort"`` label);
    other networks cache under their own network-keyed stem.
    """
    if name == "columnsort":
        from .vector import compiled_columnsort_phases

        return compiled_columnsort_phases(m, k)
    network = build_network(name, k)

    def build() -> tuple[CompiledPhase, ...]:
        return tuple(
            plan.compile() for plan in cnet_to_schedule(network, k, k, m)
        )

    return plan_registry().lookup(
        cnet_plan_stem(name, m, k), backend=name, build=build
    )


@lru_cache(maxsize=512)
def _generator_plans(name: str, m: int, k: int) -> tuple:
    """Uncompiled round plans for the generator driver, cached — the
    plans (and their program event maps) are pure functions of the
    configuration, so repeated small sorts skip the lowering."""
    return cnet_to_schedule(build_network(name, k), k, k, m)


def cnet_steps(network: ComparatorNetwork) -> list[tuple]:
    """The driver's step list: one entry per plan execution/local op.

    ``("plan", i)`` executes the ``i``-th compiled communication plan;
    ``("merge", his, los)`` applies the merge-split combine to that
    round's endpoints; ``("sort", skip_first)`` is a free local sort.
    """
    steps: list[tuple] = []
    comm = 0
    for rnd in network.rounds:
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
    return steps


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
    ``descending=False`` is the globally-negated numeric pipeline,
    where "top" is the ascending front.  Works on the batch axis (axis
    1 is the slot axis either way).
    """
    hi_idx = np.asarray(his, dtype=np.intp)
    lo_idx = np.asarray(los, dtype=np.intp)
    seg = state[hi_idx, : 2 * m]  # fancy index -> private copy
    if not descending:
        seg.sort(axis=1)
    elif seg.dtype == object:
        seg = np.sort(seg, axis=1)[:, ::-1]
    else:
        np.negative(seg, out=seg)
        seg.sort(axis=1)
        np.negative(seg, out=seg)
    state[hi_idx, :m] = seg[:, :m]
    state[lo_idx, :m] = seg[:, m:]


def _cnet_pipeline(
    run: VectorRun,
    state: np.ndarray,
    network: ComparatorNetwork,
    compiled: tuple[CompiledPhase, ...],
    m: int,
) -> np.ndarray:
    """Execute every round of ``network`` on the vector engine."""
    steps = cnet_steps(network)
    if state.dtype == object or run._dispatch is not None:
        for step in steps:
            if step[0] == "plan":
                state = run.execute(compiled[step[1]], state, donate=True)
            elif step[0] == "sort":
                _descending(state, skip_first=step[1], width=m)
            else:
                _merge_split(state, step[1], step[2], m, descending=True)
        return state
    # Numeric, unobserved runs: bracket with one global negation and do
    # every local sort/merge ascending — the same sign-invariant-bits
    # trick the columnsort pipeline uses (see _columnsort_pipeline).
    np.negative(state, out=state)
    for step in steps:
        if step[0] == "plan":
            state = run.execute(compiled[step[1]], state, donate=True)
        elif step[0] == "sort":
            _ascending(state, skip_first=step[1], width=m)
        else:
            _merge_split(state, step[1], step[2], m, descending=False)
    np.negative(state, out=state)
    return state


def _validated(
    net: MCBNetwork, columns: dict[int, list], network: ComparatorNetwork
) -> int:
    k = net.k
    if net.p != k or network.width != k:
        raise ConfigurationError(
            "comparator-network sorts run on p == k == width; got "
            f"p={net.p}, k={k}, width={network.width}"
        )
    m = _validated_columns(k, columns, require_dims=False)
    if network.name == "columnsort":
        # The columnsort extraction is still columnsort: its
        # correctness needs the §5.2 dimension rule.
        require_valid_dims(m, k)
    return m


def sort_cnet_vector(
    net: MCBNetwork,
    columns: dict[int, list],
    network: ComparatorNetwork,
    *,
    phase: str = "sort",
) -> SortResult:
    """Run ``network`` on the vector engine; costs land in ``net.stats``."""
    k = net.k
    m = _validated(net, columns, network)
    compiled = compiled_cnet_phases(network.name, m, k)
    rows = [list(columns[pid]) for pid in range(1, k + 1)]
    if network.slot_factor == 2:
        # Scratch slots m..2m-1 start as a copy of the own column: they
        # are fully overwritten by the first round's reads before any
        # use, and duplicating keeps the state's dtype untouched.
        rows = [row + row for row in rows]
    state = build_state(rows)
    run = VectorRun(
        net.p, k, phase=f"{phase}/cnet-{network.name}",
        stats=net.stats, dispatch=net._dispatch,
    )
    state = _cnet_pipeline(run, state, network, compiled, m)
    run.finish()
    out = state[:, :m].tolist()
    return SortResult(
        output={pid: tuple(out[pid - 1]) for pid in range(1, k + 1)}
    )


def sort_cnet_generator(
    net: MCBNetwork,
    columns: dict[int, list],
    network: ComparatorNetwork,
    *,
    phase: str = "sort",
) -> SortResult:
    """Run ``network`` on the generator engine (the parity oracle).

    Each processor's program chains the round plans' literal
    ``as_programs`` event streams (all programs advance in lockstep —
    a plan's cycle count is global) and applies the identical local
    merge rule between rounds, so this is exactly what the vector
    driver computes, message for message.
    """
    k = net.k
    m = _validated(net, columns, network)
    plans = _generator_plans(network.name, m, k)
    steps = cnet_steps(network)
    double = network.slot_factor == 2

    def make(pid: int):
        col = list(columns[pid])

        def program(ctx):
            row = col + col if double else list(col)
            for step in steps:
                if step[0] == "plan":
                    prog = plans[step[1]].as_program(ctx.pid - 1, row)
                    row = yield from prog(ctx)
                elif step[0] == "sort":
                    if not (step[1] and ctx.pid == 1):
                        row[:m] = sorted(row[:m], reverse=True)
                else:
                    _, his, los = step
                    line = ctx.pid - 1
                    if line in his or line in los:
                        merged = sorted(row[: 2 * m], reverse=True)
                        row[:m] = (
                            merged[:m] if line in his else merged[m:]
                        )
            return row[:m]

        return program

    out = net.run(
        {pid: make(pid) for pid in range(1, k + 1)},
        phase=f"{phase}/cnet-{network.name}",
    )
    return SortResult(
        output={pid: tuple(out[pid]) for pid in range(1, k + 1)}
    )


def sort_cnet(
    net: MCBNetwork,
    columns: dict[int, list],
    backend: str,
    *,
    phase: str = "sort",
    engine: str = "generator",
) -> SortResult:
    """Sort an even ``p = k`` distribution with the named network."""
    network = build_network(backend, net.k)
    if engine == "vector":
        return sort_cnet_vector(net, columns, network, phase=phase)
    if engine != "generator":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    return sort_cnet_generator(net, columns, network, phase=phase)
