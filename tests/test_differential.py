"""Differential harness: every engine path gives the same answer and cost.

One hypothesis property draws a query — algorithm, network shape, input
size, distribution, even-sort backend and, for ``sort_uneven`` and
``select``, int or float values — and runs it on three paths:

* the fast engine unobserved (``RunPlan`` phases run as collective
  steps, ``Listen`` parks);
* the reference interpreter with an observer attached (every op
  stepped; an observed ``MCBNetwork`` stage runs on this same loop);
* the vector engine (``engine="vector"``), wherever it applies: a
  ``sort_pk`` query on an even-sized input, with either backend, and
  every ``select`` query.

All of them must return the same output and the same
``RunStats.to_dict()``.  A second property draws ``sort_even_pk``'s
columnsort variants (``paper_phase2`` x ``wrap_skip``, k up to 8) on
the same three paths, and a third checks every lane of a
``sort_even_pk_batch`` run, either backend, against its solo run on the
generator engine; both draw integer or float columns, and both run
their vector leg a second time on plans reloaded from a fresh disk
cache (``run_reloaded``), the variants' generator legs (fast
unobserved, reference observed) too.  Another
property does the same for the §5.2 collect variant, the §6.1
virtual-column sort (both sorters, several group sizes ``g = p/k``)
and the §6.2 recursion (up to three levels), whose oblivious transfers
are collective plans on the fast engine, each generator leg also on
reloaded plans; the vector engine does not run them.  Another draws
single Rank-Sort stages — several groups, uneven ``counts``,
``out_counts`` with empty segments, either direction — and holds the
fast engine unobserved (where they may run as one collective step) and
the reference interpreter observed to the per-cycle Rank-Sort schedule,
``per_cycle_rank_sort_group``.  The next three hold the fast engine
unobserved to the reference interpreter observed on the §7.1
Partial-Sums and Total-Sum stages (``p`` up to 24, ``add`` and ``max``,
with and without the successor stage), the §8 pair sort ``sort_ones``
and weighted selection, whose control stages the fast engine runs from
their value lists.  Another draws whole ``mcb_select_descending`` runs
(either pair sorter, int or float values, ``p`` up to 16) on both
candidate stores, fast unobserved and reference observed, and compares
their value, ``RunStats.to_dict()`` and ``repr`` of the phase records,
which carries every processor's aux peak.  A final property runs even sort and select
jobs (both engines, vector batch lanes) through the service's thread
executor and holds each job's ``stats`` to a direct ``MCBNetwork``
run of the same query.
"""

from __future__ import annotations

import asyncio
import json
import math
import operator
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.distribution import Distribution
from repro.mcb import MCBNetwork
from repro.mcb.reference import ReferenceMCBNetwork
from repro.mcb.vector.cache import plan_registry
from repro.obs import EventLog, MetricsRegistry
from repro.obs.metrics import global_registry
from repro.prefix import mcb_partial_sums, mcb_total_sum
from repro.select import mcb_select
from repro.select.filtering import mcb_select_descending
from repro.select.weighted import mcb_select_weighted
from repro.service import JobSpec, JobState, ServiceApp
from repro.sort import (
    mcb_sort,
    rank_sort_group,
    sort_even_pk,
    sort_even_collect,
    sort_even_pk_batch,
    sort_virtual,
)
from repro.sort.ones import sort_ones
from repro.sort.recursive import sort_recursive
from test_rank_sort_listen import per_cycle_rank_sort_group


@st.composite
def queries(draw):
    """``(algorithm, distribution, p, k, parts, backend, rank)`` for one
    query.

    ``sort_pk`` runs on ``p == k``; ``sort_uneven`` and ``select`` on
    ``k < p``.  ``even`` inputs hold ``n / p`` distinct values per
    processor, ``duplicates`` the same sizes from eight values,
    ``skewed`` uneven sizes and ``thm3`` uneven sizes in Theorem 3's
    placement (values dealt in descending order, round robin over the
    processors with room left).  ``sort_uneven`` and ``select`` values
    are ints or floats.  The backend applies where the query has a
    choice: a ``sort_pk`` query on an even-sized input.
    """
    algorithm = draw(st.sampled_from(["sort_pk", "sort_uneven", "select"]))
    distribution = draw(
        st.sampled_from(["even", "skewed", "thm3", "duplicates"])
    )
    backend = draw(st.sampled_from(["columnsort", "batcher"]))
    if algorithm == "sort_pk":
        k = draw(st.sampled_from([2, 4]))
        p = k
        if backend == "columnsort":
            # Columnsort's dimension rule: k | m and m >= k(k - 1).
            m = k * draw(st.integers(max(1, k - 1), k + 2))
        else:
            m = draw(st.integers(1, 9))
    else:
        p = draw(st.sampled_from([4, 8]))
        k = draw(st.sampled_from([kk for kk in (1, 2, 4) if kk < p]))
        m = draw(st.integers(1, 8))
    n = m * p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if distribution == "duplicates":
        values = rng.choice(np.arange(1, 9) * 100, size=n).tolist()
    else:
        values = rng.choice(4 * n, size=n, replace=False).tolist()
    uneven = distribution in ("skewed", "thm3")
    if uneven:
        cuts = sorted(rng.choice(np.arange(1, n), size=p - 1, replace=False))
        sizes = np.diff([0, *cuts, n]).tolist()
    else:
        sizes = [m] * p
    parts = {pid: [] for pid in range(1, p + 1)}
    if distribution == "thm3":
        ordered = iter(sorted(values, reverse=True))
        for r in range(max(sizes)):
            for pid, size in enumerate(sizes, start=1):
                if r < size:
                    parts[pid].append(next(ordered))
    else:
        at = 0
        for pid, size in enumerate(sizes, start=1):
            parts[pid] = values[at:at + size]
            at += size
    if algorithm != "sort_pk" or uneven:
        backend = "columnsort"
    rank = draw(st.integers(1, n))
    if algorithm != "sort_pk" and draw(st.booleans()):
        # Float values: bulk bit sizing against per-message sizing.
        parts = {pid: [v / 8 for v in vs] for pid, vs in parts.items()}
    return algorithm, distribution, p, k, parts, backend, rank


def run(net, query, engine="generator"):
    algorithm, _, _, _, parts, backend, rank = query
    if algorithm == "select":
        answer = mcb_select(net, parts, rank, engine=engine).value
    else:
        answer = mcb_sort(net, parts, backend=backend, engine=engine).output
    return answer, net.stats.to_dict()


def vector_applies(query) -> bool:
    """The vector engine runs ``sort_pk`` on even or duplicate inputs and
    every ``select``; other sorts raise ``ConfigurationError``."""
    algorithm, distribution, *_ = query
    return algorithm == "select" or (
        algorithm == "sort_pk" and distribution not in ("skewed", "thm3")
    )


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=queries())
def test_engines_agree(query):
    _, _, p, k, *_ = query
    observed = ReferenceMCBNetwork(p, k)
    observed.attach_observer(EventLog())
    fast = run(MCBNetwork(p, k), query)
    assert run(observed, query) == fast
    if vector_applies(query):
        assert run(MCBNetwork(p, k), query, engine="vector") == fast


def float_columns(k: int, m: int, seed: int) -> dict[int, list]:
    """``k`` columns of ``m`` floats with three decimals."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-50, 50, size=k * m).round(3).tolist()
    return {pid: values[(pid - 1) * m: pid * m] for pid in range(1, k + 1)}


def draw_columns(draw, k: int, m: int) -> dict[int, list]:
    """``k`` columns of ``m`` distinct integers, of eight integers, or of
    floats."""
    n = k * m
    kind = draw(st.sampled_from(["distinct", "eight", "float"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "float":
        return float_columns(k, m, seed)
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        values = rng.choice(4 * n + 1, size=n, replace=False).tolist()
    else:
        values = rng.choice(np.arange(1, 9) * 100, size=n).tolist()
    return {pid: values[(pid - 1) * m: pid * m] for pid in range(1, k + 1)}


@st.composite
def even_pk_variants(draw):
    """``(k, columns, paper_phase2, wrap_skip)`` for one §5.2 sort whose
    column length ``m`` meets the dimension rule (``k | m``,
    ``m >= k(k - 1)``)."""
    k = draw(st.sampled_from([1, 2, 3, 4, 8]))
    m = k * draw(st.integers(max(1, k - 1), k + 1))
    return k, draw_columns(draw, k, m), draw(st.booleans()), draw(st.booleans())


def run_reloaded(run_query):
    """``run_query()``'s answer on plans reloaded from disk.

    Over a fresh ``REPRO_PLAN_CACHE``, a first call lowers its plans
    and writes them; after ``plan_registry().clear()`` a second call
    must find every plan on disk (no lookup misses, virtual stems
    included), and its answer is returned.  The vector engine runs the
    loaded compiled phases, the generator engines step or gather the
    plans :meth:`SchedulePlan.from_compiled` rebuilt from them.
    """
    counter = global_registry().counter("vector_plan_cache_total")

    def misses():
        return sum(
            counter.get(result="miss", backend=backend)
            for backend in ("columnsort", "batcher", "virtual")
        )

    saved = os.environ.get("REPRO_PLAN_CACHE")
    with tempfile.TemporaryDirectory() as root:
        os.environ["REPRO_PLAN_CACHE"] = root
        try:
            plan_registry().clear()
            run_query()
            plan_registry().clear()
            before = misses()
            answer = run_query()
            assert misses() == before
        finally:
            plan_registry().clear()
            if saved is None:
                del os.environ["REPRO_PLAN_CACHE"]
            else:
                os.environ["REPRO_PLAN_CACHE"] = saved
    return answer


def observed_reference(p: int, k: int) -> ReferenceMCBNetwork:
    """The reference interpreter with an ``EventLog`` attached."""
    net = ReferenceMCBNetwork(p, k)
    net.attach_observer(EventLog())
    return net


def run_even_pk(net, query, engine="generator"):
    k, columns, paper_phase2, wrap_skip = query
    answer = sort_even_pk(
        net, {pid: list(v) for pid, v in columns.items()},
        paper_phase2=paper_phase2, wrap_skip=wrap_skip, engine=engine,
    ).output
    return answer, net.stats.to_dict()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=even_pk_variants())
@example(query=(1, {1: []}, False, False))  # m = 0: no element, no cycle
@example(query=(1, {1: []}, True, False))
@example(query=(4, float_columns(4, 16, 11), False, False))
@example(query=(4, float_columns(4, 16, 11), True, False))
def test_even_pk_variants_agree(query):
    k, columns, *_ = query
    fast = run_even_pk(MCBNetwork(k, k), query)
    assert run_even_pk(observed_reference(k, k), query) == fast
    assert run_even_pk(MCBNetwork(k, k), query, engine="vector") == fast
    for leg in (
        lambda: run_even_pk(MCBNetwork(k, k), query),
        lambda: run_even_pk(observed_reference(k, k), query),
        lambda: run_even_pk(MCBNetwork(k, k), query, engine="vector"),
    ):
        assert run_reloaded(leg) == fast
    flat = sorted((v for col in columns.values() for v in col), reverse=True)
    assert [v for pid in range(1, k + 1) for v in fast[0][pid]] == flat


@st.composite
def batch_queries(draw):
    """``(k, lanes, backend, paper_phase2, wrap_skip)`` for one batched
    sort; the variants apply to columnsort only."""
    backend = draw(st.sampled_from(["columnsort", "batcher"]))
    k = draw(st.sampled_from([1, 2, 3, 4]))
    if backend == "columnsort":
        m = k * draw(st.integers(max(1, k - 1), k + 1))
        paper_phase2, wrap_skip = draw(st.booleans()), draw(st.booleans())
    else:
        m = draw(st.integers(1, 6))
        paper_phase2 = wrap_skip = False
    lanes = [draw_columns(draw, k, m) for _ in range(draw(st.integers(1, 4)))]
    return k, lanes, backend, paper_phase2, wrap_skip


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=batch_queries())
@example(query=(
    4, [float_columns(4, 16, seed) for seed in (21, 22)], "columnsort",
    False, True,
))
def test_batch_lanes_match_solo_runs(query):
    k, lanes, backend, paper_phase2, wrap_skip = query

    def batch():
        out = sort_even_pk_batch(
            k, lanes, paper_phase2=paper_phase2, wrap_skip=wrap_skip,
            backend=backend,
        )
        return (
            [result.output for result in out.results],
            [stats.to_dict() for stats in out.stats],
        )

    outputs, stats = batch()
    assert run_reloaded(batch) == (outputs, stats)
    for lane, output, lane_stats in zip(lanes, outputs, stats):
        net = MCBNetwork(k, k)
        solo = sort_even_pk(
            net, {pid: list(v) for pid, v in lane.items()},
            paper_phase2=paper_phase2, wrap_skip=wrap_skip, backend=backend,
        )
        assert output == solo.output
        assert lane_stats == net.stats.to_dict()


@st.composite
def columnsort_queries(draw):
    """``(algorithm, p, k, parts, sorter)`` for one §5.2 collect, §6.1 or
    §6.2 sort.

    ``sort_even_collect`` draws ``k | p`` and ``n >= k^2(k - 1)``, often
    with ``n/k`` not a multiple of ``k`` (padded columns), over int or
    float values; ``sort_virtual`` draws ``k`` columns of ``g``
    processors, with the column length ``m = g * n/p`` a multiple of
    ``k`` and at least ``k(k - 1)``; ``sort_recursive`` draws powers of
    two, up to three levels of recursion (``p = k = 64``).  Elements of
    the last two are distinct values (ints, or for ``sort_virtual``
    also floats), or ``(value, pid, index)`` triples over eight values.
    """
    algorithm = draw(
        st.sampled_from(["sort_even_collect", "sort_virtual", "sort_recursive"])
    )
    sorter = draw(st.sampled_from(["rank", "merge"]))
    if algorithm == "sort_even_collect":
        k = draw(st.integers(1, 4))
        p = k * draw(st.integers(1, 4))
        low = max(1, -(-k * k * (k - 1) // p))
        npp = draw(st.sampled_from([low, low + 1, low + 3]))
    elif algorithm == "sort_virtual":
        k = draw(st.integers(1, 4))
        g = draw(st.integers(1, 4))
        p = g * k
        step = k // math.gcd(k, g)  # smallest n/p making k | m
        low = -(-max(1, k * (k - 1)) // (g * step)) * step
        npp = draw(st.sampled_from([low, low + step, 2 * low]))
    else:
        p = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
        k = draw(
            st.sampled_from([kk for kk in (1, 2, 4, 8, 16, 64) if kk <= p])
        )
        npp = draw(st.sampled_from([1, 2, 4]))
    n = p * npp
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if algorithm == "sort_even_collect":
        values = rng.choice(4 * n, size=n, replace=False)
        values = (values / 8 if draw(st.booleans()) else values).tolist()
    else:
        kinds = ["int", "triple"]
        if algorithm == "sort_virtual":
            kinds.append("float")
        kind = draw(st.sampled_from(kinds))
        if kind == "triple":
            values = [
                (v, i // npp + 1, i % npp)
                for i, v in enumerate(rng.choice(8, size=n).tolist())
            ]
        else:
            values = rng.choice(4 * n, size=n, replace=False)
            values = (values / 8 if kind == "float" else values).tolist()
    parts = {pid: values[(pid - 1) * npp: pid * npp] for pid in range(1, p + 1)}
    return algorithm, p, k, parts, sorter


def run_columnsort(net, query):
    algorithm, _, _, parts, sorter = query
    if algorithm == "sort_even_collect":
        answer = sort_even_collect(net, parts).output
    elif algorithm == "sort_virtual":
        answer = sort_virtual(net, parts, sorter=sorter).output
    else:
        answer = sort_recursive(net, parts).output
    return answer, net.stats.to_dict(), repr(net.stats.phases)


def _three_levels():
    values = np.random.default_rng(3).permutation(512).tolist()
    parts = {pid: values[(pid - 1) * 8: pid * 8] for pid in range(1, 65)}
    return "sort_recursive", 64, 64, parts, "rank"


def _padded_collect():
    # p=12, k=3: n/k = 28 is not a multiple of k, so columns are padded
    values = [v / 4 for v in np.random.default_rng(4).permutation(84)]
    parts = {pid: values[(pid - 1) * 7: pid * 7] for pid in range(1, 13)}
    return "sort_even_collect", 12, 3, parts, "rank"


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=columnsort_queries())
@example(query=_three_levels())
@example(query=_padded_collect())
def test_virtual_and_recursive_engines_agree(query):
    _, p, k, *_ = query
    fast = run_columnsort(MCBNetwork(p, k), query)
    assert run_columnsort(observed_reference(p, k), query) == fast
    assert run_reloaded(lambda: run_columnsort(MCBNetwork(p, k), query)) == fast
    assert run_reloaded(
        lambda: run_columnsort(observed_reference(p, k), query)
    ) == fast


@st.composite
def rank_sort_stages(draw):
    """``(groups, same_size)`` for one stage of Rank-Sort groups, group
    ``c`` on channel ``c + 1``: each group is ``(counts, out_counts,
    elems, ascending)``.  Counts may be uneven or zero, output segments
    empty; with ``same_size`` every group holds the same number of
    elements (the fast engine's collective step needs that)."""
    same_size = draw(st.booleans())
    n_g = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.integers(1, 5))
        size = n_g if same_size else draw(st.integers(1, 12))
        counts = np.diff(
            [0, *sorted(rng.integers(0, size + 1, size=g - 1)), size]
        ).tolist()
        if draw(st.booleans()):
            out_counts = counts
        else:
            out_counts = np.diff(
                [0, *sorted(rng.integers(0, size + 1, size=g - 1)), size]
            ).tolist()
        if draw(st.booleans()):
            elems = rng.choice(8 * size, size=size, replace=False).tolist()
        else:
            elems = [
                (int(v), i, 7) for i, v in enumerate(rng.choice(3, size=size))
            ]
        groups.append((counts, out_counts, elems, draw(st.booleans())))
    return groups, same_size


def run_rank_sort_stage(net, groups, sort_group=rank_sort_group):
    programs = {}
    pid = 1
    for channel, (counts, out_counts, elems, ascending) in enumerate(
        groups, start=1
    ):
        at = 0
        for member, c in enumerate(counts):
            def prog(
                ctx, args=(channel, member, counts, elems[at:at + c]),
                kw=dict(out_counts=out_counts, ascending=ascending),
            ):
                return (yield from sort_group(*args, **kw, ctx=ctx))

            programs[pid] = prog
            pid += 1
            at += c
    answer = net.run(programs, phase="rank-sort")
    return answer, net.stats.to_dict()


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(stage=rank_sort_stages())
def test_rank_sort_stages_agree(stage):
    groups, _ = stage
    p = sum(len(counts) for counts, *_ in groups)
    k = len(groups)
    oracle = run_rank_sort_stage(
        MCBNetwork(p, k), groups, per_cycle_rank_sort_group
    )
    observed = ReferenceMCBNetwork(p, k)
    observed.attach_observer(EventLog())
    assert run_rank_sort_stage(MCBNetwork(p, k), groups) == oracle
    assert run_rank_sort_stage(observed, groups) == oracle


# ---------------------------------------------------------------------------
# §7.1 sweeps, the §8 pair sort and weighted selection
# ---------------------------------------------------------------------------

def draw_values(draw, size: int) -> list:
    """Distinct-or-not ints (non-negative or signed) or floats."""
    kind = draw(st.sampled_from(["int", "negative", "float"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "int":
        return rng.integers(0, 1000, size=size).tolist()
    if kind == "negative":
        return rng.integers(-1000, 1000, size=size).tolist()
    return rng.uniform(-1e3, 1e3, size=size).tolist()


@st.composite
def sweep_stages(draw):
    """``(p, k, total, values, op, include_next)`` for one Partial-Sums
    (``total`` false) or Total-Sum stage: ``p`` up to 24, powers of two
    or not, ``op`` ``add`` (identity 0) or ``max`` (identity ``-inf``)."""
    p = draw(st.integers(1, 24))
    k = draw(st.integers(1, p))
    total = draw(st.booleans())
    values = dict(enumerate(draw_values(draw, p), start=1))
    op = draw(st.sampled_from(["add", "max"]))
    include_next = not total and draw(st.booleans())
    return p, k, total, values, op, include_next


def run_sweep(net, stage):
    _, _, total, values, op, include_next = stage
    fn, identity = (operator.add, 0) if op == "add" else (max, -math.inf)
    if total:
        answer = mcb_total_sum(net, values, op=fn, identity=identity)
    else:
        answer = mcb_partial_sums(
            net, values, op=fn, identity=identity, include_next=include_next
        )
    return answer, net.stats.to_dict()


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(stage=sweep_stages())
@example(stage=(1, 1, False, {1: -4}, "max", True))
@example(stage=(13, 3, False, dict(enumerate(range(13), 1)), "add", True))
def test_sweeps_agree(stage):
    p, k, *_ = stage
    observed = ReferenceMCBNetwork(p, k)
    observed.attach_observer(EventLog())
    assert run_sweep(MCBNetwork(p, k), stage) == run_sweep(observed, stage)


@st.composite
def pair_sorts(draw):
    """``(p, k, parts)``: one distinct int, float or int-triple element
    per processor, ``p`` in 2..24."""
    p = draw(st.integers(2, 24))
    k = draw(st.integers(1, p))
    kind = draw(st.sampled_from(["int", "float", "triple"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "int":
        elems = rng.choice(4 * p, size=p, replace=False).tolist()
    elif kind == "float":
        elems = rng.uniform(-1e3, 1e3, size=p).tolist()
    else:
        heads = rng.integers(-5, 5, size=p).tolist()
        elems = [(h, i, 7) for i, h in enumerate(heads)]
    return p, k, {pid: [e] for pid, e in enumerate(elems, start=1)}


def run_pair_sort(net, parts):
    return sort_ones(net, parts).output, net.stats.to_dict()


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=pair_sorts())
def test_pair_sorts_agree(query):
    p, k, parts = query
    observed = ReferenceMCBNetwork(p, k)
    observed.attach_observer(EventLog())
    assert run_pair_sort(MCBNetwork(p, k), parts) == run_pair_sort(
        observed, parts
    )


@st.composite
def weighted_selections(draw):
    """``(p, k, parts, target)``: distinct elements with positive integer
    weights, dealt unevenly over ``p`` in 2..16 processors."""
    p = draw(st.integers(2, 16))
    k = draw(st.integers(1, p))
    n = draw(st.integers(p, 6 * p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    elems = rng.choice(10 * n, size=n, replace=False).tolist()
    weights = rng.integers(1, 10, size=n).tolist()
    owners = rng.integers(1, p + 1, size=n).tolist()
    parts = {pid: [] for pid in range(1, p + 1)}
    for e, w, pid in zip(elems, weights, owners):
        parts[pid].append((e, w))
    target = draw(st.integers(1, sum(weights)))
    return p, k, parts, target


def run_weighted(net, parts, target):
    return mcb_select_weighted(net, parts, target).value, net.stats.to_dict()


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=weighted_selections())
def test_weighted_selections_agree(query):
    p, k, parts, target = query
    observed = ReferenceMCBNetwork(p, k)
    observed.attach_observer(EventLog())
    assert run_weighted(MCBNetwork(p, k), parts, target) == run_weighted(
        observed, parts, target
    )


@st.composite
def selections(draw):
    """``(p, k, parts, d, pair_sorter)``: ``n`` in ``p..8p`` distinct
    ints or floats dealt at random over ``p`` in 1..16 processors (some
    may hold none), any rank ``d`` and either pair sorter."""
    p = draw(st.integers(1, 16))
    k = draw(st.integers(1, p))
    n = draw(st.integers(p, 8 * p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(4 * n, size=n, replace=False).tolist()
    if draw(st.booleans()):
        values = [v / 8 for v in values]
    parts = {pid: [] for pid in range(1, p + 1)}
    for v, pid in zip(values, rng.integers(1, p + 1, size=n).tolist()):
        parts[pid].append(v)
    d = draw(st.integers(1, n))
    return p, k, parts, d, draw(st.sampled_from(["ones", "uneven"]))


def run_selection(net, query, store):
    _, _, parts, d, pair_sorter = query
    value = mcb_select_descending(
        net, parts, d, pair_sorter=pair_sorter, engine=store
    ).value
    return value, net.stats.to_dict(), repr(net.stats.phases)


_SKEWED = Distribution.uneven(256, 16, seed=2, skew=2.0).parts


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=selections())
@example(query=(16, 4, _SKEWED, 100, "uneven"))
@example(query=(
    16, 4, {pid: [v / 4 for v in vs] for pid, vs in _SKEWED.items()}, 60,
    "ones",
))
def test_whole_selections_agree(query):
    # The control stages' tables (fast, unobserved) against stepping
    # (reference, observed), on both candidate stores: ``repr`` of the
    # phase records also compares every processor's aux peak.
    p, k, *_ = query
    fast = run_selection(MCBNetwork(p, k), query, "generator")
    assert run_selection(observed_reference(p, k), query, "generator") == fast
    assert run_selection(MCBNetwork(p, k), query, "vector") == fast
    assert run_selection(observed_reference(p, k), query, "vector") == fast


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

@st.composite
def service_jobs(draw):
    """One service job payload on an even distribution: a sort on
    either engine (the vector engine on ``p == k``, with batch lanes
    and either backend) or a median select on either engine."""
    algorithm = draw(st.sampled_from(["sort", "select"]))
    engine = draw(st.sampled_from(["generator", "vector"]))
    backend, batch = "columnsort", 1
    if algorithm == "sort" and engine == "vector":
        backend = draw(st.sampled_from(["columnsort", "batcher"]))
        p = k = draw(st.sampled_from([2, 4]))
        if backend == "columnsort":
            m = k * draw(st.integers(max(1, k - 1), k + 1))
        else:
            m = draw(st.integers(1, 6))
        batch = draw(st.integers(1, 3))
    else:
        p = draw(st.sampled_from([4, 8]))
        k = draw(st.sampled_from([1, 2, 4]))
        m = draw(st.integers(1, 8))
    return dict(
        algorithm=algorithm, p=p, k=k, n=p * m,
        seed=draw(st.integers(0, 999)), engine=engine, batch=batch,
        backend=backend,
    )


def run_direct(job: dict) -> dict:
    """The job's query run directly on an ``MCBNetwork``: its
    ``RunStats.to_dict()`` in the service's JSON form."""
    net = MCBNetwork(job["p"], job["k"])
    dist = Distribution.even(job["n"], job["p"], seed=job["seed"])
    if job["algorithm"] == "sort":
        mcb_sort(net, dist, engine=job["engine"], backend=job["backend"])
    else:
        mcb_select(net, dist, (job["n"] + 1) // 2, engine=job["engine"])
    return json.loads(json.dumps(net.stats.to_dict()))


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(jobs=st.lists(service_jobs(), min_size=1, max_size=4))
def test_service_jobs_match_direct_runs(jobs):
    async def serve():
        app = ServiceApp(executor="thread", workers=2, registry=MetricsRegistry())
        await app.start()
        submitted = [app.submit(JobSpec(**job)) for job in jobs]
        await app.join()
        await app.shutdown()
        return submitted

    for job, served in zip(jobs, asyncio.run(serve())):
        assert served.state is JobState.DONE, served.error
        lanes = served.result.get("lanes", [served.result])
        assert len(lanes) == job["batch"]
        for i, lane in enumerate(lanes):
            assert lane["stats"] == run_direct({**job, "seed": job["seed"] + i})
