"""Differential harness: every engine path gives the same answer and cost.

One hypothesis property draws a query — algorithm, network shape, input
size, distribution and even-sort backend — and runs it on three paths:

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
generator engine; both draw integer or float columns.  Another
property does the same for the §6.1 virtual-column sort (both sorters,
several group sizes ``g = p/k``) and the §6.2 recursion, whose
transfer phases are collective plans on the fast engine; the vector
engine does not run them.  A last one draws
single Rank-Sort stages — several groups, uneven ``counts``,
``out_counts`` with empty segments, either direction — and holds the
fast engine unobserved (where they may run as one collective step) and
the reference interpreter observed to the per-cycle Rank-Sort schedule,
``per_cycle_rank_sort_group``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mcb import MCBNetwork
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import EventLog
from repro.select import mcb_select
from repro.sort import (
    mcb_sort,
    rank_sort_group,
    sort_even_pk,
    sort_even_pk_batch,
    sort_virtual,
)
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
    processors with room left).  The backend applies where the query has
    a choice: a ``sort_pk`` query on an even-sized input.
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
    observed = ReferenceMCBNetwork(k, k)
    observed.attach_observer(EventLog())
    fast = run_even_pk(MCBNetwork(k, k), query)
    assert run_even_pk(observed, query) == fast
    assert run_even_pk(MCBNetwork(k, k), query, engine="vector") == fast
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
    batch = sort_even_pk_batch(
        k, lanes, paper_phase2=paper_phase2, wrap_skip=wrap_skip,
        backend=backend,
    )
    for lane, result, stats in zip(lanes, batch.results, batch.stats):
        net = MCBNetwork(k, k)
        solo = sort_even_pk(
            net, {pid: list(v) for pid, v in lane.items()},
            paper_phase2=paper_phase2, wrap_skip=wrap_skip, backend=backend,
        )
        assert result.output == solo.output
        assert stats.to_dict() == net.stats.to_dict()


@st.composite
def columnsort_queries(draw):
    """``(algorithm, p, k, parts, sorter)`` for one §6.1 or §6.2 sort.

    ``sort_virtual`` draws ``k`` columns of ``g`` processors, with the
    column length ``m = g * n/p`` a multiple of ``k`` and at least
    ``k(k - 1)``; ``sort_recursive`` draws powers of two.  Elements are
    distinct values, or ``(value, pid, index)`` triples over eight
    values.
    """
    algorithm = draw(st.sampled_from(["sort_virtual", "sort_recursive"]))
    sorter = draw(st.sampled_from(["rank", "merge"]))
    if algorithm == "sort_virtual":
        k = draw(st.integers(1, 4))
        g = draw(st.integers(1, 4))
        p = g * k
        step = k // math.gcd(k, g)  # smallest n/p making k | m
        low = -(-max(1, k * (k - 1)) // (g * step)) * step
        npp = draw(st.sampled_from([low, low + step, 2 * low]))
    else:
        p = draw(st.sampled_from([2, 4, 8, 16, 32]))
        k = draw(st.sampled_from([kk for kk in (1, 2, 4, 8, 16) if kk <= p]))
        npp = draw(st.sampled_from([1, 2, 4]))
    n = p * npp
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(4 * n, size=n, replace=False).tolist()
    else:
        values = [
            (v, i // npp + 1, i % npp)
            for i, v in enumerate(rng.choice(8, size=n).tolist())
        ]
    parts = {pid: values[(pid - 1) * npp: pid * npp] for pid in range(1, p + 1)}
    return algorithm, p, k, parts, sorter


def run_columnsort(net, query):
    algorithm, _, _, parts, sorter = query
    if algorithm == "sort_virtual":
        answer = sort_virtual(net, parts, sorter=sorter).output
    else:
        answer = sort_recursive(net, parts).output
    return answer, net.stats.to_dict()


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=columnsort_queries())
def test_virtual_and_recursive_engines_agree(query):
    _, p, k, *_ = query
    observed = ReferenceMCBNetwork(p, k)
    observed.attach_observer(EventLog())
    fast = run_columnsort(MCBNetwork(p, k), query)
    assert run_columnsort(observed, query) == fast


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
