"""``mcb_select(engine="vector")`` vs the generator engine: exact parity.

The vector selection swaps the candidate data plane
(:class:`repro.select.vector.VectorCandidates` for the per-pid lists);
both engines run the same control stages, whose pair sort and sweeps
the fast engine runs as collective steps.  So the vector engine on an
unobserved :class:`MCBNetwork` is held to the generator engine on the
reference interpreter, which steps every op.  The bar is bit-identity:
same selected value (type included), same per-phase trace, same
``RunStats`` — every ``PhaseStats`` field, per-pid aux peaks
included.  The sweeps cover every rank of small configurations —
hitting all three pivot cases, the reflection device, §3 tagging via
duplicates, and both pair sorters — plus float and tuple payloads,
hypothesis-drawn shapes, message-size failures and observed networks
(which step every op on the reference interpreter's loop).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.element import has_duplicates
from repro.mcb.errors import ConfigurationError, MessageSizeError
from repro.mcb.network import MCBNetwork
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import EventLog
from repro.obs.metrics import global_registry
from repro.select import mcb_select
from repro.select.filtering import mcb_select_descending
from repro.select.vector import VectorCandidates


def run_both(parts, d, p, k, **kwargs):
    gen_net = ReferenceMCBNetwork(p=p, k=k)
    gen = mcb_select(gen_net, parts, d, **kwargs)
    vec_net = MCBNetwork(p=p, k=k)
    vec = mcb_select(vec_net, parts, d, engine="vector", **kwargs)
    assert vec.value == gen.value
    assert type(vec.value) is type(gen.value)
    assert vec.trace.phases == gen.trace.phases
    assert vec_net.stats.to_dict() == gen_net.stats.to_dict()
    assert vec_net.stats.phases == gen_net.stats.phases
    return gen


def even_parts(n, p, seed, kind="int"):
    rng = random.Random(seed)
    if kind == "int":
        pool = rng.sample(range(-10 * n, 10 * n), n)
    elif kind == "float":
        pool = [rng.uniform(-100, 100) for _ in range(n)]
    else:  # duplicates force §3 tagging
        pool = [rng.randrange(max(2, n // 3)) for _ in range(n)]
    size = n // p
    return {
        i + 1: pool[i * size:(i + 1) * size] for i in range(p)
    }


@pytest.mark.parametrize("p,k", [(4, 2), (5, 5), (6, 3), (2, 2)])
@pytest.mark.parametrize("kind", ["int", "dup"])
def test_every_rank_matches_generator(p, k, kind):
    """Exhaustive over d: every rank of a small set, both engines."""
    n = 4 * p
    parts = even_parts(n, p, seed=p * 31 + k, kind=kind)
    pool = sorted(
        (e for v in parts.values() for e in v), reverse=True
    )
    for d in range(1, n + 1):
        res = run_both(parts, d, p, k)
        assert res.value == pool[d - 1], d


@pytest.mark.parametrize("seed", range(4))
def test_float_median_matches_generator(seed):
    p, k, n = 8, 4, 48
    parts = even_parts(n, p, seed=seed, kind="float")
    run_both(parts, (n + 1) // 2, p, k)


@pytest.mark.parametrize("pair_sorter", ["ones", "uneven"])
def test_pair_sorters_match_generator(pair_sorter):
    p, k, n = 4, 2, 16
    parts = even_parts(n, p, seed=9)
    gen_net = ReferenceMCBNetwork(p=p, k=k)
    gen = mcb_select_descending(
        gen_net, parts, 3, pair_sorter=pair_sorter
    )
    vec_net = MCBNetwork(p=p, k=k)
    vec = mcb_select_descending(
        vec_net, parts, 3, pair_sorter=pair_sorter, engine="vector"
    )
    assert vec.value == gen.value
    assert vec_net.stats.to_dict() == gen_net.stats.to_dict()


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        mcb_select_descending(
            MCBNetwork(p=2, k=2), {1: [1], 2: [2]}, 1, engine="quantum"
        )


def test_emptied_processor_dummy_pairs_round_trip():
    """A purge that empties a processor makes it announce a dummy pair;
    with tagged (tuple) elements the dummy must still travel through the
    pair sorter as a real element (regression: an all--inf tuple head
    satisfied ``is_dummy`` and was dropped as padding)."""
    p, k = 4, 2
    parts = {1: [7, 7, 7, 7], 2: [1, 1, 1, 1], 3: [7, 1, 7, 1],
             4: [1, 7, 1, 7]}
    n = 16
    pool = sorted((e for v in parts.values() for e in v), reverse=True)
    for d in (1, n // 2, n):
        res = run_both(parts, d, p, k)
        assert res.value == pool[d - 1], d


# ---------------------------------------------------------------------------
# The control plane
# ---------------------------------------------------------------------------

EXAMPLES = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def selections(draw):
    """(parts, d, p, k): p in 1..24, k <= p, uneven int/float/dup rows."""
    p = draw(st.integers(1, 24))
    k = draw(st.integers(1, p))
    n = draw(st.integers(1, 6 * p + 8))
    kind = draw(st.sampled_from(["int", "float", "dup"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    if kind == "int":
        pool = rng.sample(range(-10 * n - 10, 10 * n + 10), n)
    elif kind == "float":
        pool = [rng.uniform(-1e6, 1e6) for _ in range(n)]
    else:
        pool = [rng.randrange(max(2, n // 3)) for _ in range(n)]
    parts = {i: [] for i in range(1, p + 1)}
    for e in pool:
        parts[rng.randint(1, p)].append(e)
    d = draw(st.integers(1, n))  # ranks past the middle are reflected
    return parts, d, p, k


@EXAMPLES
@given(selections())
def test_vector_select_matches_reference(case):
    parts, d, p, k = case
    res = run_both(parts, d, p, k)
    pool = sorted((e for v in parts.values() for e in v), reverse=True)
    assert res.value == pool[d - 1]


def plan_runs(op: str) -> dict[str, float]:
    counter = global_registry().counter("network_plan_runs_total")
    return {
        path: counter.get(op=op, path=path)
        for path in ("collective", "stepped")
    }


@pytest.mark.parametrize("engine", ["generator", "vector"])
def test_unobserved_control_stages_run_collectively(engine):
    """Every round's pair sort and both sweeps, and the termination
    prefix, run as one collective step per stage on either engine."""
    p, k = 8, 2
    parts = even_parts(64, p, seed=3)
    before = {op: plan_runs(op) for op in ("sort_ones", "sweep")}
    res = mcb_select(MCBNetwork(p=p, k=k), parts, 20, engine=engine)
    rounds = res.trace.num_phases - 1
    assert rounds > 2
    runs = {
        op: {path: n - before[op][path] for path, n in plan_runs(op).items()}
        for op in before
    }
    # sort-medians; count-prefix, count-ge and the termination prefix
    assert runs["sort_ones"] == {"collective": p * rounds, "stepped": 0}
    assert runs["sweep"] == {"collective": p * (2 * rounds + 1), "stepped": 0}


def test_p1_commits_no_sort_phase():
    """sort_ones runs no stage for one processor."""
    parts = {1: [5, 3, 9, 1, 7]}
    run_both(parts, 2, 1, 1)
    net = MCBNetwork(p=1, k=1)
    mcb_select(net, parts, 2, engine="vector")
    names = net.stats.phase_names()
    assert "select/filter-1/count-prefix" in names
    assert not any(name.endswith("sort-medians") for name in names)
    assert net.stats.phase("select/filter-1/count-prefix").cycles == 0


@pytest.mark.parametrize("p,k", [(9, 2), (5, 1), (17, 3)])
def test_fast_forward_cycles_on_virtual_tree_leaves(p, k):
    """Non-power-of-two p pads the Partial-Sums tree with virtual leaves;
    levels where every live processor sleeps are fast-forwarded."""
    parts = even_parts(6 * p, p, seed=p)
    run_both(parts, 2 * p, p, k)
    net = MCBNetwork(p=p, k=k)
    mcb_select(net, parts, 2 * p, engine="vector")
    ff = net.stats.phase("select/filter-1/count-prefix").fast_forward_cycles
    assert ff > 0


@pytest.mark.parametrize(
    "p,k,fields,kind",
    [
        (4, 2, 2, "int"),  # the 3-field pair fails in the pair sort
        (6, 3, 2, "float"),
        (4, 2, 4, "dup"),  # tagged 5-field pairs
        (1, 1, 2, "dup"),  # no sort; the 3-field med* announce fails
        (1, 1, 0, "int"),  # every message is too big
    ],
)
def test_message_size_error_matches_generator(p, k, fields, kind):
    parts = even_parts(4 * p, p, seed=11, kind=kind)
    outcomes = []
    for engine, cls in (
        ("generator", ReferenceMCBNetwork), ("vector", MCBNetwork)
    ):
        net = cls(p=p, k=k, max_message_fields=fields)
        with pytest.raises(MessageSizeError) as info:
            mcb_select(net, parts, 2, engine=engine)
        outcomes.append((str(info.value), net.stats.phases))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("p,k", [(8, 2), (5, 2)])
def test_observed_vector_select_emits_the_generator_stream(p, k):
    parts = even_parts(8 * p, p, seed=5)
    logs = []
    for engine in ("generator", "vector"):
        net = MCBNetwork(p=p, k=k)
        log = EventLog()
        net.attach_observer(log)
        mcb_select(net, parts, 3 * p, engine=engine)
        logs.append((log.events, net.stats.phases))
    assert logs[0][0] and logs[0] == logs[1]


def test_mixed_int_float_duplicates_match_generator():
    """``1 == 1.0``: mixed rows make an object store, which keeps the
    set-based duplicate scan and §3 tagging."""
    parts = {1: [1, 2.0, 5], 2: [1.0, 3, 4.5], 3: [2, 7, 0.5]}
    for d in range(1, 10):
        run_both(parts, d, 3, 2)


numeric_rows = st.one_of(
    st.lists(st.lists(st.integers(-6, 6), max_size=6), min_size=1, max_size=5),
    st.lists(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                st.floats(allow_nan=False),
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=5,
    ),
)


@EXAMPLES
@given(numeric_rows)
def test_array_duplicate_scan_matches_set_scan(rows):
    parts = {i + 1: row for i, row in enumerate(rows)}
    store = VectorCandidates(parts, len(rows))
    if store.numeric:  # int64/float64 only; the rest keep the set scan
        assert store.has_duplicates() == has_duplicates(parts)


# ---------------------------------------------------------------------------
# The candidate store in isolation, against the list semantics
# ---------------------------------------------------------------------------

class TestVectorCandidates:
    def test_numeric_store_mirrors_lists(self):
        parts = {1: [9, 2, 5, 7], 2: [4, 8, 1, 3], 3: [6, 0, 10, 11]}
        store = VectorCandidates(parts, 3)
        assert store.numeric
        assert store.total() == 12
        for pid, vals in parts.items():
            assert store.count(pid) == len(vals)
            assert store.row(pid) == list(vals)
            assert store.median(pid) == sorted(vals)[len(vals) // 2]
            assert isinstance(store.median(pid), int)
        assert store.ge_counts(5) == [
            sum(1 for e in vals if e >= 5) for vals in parts.values()
        ]

    def test_purge_preserves_order_and_drops_correctly(self):
        parts = {1: [9, 2, 5, 7], 2: [4, 8, 1, 3]}
        store = VectorCandidates(parts, 2)
        store.purge(4, keep_gt=True)
        assert store.row(1) == [9, 5, 7]
        assert store.row(2) == [8]
        store.purge(7, keep_gt=False)
        assert store.row(1) == [5]
        assert store.row(2) == []
        assert store.count(2) == 0 and store.total() == 1

    def test_object_store_handles_tuples(self):
        parts = {1: [(3, 1, 0), (1, 1, 1)], 2: [(2, 2, 0), (4, 2, 1)]}
        store = VectorCandidates(parts, 2)
        assert not store.numeric
        assert store.median(1) == (3, 1, 0)
        assert store.ge_counts((2, 2, 0)) == [1, 2]
        store.purge((2, 2, 0), keep_gt=True)
        assert store.row(1) == [(3, 1, 0)]
        assert store.row(2) == [(4, 2, 1)]

    def test_row_values_are_native_python(self):
        store = VectorCandidates({1: [1.5, -2.5]}, 1)
        row = store.row(1)
        assert all(type(v) is float for v in row)
        assert type(store.median(1)) is float
        counts = store.ge_counts(-2.5)
        assert all(type(c) is int for c in counts)
