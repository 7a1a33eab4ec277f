"""The vector engine behind ``sort_even_pk`` / ``mcb_sort``: full parity.

``engine="vector"`` must be a pure execution-strategy switch: same
outputs, same ``RunStats.to_dict()``, same obs event stream as the
generator engine — including ``wrap_skip`` (compiled through the
parking-slot lowering) — and a loud :class:`ConfigurationError` for
anything the compiled oblivious path cannot faithfully run (the
adaptive ``mcb_sort`` strategies), never a silent mis-execution.
Output and stats parity of the plain variants (int and float columns)
and of batch lanes against solo runs is drawn in
``tests/test_differential.py``; this module keeps the event streams and
the ``wrap_skip`` message savings.
"""

from __future__ import annotations

import random

import pytest

from repro.bench import BenchSpec, run_config
from repro.mcb.errors import ConfigurationError
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import Observer, global_registry
from repro.sort import mcb_sort, sort_even_pk, sort_even_pk_batch
from repro.mcb.vector import plan_registry
from repro.sort.cnet_sort import cnet_plans

K, M = 4, 16


def int_columns(seed: int, k: int = K, m: int = M) -> dict[int, list]:
    rng = random.Random(seed)
    return {
        pid: [rng.randrange(1000) for _ in range(m)]
        for pid in range(1, k + 1)
    }


def float_columns(seed: int) -> dict[int, list]:
    rng = random.Random(seed)
    return {
        pid: [round(rng.uniform(-50, 50), 3) for _ in range(M)]
        for pid in range(1, K + 1)
    }


def run_both(columns: dict[int, list], **kwargs):
    gen_net = ReferenceMCBNetwork(p=K, k=K)
    gen = sort_even_pk(
        gen_net, {p: list(v) for p, v in columns.items()}, **kwargs
    )
    vec_net = ReferenceMCBNetwork(p=K, k=K)
    vec = sort_even_pk(
        vec_net, {p: list(v) for p, v in columns.items()},
        engine="vector", **kwargs,
    )
    return gen_net, gen, vec_net, vec


def test_vector_sort_with_duplicates_via_mcb_sort():
    """Duplicate elements are lifted to tagged tuples (§3), which the
    vector engine runs on the object dtype — same answer, same bits."""
    rng = random.Random(3)
    columns = {
        pid: [rng.randrange(5) for _ in range(M)] for pid in range(1, K + 1)
    }
    gen_net = ReferenceMCBNetwork(p=K, k=K)
    gen = mcb_sort(gen_net, {p: list(v) for p, v in columns.items()})
    vec_net = ReferenceMCBNetwork(p=K, k=K)
    vec = mcb_sort(
        vec_net, {p: list(v) for p, v in columns.items()}, engine="vector"
    )
    assert gen.output == vec.output
    assert gen_net.stats.to_dict() == vec_net.stats.to_dict()


def test_batch_lanes_must_share_shape():
    with pytest.raises(ValueError, match="same .k, m."):
        sort_even_pk_batch(K, [int_columns(1), int_columns(2, k=K, m=2 * M)])
    with pytest.raises(ConfigurationError, match="at least one lane"):
        sort_even_pk_batch(K, [])


class Recorder(Observer):
    def __init__(self):
        self.events = []

    def on_phase_start(self, ev):
        self.events.append(ev)

    def on_phase_end(self, ev):
        self.events.append(ev)

    def on_message(self, ev):
        self.events.append(ev)

    def on_collision(self, ev):
        self.events.append(ev)

    def on_fast_forward(self, ev):
        self.events.append(ev)


@pytest.mark.parametrize("paper_phase2", [False, True])
def test_vector_event_stream_matches_generator(paper_phase2):
    """Observers see the identical event sequence from either engine:
    same phases, same per-message (cycle, channel, writer, readers,
    fields, bits), in the same order."""
    columns = int_columns(5)
    gen_rec, vec_rec = Recorder(), Recorder()
    gen_net = ReferenceMCBNetwork(p=K, k=K)
    gen_net.attach_observer(gen_rec)
    sort_even_pk(
        gen_net, {p: list(v) for p, v in columns.items()},
        paper_phase2=paper_phase2,
    )
    vec_net = ReferenceMCBNetwork(p=K, k=K)
    vec_net.attach_observer(vec_rec)
    sort_even_pk(
        vec_net, {p: list(v) for p, v in columns.items()},
        paper_phase2=paper_phase2, engine="vector",
    )
    assert len(gen_rec.events) == len(vec_rec.events)
    assert gen_rec.events == vec_rec.events


@pytest.mark.parametrize("kind", ["int", "float"])
def test_wrap_skip_matches_generator(kind):
    """The §5.2 wrap-around optimization compiles (parking slots) and
    matches the generator's output, stats, and message savings."""
    columns = int_columns(31) if kind == "int" else float_columns(31)
    gen_net, gen, vec_net, vec = run_both(columns, wrap_skip=True)
    assert gen.output == vec.output
    assert gen_net.stats.to_dict() == vec_net.stats.to_dict()
    # It actually saves the 2 * floor(m/2) messages vs the plain path.
    plain_net, _, _, _ = run_both(columns)
    saved = plain_net.stats.messages - gen_net.stats.messages
    assert saved == 2 * (M // 2)


def test_wrap_skip_event_stream_matches_generator():
    columns = int_columns(33)
    gen_rec, vec_rec = Recorder(), Recorder()
    gen_net = ReferenceMCBNetwork(p=K, k=K)
    gen_net.attach_observer(gen_rec)
    sort_even_pk(
        gen_net, {p: list(v) for p, v in columns.items()}, wrap_skip=True
    )
    vec_net = ReferenceMCBNetwork(p=K, k=K)
    vec_net.attach_observer(vec_rec)
    sort_even_pk(
        vec_net, {p: list(v) for p, v in columns.items()},
        engine="vector", wrap_skip=True,
    )
    assert gen_rec.events == vec_rec.events


def test_unknown_engine_rejected():
    net = ReferenceMCBNetwork(p=K, k=K)
    with pytest.raises(ConfigurationError, match="unknown engine 'warp'"):
        sort_even_pk(net, int_columns(1), engine="warp")
    with pytest.raises(ConfigurationError, match="unknown engine 'warp'"):
        mcb_sort(net, int_columns(1), engine="warp")


def test_vector_engine_rejects_adaptive_strategies():
    net = ReferenceMCBNetwork(p=4, k=2)
    uneven = {1: [1, 2, 3], 2: [4], 3: [5, 6], 4: [7]}
    with pytest.raises(ConfigurationError, match="adaptive"):
        mcb_sort(net, uneven, engine="vector")
    # The same distribution runs fine on the generator engine.
    out = mcb_sort(ReferenceMCBNetwork(p=4, k=2), uneven)
    assert sorted(sum((list(v) for v in out.output.values()), [])) == list(
        range(1, 8)
    )


def test_mcb_sort_vector_happy_path():
    net = ReferenceMCBNetwork(p=K, k=K)
    out = mcb_sort(net, int_columns(9), engine="vector")
    merged = sum((list(v) for v in out.output.values()), [])
    assert merged == sorted(merged, reverse=True)


def test_bench_spec_engine_fingerprint_parity():
    """A grid point run on either engine produces the same output
    fingerprint and the same simulated stats — the determinism contract
    the bench cache relies on."""
    gen = run_config(BenchSpec("sort", 4, 4, 64, seed=1))
    vec = run_config(BenchSpec("sort", 4, 4, 64, seed=1, engine="vector"))
    assert gen["fingerprint"] == vec["fingerprint"]
    assert gen["stats"] == vec["stats"]
    assert gen["spec"] != vec["spec"]  # engines never alias in the cache


def test_schedule_cache_counters_track_compilation_reuse(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
    reg = global_registry()
    reg.reset()
    plan_registry().clear()
    cnet_plans("columnsort", M, K)
    # counter() is create-or-fetch: the BvN counter only exists if this
    # session's schedule caches were cold when the phases compiled.
    bvn = reg.counter("columnsort_bvn_cache_total")
    misses = bvn.get(result="miss")
    hits = bvn.get(result="hit")
    plan_registry().clear()
    cnet_plans("columnsort", M, K)
    # Recompiling the same (m, k) hits the BvN cache (one lookup per
    # transformation phase) and recomputes nothing.
    assert bvn.get(result="miss") == misses
    assert bvn.get(result="hit") >= hits + 4


def test_plan_cache_counters_and_compile_seconds(tmp_path, monkeypatch):
    """The compiled-plan cache reports hits/misses/disk-hits and compile
    wall time on the global registry (the /metrics surface the service
    pre-warming satellite relies on)."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    reg = global_registry()
    reg.reset()
    plan_registry().clear()
    plans = reg.counter("vector_plan_cache_total")
    cnet_plans("columnsort", M, K)
    assert plans.get(result="miss", backend="columnsort") == 1
    assert plans.get(result="hit", backend="columnsort") == 0
    seconds = reg.counter("vector_plan_compile_seconds")
    first_cost = seconds.get()
    assert first_cost > 0
    cnet_plans("columnsort", M, K)
    assert plans.get(result="hit", backend="columnsort") == 1
    assert seconds.get() == first_cost  # hits compile nothing
    # wrap_skip is a distinct plan identity, not a hit on the plain one.
    cnet_plans("columnsort", M, K, wrap_skip=True)
    assert plans.get(result="miss", backend="columnsort") == 2
    # A fresh in-process cache (= a fresh process) loads the persisted
    # entry from disk instead of recompiling.
    total_cost = seconds.get()
    plan_registry().clear()
    cnet_plans("columnsort", M, K)
    assert plans.get(result="disk_hit", backend="columnsort") == 1
    assert plans.get(result="miss", backend="columnsort") == 2
    assert seconds.get() == total_cost  # disk hits compile nothing


def test_plan_cache_disabled_by_env(tmp_path, monkeypatch):
    """REPRO_PLAN_CACHE=off keeps every lookup in memory: a cleared
    cache recompiles (miss), never touches disk."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
    reg = global_registry()
    reg.reset()
    plan_registry().clear()
    plans = reg.counter("vector_plan_cache_total")
    cnet_plans("columnsort", M, K)
    plan_registry().clear()
    cnet_plans("columnsort", M, K)
    assert plans.get(result="miss", backend="columnsort") == 2
    assert plans.get(result="disk_hit", backend="columnsort") == 0


def test_prewarm_plan_cache(tmp_path, monkeypatch):
    from repro.sort.vector import prewarm_plan_cache

    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    reg = global_registry()
    reg.reset()
    plan_registry().clear()
    warmed = prewarm_plan_cache([(M, K), (M, K, False, True)])
    assert warmed == 2
    plans = reg.counter("vector_plan_cache_total")
    assert plans.get(result="miss", backend="columnsort") == 2
    # Warm cache: the next sort's plan lookup is a hit.
    cnet_plans("columnsort", M, K)
    assert plans.get(result="hit", backend="columnsort") == 1
    # Pre-warming persisted both entries: a fresh process disk-hits.
    plan_registry().clear()
    warmed = prewarm_plan_cache([(M, K), (M, K, False, True)])
    assert warmed == 2
    assert plans.get(result="disk_hit", backend="columnsort") == 2
    assert plans.get(result="miss", backend="columnsort") == 2
