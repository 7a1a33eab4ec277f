"""Persistent compiled-plan cache: round-trips, corruption, env knobs.

The disk cache (:mod:`repro.mcb.vector.cache`) must hand back arrays
bit-identical to what was saved, treat *any* unreadable/stale entry as
a miss (never an error), and resolve its directory from
``REPRO_PLAN_CACHE`` with an explicit off switch.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.mcb.vector import SchedulePlan
from repro.mcb.vector.cache import (
    PlanRegistry,
    PLAN_SCHEMA_VERSION,
    _ARRAY_FIELDS,
    columnsort_plan_stem,
    load_compiled_phases,
    plan_registry,
    plan_cache_dir,
    plan_entry_path,
    save_compiled_phases,
)


def _sample_plans():
    a = SchedulePlan(
        p=3, k=2, cycles=2, slots=3,
        writes=[(0, 0, 1, 0), (0, 1, 2, 1), (1, 2, 1, 2)],
        reads=[(0, 2, 1, 0), (1, 0, 1, 1)],
        moves=[(1, 0, 2)],
    )
    b = SchedulePlan(
        p=3, k=2, cycles=1, slots=3,
        writes=[(0, 2, 2, 0)], reads=[(0, 1, 2, 0)],
        kind="tuple3",
    )
    return (a, b)


def _sample_phases():
    return tuple(plan.compile() for plan in _sample_plans())


def test_round_trip_is_exact(tmp_path):
    phases = _sample_phases()
    path = tmp_path / "entry.npz"
    assert save_compiled_phases(path, phases) == path
    loaded = load_compiled_phases(path)
    assert loaded is not None
    assert len(loaded) == len(phases)
    for fresh, back in zip(phases, loaded):
        assert (
            fresh.p, fresh.k, fresh.cycles, fresh.slots, fresh.kind,
        ) == (
            back.p, back.k, back.cycles, back.slots, back.kind,
        )
        for name in _ARRAY_FIELDS:
            got = getattr(back, name)
            assert got.dtype == np.int64
            assert np.array_equal(got, getattr(fresh, name)), name


def test_missing_entry_loads_as_none(tmp_path):
    assert load_compiled_phases(tmp_path / "absent.npz") is None


def test_corrupt_entry_loads_as_none(tmp_path):
    path = tmp_path / "entry.npz"
    save_compiled_phases(path, _sample_phases())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # truncate mid-archive
    assert load_compiled_phases(path) is None
    path.write_bytes(b"not a zip archive at all")
    assert load_compiled_phases(path) is None


def test_schema_mismatch_loads_as_none(tmp_path):
    phases = _sample_phases()
    path = tmp_path / "entry.npz"
    save_compiled_phases(path, phases)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["schema"] = np.array(
        [PLAN_SCHEMA_VERSION + 1, arrays["schema"][1]], dtype=np.int64
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    assert load_compiled_phases(path) is None


def _rewrite(path, **changes):
    """Rewrite the entry at ``path`` with some arrays replaced."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    for name, change in changes.items():
        arrays[name] = change(arrays[name])
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize(
    "changes",
    [
        {"p0_w_src": lambda a: a + 1000},
        {"p0_w_proc": lambda a: -a - 1},
        {"p0_w_chan": lambda a: a * 0},
        {"p0_w_cycle": lambda a: a + 2},
        {"p0_w_src": lambda a: a[:-1]},
        {"p1_out_idx": lambda a: a + 100},
        {"p1_out_idx": lambda a: a.ravel()},
        {"p1_out_idx": lambda a: a[:, :-1]},
        {"p1_meta": lambda a: a[:3]},
        # in range, but a slot takes another processor's value: no
        # local move does that
        {"p1_out_idx": lambda a: a[::-1]},
    ],
)
def test_out_of_range_entry_loads_as_none(tmp_path, changes):
    # A well-formed archive whose arrays do not fit the entry's own
    # p, k, cycles and slots would index out of bounds when run.
    path = tmp_path / "entry.npz"
    save_compiled_phases(path, _sample_phases())
    assert load_compiled_phases(path) is not None
    _rewrite(path, **changes)
    assert load_compiled_phases(path) is None


def test_damaged_disk_entry_is_recompiled(monkeypatch, tmp_path):
    from repro.mcb import MCBNetwork
    from repro.obs.metrics import global_registry
    from repro.sort import sort_even_pk
    from repro.sort.cnet_sort import cnet_plans

    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    m, k = 12, 4
    plan_registry().clear()
    cnet_plans("columnsort", m, k)  # compiles and writes the entry
    path = plan_entry_path(tmp_path, columnsort_plan_stem(m, k, False, False))
    _rewrite(path, p0_w_src=lambda a: a + 1000)
    plan_registry().clear()
    counter = global_registry().counter("vector_plan_cache_total")
    misses = counter.get(result="miss", backend="columnsort")
    values = np.random.default_rng(3).permutation(m * k).tolist()
    parts = {pid: values[(pid - 1) * m: pid * m] for pid in range(1, k + 1)}
    try:
        got = sort_even_pk(MCBNetwork(k, k), parts, engine="vector")
    finally:
        plan_registry().clear()
    want = sort_even_pk(MCBNetwork(k, k), parts)
    assert got.output == want.output
    assert counter.get(result="miss", backend="columnsort") == misses + 1


def test_plan_path_carries_config_and_version(tmp_path):
    path = plan_entry_path(tmp_path, columnsort_plan_stem(20, 5, True, False))
    assert path.parent == tmp_path
    assert path.name == (
        f"columnsort_m20_k5_paper1_wrap0_v{PLAN_SCHEMA_VERSION}.npz"
    )
    other = plan_entry_path(
        tmp_path, columnsort_plan_stem(20, 5, False, True)
    )
    assert other != path


@pytest.mark.parametrize(
    "value", ["off", "OFF", "0", "", "none", "Disabled", "  off  "]
)
def test_plan_cache_dir_disabled_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_PLAN_CACHE", value)
    assert plan_cache_dir() is None


def test_plan_cache_dir_explicit(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    assert plan_cache_dir() == tmp_path / "plans"


def test_plan_cache_dir_default_honours_xdg(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert plan_cache_dir() == Path(tmp_path / "xdg") / "repro" / "plans"


def test_unwritable_cache_root_still_returns_compiled_phases(
    monkeypatch, tmp_path
):
    # The cache root sits under a regular file, so the save fails (even
    # for root, which chmod would not stop).  The lookup must hand back
    # the phases it built, keep them in memory, and leave no file.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(blocker / "plans"))
    registry = PlanRegistry()
    plans = _sample_plans()
    built = []

    def build():
        built.append(1)
        return plans

    got = registry.lookup("unwritable", backend="test", build=build)
    assert got == plans
    assert registry.lookup("unwritable", backend="test", build=build) == got
    assert built == [1]
    assert "unwritable" in registry
    assert blocker.read_text() == ""


def test_one_lowering_serves_both_engines(monkeypatch, tmp_path):
    # A generator sort lowers and writes the shape once; a vector sort
    # of the same shape then hits the same in-memory entry.
    from repro.mcb import MCBNetwork
    from repro.obs.metrics import global_registry
    from repro.sort import sort_even_pk

    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    reg = global_registry()
    reg.reset()
    plan_registry().clear()
    counter = reg.counter("vector_plan_cache_total")
    m, k = 12, 4
    values = np.random.default_rng(5).permutation(m * k).tolist()
    parts = {pid: values[(pid - 1) * m: pid * m] for pid in range(1, k + 1)}
    try:
        gen = sort_even_pk(MCBNetwork(k, k), parts)
        assert counter.get(result="miss", backend="columnsort") == 1
        assert counter.get(result="hit", backend="columnsort") == 0
        vec = sort_even_pk(MCBNetwork(k, k), parts, engine="vector")
    finally:
        plan_registry().clear()
    assert vec.output == gen.output
    assert counter.get(result="miss", backend="columnsort") == 1
    assert counter.get(result="hit", backend="columnsort") == 1
    assert counter.get(result="disk_hit", backend="columnsort") == 0
    assert [path.name for path in tmp_path.iterdir()] == [
        plan_entry_path(tmp_path, columnsort_plan_stem(m, k, False, False)).name
    ]


def test_registry_evicts_the_least_recently_used_entry(monkeypatch, tmp_path):
    from repro.mcb.vector import cache
    from repro.obs.metrics import global_registry

    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    registry = PlanRegistry()
    registry.lookup("a", backend="test", build=_sample_plans)
    size = registry.nbytes
    assert size > 0
    monkeypatch.setattr(cache, "PLAN_CACHE_BUDGET", 2 * size)
    registry.lookup("b", backend="test", build=_sample_plans)
    registry.lookup("a", backend="test", build=_sample_plans)  # a is newer
    registry.lookup("c", backend="test", build=_sample_plans)
    assert ("a" in registry, "b" in registry, "c" in registry) == (
        True, False, True,
    )
    assert len(registry) == 2 and registry.nbytes == 2 * size
    counter = global_registry().counter("vector_plan_cache_total")
    disk_hits = counter.get(result="disk_hit", backend="test")
    plans = registry.lookup("b", backend="test", build=_sample_plans)
    assert counter.get(result="disk_hit", backend="test") == disk_hits + 1
    assert "a" not in registry  # a was the least recently used now
    for plan, want in zip(plans, _sample_phases()):
        for name in _ARRAY_FIELDS:
            assert np.array_equal(getattr(plan.compile(), name), getattr(want, name))
    # An entry over the whole budget is still kept, alone.
    monkeypatch.setattr(cache, "PLAN_CACHE_BUDGET", 1)
    registry.lookup("d", backend="test", build=_sample_plans)
    assert len(registry) == 1 and "d" in registry


def test_concurrent_lookups_keep_the_byte_count(monkeypatch, tmp_path):
    # Service threads share one registry: hits, misses and evictions
    # racing must leave the byte count equal to the entries held.
    import sys
    import threading

    from repro.mcb.vector import cache

    monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
    registry = PlanRegistry()
    registry.lookup("probe", backend="test", build=_sample_plans)
    size = registry.nbytes
    registry.clear()
    monkeypatch.setattr(cache, "PLAN_CACHE_BUDGET", 3 * size)
    errors = []

    def worker(seed):
        try:
            for i in range(800):
                stem = f"s{(seed * 7 + i) % 5}"
                registry.lookup(stem, backend="test", build=_sample_plans)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(registry) == 3
    assert registry.nbytes == 3 * size


def test_step_tables_count_against_their_entry(monkeypatch, tmp_path):
    # Stepping a plan caches per-processor step tables on it: they are
    # charged to the registry entry once, and only while it holds them.
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    registry = PlanRegistry()
    plans = registry.lookup("a", backend="test", build=_sample_plans)
    size = registry.nbytes
    plans[0].as_program(0, [1, 2, 3])
    grown = registry.nbytes
    assert grown > size
    plans[0].as_program(1, [1, 2, 3])
    assert registry.nbytes == grown
    registry.clear()
    plans[1].as_program(0, [1, 2, 3])
    assert registry.nbytes == 0


def test_registry_bytes_cover_what_plans_hold(monkeypatch):
    # One fast (collective gathers) and one reference (stepped plans)
    # columnsort at m=256, k=16: whatever plan.py still holds once both
    # ran is counted in the registry's bytes.
    import tracemalloc

    from repro.core.distribution import Distribution
    from repro.mcb import MCBNetwork
    from repro.mcb.reference import ReferenceMCBNetwork
    from repro.mcb.vector import plan as plan_module
    from repro.sort import sort_even_pk

    monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
    parts = Distribution.even(256 * 16, 16, seed=0).parts
    plan_registry().clear()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for engine in (MCBNetwork, ReferenceMCBNetwork):
            sort_even_pk(
                engine(16, 16), {pid: list(v) for pid, v in parts.items()}
            )
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename == plan_module.__file__
    )
    assert held > 0
    assert plan_registry().nbytes >= held
