"""Comparator-network IR, backends, auto-tuner, and service admission.

Layers covered:

* IR validation (:mod:`repro.mcb.cnet`) — malformed rounds are rejected
  at construction, not at run time.
* Abstract network correctness — the 0-1 principle, exhaustively at
  ``m = 1`` (where merge-split *is* compare-exchange) for every Batcher
  width up to 10.
* Engine parity — a hypothesis battery asserting the vector driver's
  outputs *and* ``RunStats.to_dict()`` equal the ``as_program``
  generator oracle's, plus an exhaustive small-config sweep
  (p <= 16, k in {1, 2, 4}) across all backends including ``"auto"``.
* The columnsort network — ``sort_cnet(..., "columnsort")`` is what
  ``sort_even_pk`` runs (its variants and batch lanes are checked in
  ``tests/test_differential.py``); it keeps the §5.2 dimension rule.
* Executor features — fused execution of cnet plans, the batch axis.
* The cost model — closed forms equal static plan stats; the tuner
  returns an available backend everywhere; overlay predictions match.
* Service admission — ``backend`` in JobSpec with 400-style rejection,
  cache keys that never alias across backends, prewarm plumbing.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import BenchSpec
from repro.mcb.cnet import (
    CompareRound,
    ComparatorNetwork,
    PermuteRound,
    SortRound,
    batcher_network,
    build_network,
    cnet_to_schedule,
    columnsort_network,
)
from repro.mcb.errors import ConfigurationError
from repro.mcb.network import MCBNetwork
from repro.mcb.vector import (
    VectorRun,
    build_state,
    columnsort_plan_stem,
    fuse_phases,
    plan_registry,
)
from repro.obs.metrics import global_registry
from repro.sort import mcb_sort, sort_even_pk, sort_even_pk_batch
from repro.sort.backends import (
    BACKENDS,
    backend_unavailable_reason,
    choose_backend,
    crossover_table,
    predicted_cost,
    static_plan_stats,
)
from repro.sort.cnet_sort import cnet_plans, sort_cnet
from repro.sort.vector import prewarm_plan_cache


def make_columns(k: int, m: int, seed: int) -> dict[int, list[int]]:
    rng = random.Random(seed)
    return {
        pid: [rng.randrange(1 << 16) for _ in range(m)]
        for pid in range(1, k + 1)
    }


def expected_output(columns: dict[int, list], m: int) -> dict[int, tuple]:
    flat = sorted(
        (v for col in columns.values() for v in col), reverse=True
    )
    return {
        pid: tuple(flat[(pid - 1) * m: pid * m])
        for pid in sorted(columns)
    }


# ---------------------------------------------------------------- IR --


class TestNetworkValidation:
    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ConfigurationError, match="two pairs"):
            ComparatorNetwork(
                "bad", 4, (CompareRound(pairs=((0, 1), (1, 2))),)
            )

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ConfigurationError, match="degenerate"):
            ComparatorNetwork("bad", 4, (CompareRound(pairs=((2, 2),)),))

    def test_out_of_range_line_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            ComparatorNetwork("bad", 2, (CompareRound(pairs=((0, 2),)),))

    def test_empty_compare_round_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one pair"):
            ComparatorNetwork("bad", 2, (CompareRound(pairs=()),))

    def test_unknown_permute_phase_rejected(self):
        with pytest.raises(ConfigurationError, match="phase 3"):
            ComparatorNetwork("bad", 2, (PermuteRound(3),))

    def test_mixed_round_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot mix"):
            ComparatorNetwork(
                "bad", 4,
                (CompareRound(pairs=((0, 1),)), PermuteRound(2)),
            )

    def test_unknown_backend_name(self):
        for name in ("quicksort", "bitonic"):
            with pytest.raises(ConfigurationError, match="unknown comparator"):
                build_network(name, 4)

    def test_lowering_requires_matching_shape(self):
        net = batcher_network(4)
        with pytest.raises(ConfigurationError, match="p == k == width"):
            cnet_to_schedule(net, 8, 4, 2)

    def test_columnsort_ir_structure(self):
        net = columnsort_network(5)
        assert net.comm_rounds == 4
        assert net.slot_factor == 1
        assert [r.phase for r in net.rounds
                if isinstance(r, PermuteRound)] == [2, 4, 6, 8]

    def test_batcher_round_counts(self):
        # depth d = ceil(log2 w): d(d+1)/2 rounds at full power of two.
        assert batcher_network(2).comm_rounds == 1
        assert batcher_network(4).comm_rounds == 3
        assert batcher_network(8).comm_rounds == 6
        assert batcher_network(1).comm_rounds == 0
        assert batcher_network(1).slot_factor == 1


# -------------------------------------------- 0-1 principle at m = 1 --


def run_network_m1(net: ComparatorNetwork, vals: list) -> list:
    """Pure-python simulation at one element per line: merge-split is
    compare-exchange (hi keeps max), sorts are no-ops."""
    vals = list(vals)
    for rnd in net.rounds:
        if isinstance(rnd, CompareRound):
            for hi, lo in rnd.pairs:
                if vals[lo] > vals[hi]:
                    vals[hi], vals[lo] = vals[lo], vals[hi]
    return vals


@pytest.mark.parametrize("width", list(range(1, 11)))
def test_batcher_zero_one_principle(width):
    net = batcher_network(width)
    for bits in itertools.product((0, 1), repeat=width):
        out = run_network_m1(net, list(bits))
        assert out == sorted(bits, reverse=True), bits


def test_batcher_large_width_random_values():
    rng = random.Random(7)
    net = batcher_network(16)
    for _ in range(300):
        vals = [rng.randrange(100) for _ in range(16)]
        assert run_network_m1(net, vals) == sorted(vals, reverse=True)


# ----------------------------------------------------- engine parity --


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([1, 2, 4, 8]),
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_vector_matches_generator_oracle(k, m, data):
    """Outputs and full RunStats parity: the vector driver vs the
    ``as_program`` generator oracle, on the same literal plans."""
    vals = data.draw(
        st.lists(
            st.integers(min_value=-(1 << 20), max_value=1 << 20),
            min_size=k * m, max_size=k * m,
        )
    )
    cols = {
        pid: vals[(pid - 1) * m: pid * m] for pid in range(1, k + 1)
    }
    gen_net = MCBNetwork(p=k, k=k)
    gen = sort_cnet(gen_net, cols, "batcher", engine="generator")
    vec_net = MCBNetwork(p=k, k=k)
    vec = sort_cnet(vec_net, cols, "batcher", engine="vector")
    assert gen.output == vec.output
    assert gen_net.stats.to_dict() == vec_net.stats.to_dict()
    assert gen.output == expected_output(cols, m)


def test_exhaustive_small_config_sweep():
    """Every p <= 16, k in {1, 2, 4} shape: backend='auto' sorts
    correctly through mcb_sort; at p == k every available backend is
    bit-identical on both engines."""
    for k in (1, 2, 4):
        for p in range(k, 17, k):  # k | p keeps shapes dispatchable
            for m in (1, 2, 3):
                cols = make_columns(p, m, seed=p * 100 + k * 10 + m)
                want = expected_output(cols, m)
                net = MCBNetwork(p=p, k=k)
                got = mcb_sort(net, cols, backend="auto").output
                assert got == want, ("auto", p, k, m)
                if p != k:
                    continue
                for backend in BACKENDS:
                    if backend_unavailable_reason(backend, p, k, m):
                        continue
                    for engine in ("generator", "vector"):
                        net = MCBNetwork(p=p, k=k)
                        got = mcb_sort(
                            net, cols, backend=backend, engine=engine
                        ).output
                        assert got == want, (backend, engine, p, k, m)


def test_columnsort_backend_enforces_dimension_rule():
    cols = make_columns(4, 2, seed=1)
    with pytest.raises(ValueError, match="m >= k"):
        sort_cnet(MCBNetwork(p=4, k=4), cols, "columnsort")
    # The same shape is fine for batcher.
    out = sort_cnet(MCBNetwork(p=4, k=4), cols, "batcher")
    assert out.output == expected_output(cols, 2)


def test_object_dtype_elements_sort():
    """Non-numeric payloads exercise the object-dtype merge path."""
    k, m = 4, 2
    cols = {
        pid: [f"w{pid}{j}" for j in range(m)] for pid in range(1, k + 1)
    }
    want = expected_output(cols, m)
    for engine in ("generator", "vector"):
        net = MCBNetwork(p=k, k=k)
        got = sort_cnet(net, cols, "batcher", engine=engine).output
        assert got == want, engine


def test_duplicate_values_sort_identically():
    k, m = 4, 3
    cols = {pid: [5, 5, 1] for pid in range(1, k + 1)}
    want = expected_output(cols, m)
    for engine in ("generator", "vector"):
        net = MCBNetwork(p=k, k=k)
        assert sort_cnet(net, cols, "batcher", engine=engine).output == want


# ----------------------------------------- executor feature coverage --


def test_cnet_plan_runs_fused():
    """A compare-round plan survives execute_fused with identical
    results — cnet plans are ordinary compiled phases."""
    network = build_network("batcher", 4)
    m = 2
    compiled = [plan.compile() for plan in cnet_plans("batcher", m, 4)]
    rows = [[9, 1, 0, 0], [7, 3, 0, 0], [8, 2, 0, 0], [6, 4, 0, 0]]

    plain_run = VectorRun(4, 4, phase="plain")
    plain = plain_run.execute(
        compiled[0], build_state([list(r) for r in rows])
    )
    plain_stats = plain_run.finish()[0]

    fused_run = VectorRun(4, 4, phase="plain")
    fused = fused_run.execute_fused(
        fuse_phases([compiled[0]]), build_state([list(r) for r in rows])
    )
    fused_stats = fused_run.finish()[0]
    assert np.array_equal(plain, fused)
    assert plain_stats.to_dict() == fused_stats.to_dict()
    assert network.slot_factor == 2


def test_batch_and_sharded_cnet_match_solo_runs():
    """Every lane of a batched network sort equals its solo run."""
    k, m, lanes = 4, 3, 6
    batches = [make_columns(k, m, seed=50 + b) for b in range(lanes)]
    batch = sort_even_pk_batch(k, batches, backend="batcher", phase="sort")
    solo_stats = []
    for b in range(lanes):
        net = MCBNetwork(p=k, k=k)
        solo = sort_cnet(net, batches[b], "batcher", engine="vector")
        assert batch.results[b].output == solo.output, b
        solo_stats.append(net.stats.to_dict())
        assert batch.stats[b].to_dict() == solo_stats[b], b


def test_batch_rejects_columnsort_knobs_on_cnet_backend():
    batches = [make_columns(4, 2, seed=1)]
    with pytest.raises(ConfigurationError, match="no such knobs"):
        sort_even_pk_batch(4, batches, backend="batcher", wrap_skip=True)
    with pytest.raises(ConfigurationError, match="unknown comparator"):
        sort_even_pk_batch(4, batches, backend="bitonic")


# ------------------------------------------------------- cost model --


def test_static_plan_stats_equal_closed_form():
    for backend in BACKENDS:
        for k, m in ((2, 2), (4, 6), (4, 12), (8, 64)):
            if backend_unavailable_reason(backend, k, k, m):
                continue
            stats = static_plan_stats(backend, k, m)
            pred = predicted_cost(backend, k, m)
            assert stats["cycles"] == pred["cycles"], (backend, k, m)
            assert stats["messages"] == pred["messages"], (backend, k, m)
            assert len(stats["channel_write_counts"]) == k
            assert sum(stats["channel_write_counts"]) == pred["messages"]


def test_predicted_cost_matches_measured_stats():
    """The overlay's closed form equals what RunStats measures — the
    schedules are oblivious, so prediction is exact, not a bound."""
    for backend, k, m in (("batcher", 4, 5), ("batcher", 8, 2),
                          ("columnsort", 4, 12)):
        cols = make_columns(k, m, seed=9)
        net = MCBNetwork(p=k, k=k)
        sort_cnet(net, cols, backend, engine="vector")
        pred = predicted_cost(backend, k, m)
        assert net.stats.cycles == pred["cycles"], backend
        assert net.stats.messages == pred["messages"], backend


def test_choose_backend_fallbacks_and_availability():
    # Shapes outside every comparator network fall back to columnsort.
    assert choose_backend(8, 4, 16) == "columnsort"   # p != k
    assert choose_backend(4, 4, 7) == "columnsort"    # p does not divide n
    assert choose_backend(4, 4, 0) == "columnsort"
    # Any even p == k shape resolves to an available backend.
    for k in (1, 2, 3, 4, 5, 8, 16):
        for m in (1, 2, 8, 64, 200):
            chosen = choose_backend(k, k, k * m)
            assert chosen in BACKENDS
            assert backend_unavailable_reason(chosen, k, k, m) is None


def test_crossover_table_has_no_empty_rows():
    rows = crossover_table()
    assert rows
    for row in rows:
        assert row["choice"] in BACKENDS
        assert row["backends"][row["choice"]]["available"]
        assert any(e["available"] for e in row["backends"].values())
        for entry in row["backends"].values():
            if not entry["available"]:
                assert entry["reason"]


def test_overlay_prediction_for_cnet_phase():
    from repro.bounds.overlay import phase_prediction, run_prediction

    p = k = 4
    n = 8
    total = run_prediction("sort", n=n, p=p, k=k)
    pred = phase_prediction("sort/cnet-batcher", total, n=n, p=p, k=k)
    cost = predicted_cost("batcher", k, n // p)
    assert pred.scope == "phase"
    assert pred.cycles == cost["cycles"]
    assert pred.messages == cost["messages"]
    assert "batcher" in pred.source
    # Unknown cnet names degrade to the run bound, never raise.
    assert phase_prediction(
        "sort/cnet-nonsense", total, n=n, p=p, k=k
    ) is total


# ------------------------------------------------- dispatch contract --


def test_mcb_sort_backend_validation():
    cols = make_columns(4, 2, seed=2)
    net = MCBNetwork(p=4, k=4)
    for name in ("mergesort", "bitonic"):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            mcb_sort(net, cols, backend=name)
    with pytest.raises(ConfigurationError, match="cannot run under"):
        mcb_sort(net, cols, backend="batcher", strategy="uneven")
    with pytest.raises(ConfigurationError, match="p == k"):
        mcb_sort(MCBNetwork(p=8, k=4), make_columns(8, 2, seed=2),
                 backend="batcher")


def test_auto_backend_never_raises_on_awkward_shapes():
    # Uneven distribution: auto backend resolves to columnsort and the
    # uneven strategy runs.
    cols = {1: [3, 1], 2: [2], 3: [5, 4, 0], 4: [7]}
    net = MCBNetwork(p=4, k=4)
    out = mcb_sort(net, cols, backend="auto").output
    flat = sorted((v for c in cols.values() for v in c), reverse=True)
    assert sorted(
        (v for seg in out.values() for v in seg), reverse=True
    ) == flat
    assert [len(out[pid]) for pid in sorted(out)] == [2, 1, 3, 1]


def test_sort_even_pk_rejects_columnsort_knobs_for_cnet():
    cols = make_columns(4, 2, seed=4)
    with pytest.raises(ConfigurationError, match="no such knobs"):
        sort_even_pk(MCBNetwork(p=4, k=4), cols, backend="batcher",
                     paper_phase2=True)


def test_cnet_extends_fast_path_below_dimension_rule():
    """The service regime: p = k = 4, m = 2 is invalid for columnsort
    (falls to 'uneven') but sorts on the even-pk fast path via auto."""
    cols = make_columns(4, 2, seed=11)
    auto_net = MCBNetwork(p=4, k=4)
    out = mcb_sort(auto_net, cols, backend="auto")
    assert out.output == expected_output(cols, 2)
    names = [ph["name"] for ph in auto_net.stats.to_dict()["phases"]]
    assert any("cnet-" in name for name in names)


# ------------------------------------------------- caching/prewarm --


def test_plan_registry_backend_labels(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    reg = global_registry()
    reg.reset()
    plan_registry().clear()  # clears every backend
    cnet_plans("batcher", 12, 4)
    plans = reg.counter("vector_plan_cache_total")
    assert plans.get(result="miss", backend="batcher") == 1
    cnet_plans("batcher", 12, 4)
    assert plans.get(result="hit", backend="batcher") == 1
    # One eviction surface: clearing the registry evicts the batcher
    # entry too, which then disk-hits.
    plan_registry().clear()
    cnet_plans("batcher", 12, 4)
    assert plans.get(result="disk_hit", backend="batcher") == 1
    # Different backends never alias: columnsort at the same shape misses.
    cnet_plans("columnsort", 12, 4)
    assert plans.get(result="miss", backend="columnsort") == 1


def test_prewarm_accepts_backend_configs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    reg = global_registry()
    reg.reset()
    plan_registry().clear()
    warmed = prewarm_plan_cache([
        (12, 4), ("batcher", 12, 4), ("columnsort", 8, 2),
    ])
    assert warmed == 3
    plans = reg.counter("vector_plan_cache_total")
    cnet_plans("batcher", 12, 4)
    assert plans.get(result="hit", backend="batcher") == 1


def test_prewarm_warms_the_variant_it_names(tmp_path, monkeypatch):
    # The backend-first form carries the columnsort variant fields too,
    # and refuses them on any other backend, as a sort would.
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    plan_registry().clear()
    assert prewarm_plan_cache([("columnsort", 12, 4, True, True)]) == 1
    assert columnsort_plan_stem(12, 4, True, True) in plan_registry()
    assert columnsort_plan_stem(12, 4, False, False) not in plan_registry()
    with pytest.raises(ConfigurationError, match="columnsort schedule"):
        prewarm_plan_cache([("batcher", 12, 4, True)])


def test_parse_prewarm_backend_grammar():
    from repro.service.cli import parse_prewarm

    assert parse_prewarm(["20x5", "20x5:wrap", "batcher:8x4"]) == (
        (20, 5, False, False), (20, 5, False, True), ("batcher", 8, 4),
    )
    # columnsort: prefix is the legacy tuple, so it shares cache entries.
    assert parse_prewarm(["columnsort:20x5:wrap"]) == (
        (20, 5, False, True),
    )
    with pytest.raises(SystemExit, match="wrap"):
        parse_prewarm(["batcher:8x4:wrap"])
    with pytest.raises(SystemExit):
        parse_prewarm(["batcher:"])


def test_zero_round_network_compiles_to_empty_tuple(tmp_path, monkeypatch):
    """batcher at k=1 has no communication rounds: the compiled tuple is
    empty, survives the disk cache, and the sort still works."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    plan_registry().clear()
    assert cnet_plans("batcher", 3, 1) == ()
    plan_registry().clear()
    assert cnet_plans("batcher", 3, 1) == ()  # disk round-trip
    cols = {1: [2, 9, 4]}
    for engine in ("generator", "vector"):
        net = MCBNetwork(p=1, k=1)
        out = sort_cnet(net, cols, "batcher", engine=engine)
        assert out.output == {1: (9, 4, 2)}


# ------------------------------------------------- service admission --


class TestServiceBackendAdmission:
    def _payload(self, **over):
        base = {
            "algorithm": "sort", "p": 4, "k": 4, "n": 8,
            "engine": "vector", "backend": "batcher",
        }
        base.update(over)
        return base

    def test_unknown_backend_rejected_at_admission(self):
        from repro.service.jobs import JobSpec

        for name in ("shellsort", "bitonic"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                JobSpec.from_payload(self._payload(backend=name))

    def test_backend_shape_validated_at_admission(self):
        from repro.service.jobs import JobSpec

        with pytest.raises(ConfigurationError, match="p == k"):
            JobSpec.from_payload(
                self._payload(p=8, k=4, n=16, engine="generator")
            )
        with pytest.raises(ConfigurationError, match="no backend axis"):
            JobSpec.from_payload(
                self._payload(algorithm="select", engine="generator")
            )

    def test_vector_cnet_job_admitted_below_columnsort_dims(self):
        from repro.service.jobs import JobSpec

        # m=2 < k(k-1): columnsort would 400, batcher is admitted.
        spec = JobSpec.from_payload(self._payload())
        assert spec.backend == "batcher"
        with pytest.raises(ConfigurationError, match="dimensions"):
            JobSpec.from_payload(self._payload(backend="columnsort"))

    def test_auto_backend_resolved_at_admission(self):
        from repro.service.jobs import JobSpec

        spec = JobSpec.from_payload(self._payload(backend="auto"))
        assert spec.backend == choose_backend(4, 4, 8)
        assert spec.to_dict()["backend"] == spec.backend

    def test_cache_keys_do_not_alias_across_backends(self):
        from repro.service.jobs import JobSpec

        a = JobSpec.from_payload(self._payload(batch=2))
        b = JobSpec.from_payload(
            self._payload(p=4, k=4, n=48, backend="columnsort", batch=2)
        )
        a_keys = a.lane_keys()
        assert all(key.backend == "batcher" for key in a_keys)
        assert all(key.backend == "columnsort" for key in b.lane_keys())
        assert a_keys[0].filename() != a_keys[0]._replace(
            backend="columnsort"
        ).filename()

    def test_default_backend_is_columnsort(self):
        from repro.service.jobs import JobSpec

        spec = JobSpec.from_payload(
            {"algorithm": "sort", "p": 4, "k": 4, "n": 48}
        )
        assert spec.backend == "columnsort"

    def test_batch_lanes_run_cnet_backend(self):
        from repro.service.execution import run_batch_lanes

        payloads = run_batch_lanes(
            BenchSpec(algorithm="sort", p=4, k=4, n=8, engine="vector",
                      backend="batcher"),
            [0, 1],
        )
        assert len(payloads) == 2
        for payload in payloads:
            names = [
                ph["name"] for ph in payload["stats"]["phases"]
            ]
            assert any("cnet-batcher" in name for name in names)
