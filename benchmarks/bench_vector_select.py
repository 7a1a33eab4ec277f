"""Vector selection benchmark: NumPy candidate plane vs Python lists.

``mcb_select(engine="vector")`` swaps the local candidate *data
plane*: medians, ``>= med*`` rank counts and the case-2/3 purges run as
whole-matrix NumPy operations
(:class:`repro.select.vector.VectorCandidates`) instead of per-element
list comprehensions.  Both engines run the same §8 control stages
(:class:`repro.select.filtering.NetworkControl`), whose pair sort and
sweeps the fast engine runs as collective steps, so cycles, messages
and bits are identical.  Two legs, both gated:

* ``run`` — one full median selection at ``p = 8, k = 2, n = 800k``,
  generator vs vector engine, asserted bit-identical (value, trace,
  ``RunStats.to_dict()``).  The whole-run ratio dilutes the data-plane
  win with costs both engines share (the input type scan, the
  termination gather), so the gate is a conservative **>= 3.5x**; the
  recorded baseline is ~5x, taken before the control-plane replay and
  the array duplicate scan (12-14x since, on a 2-core x86 box).
* ``data_plane`` — the two candidate stores driven through an identical
  filtering-round script (medians -> rank counts -> purge until nearly
  dry), asserted to produce identical round traces and survivors.  This
  is the component the vector engine actually replaces and the paper
  charges nothing for; required: **>= 5x**.

Results accumulate in ``benchmarks/results/session/BENCH_vector_select.json``
(canonical bench name ``vector_select``); the first record of the
committed ``benchmarks/results/BENCH_vector_select.json`` is the
baseline for the CI perf-regression check.
"""

from __future__ import annotations

import time

from repro import Distribution, MCBNetwork, mcb_select
from repro.select.filtering import _ListCandidates
from repro.select.vector import VectorCandidates

P, K = 8, 2
N = 800_000
REQUIRED_RUN_SPEEDUP = 3.5
REQUIRED_PLANE_SPEEDUP = 5.0


def drive_filtering_rounds(store, d: int, p: int):
    """The selection loop's data-plane script, engine-independent.

    Mirrors one §8 filtering round per iteration — live-processor
    medians, a deterministic ``med*`` (median of medians by value), rank
    counts, then the case-2/3 purge — until the candidate set is nearly
    dry.  Every number it returns is asserted identical across stores,
    so the timing difference is purely the data-plane implementation.
    """
    trace = []
    while store.total() > 64:
        meds = [
            store.median(pid) for pid in range(1, p + 1) if store.count(pid)
        ]
        med_star = sorted(meds)[len(meds) // 2]
        ge = store.ge_counts(med_star)
        cnt = sum(ge)
        if d <= cnt:
            store.purge(med_star, keep_gt=True)
        else:
            d -= cnt
            store.purge(med_star, keep_gt=False)
        trace.append((med_star, cnt, store.total()))
    survivors = sorted(
        x for pid in range(1, p + 1) for x in store.row(pid)
    )
    return trace, survivors


def test_vector_select_speedup(benchmark, emit, record):
    dist = Distribution.even(N, P, seed=11)
    d = (N + 1) // 2

    # Warm both engines at a small size so one-time costs (imports,
    # lazily-compiled regexes) stay out of the measured runs.
    small = Distribution.even(1024, P, seed=1)
    for eng in ("generator", "vector"):
        mcb_select(MCBNetwork(p=P, k=K), small, 512, engine=eng)

    # ---- leg 1: whole selection run, generator vs vector ----------------
    net_g = MCBNetwork(p=P, k=K)
    start = time.perf_counter()
    res_g = mcb_select(net_g, dist, d)
    gen_wall = time.perf_counter() - start

    net_v = MCBNetwork(p=P, k=K)

    def vector_run():
        start = time.perf_counter()
        res = mcb_select(net_v, dist, d, engine="vector")
        return time.perf_counter() - start, res

    vec_wall, res_v = benchmark.pedantic(vector_run, rounds=1, iterations=1)
    assert res_v.value == res_g.value
    assert type(res_v.value) is type(res_g.value)
    assert res_v.trace.phases == res_g.trace.phases
    assert net_v.stats.to_dict() == net_g.stats.to_dict()
    run_speedup = gen_wall / vec_wall

    # ---- leg 2: the candidate data plane in isolation -------------------
    parts = dist.parts
    list_store = _ListCandidates(parts, P)
    start = time.perf_counter()
    list_trace, list_out = drive_filtering_rounds(list_store, d, P)
    list_wall = time.perf_counter() - start

    vec_store = VectorCandidates(parts, P)
    start = time.perf_counter()
    vec_trace, vec_out = drive_filtering_rounds(vec_store, d, P)
    plane_wall = time.perf_counter() - start
    assert vec_trace == list_trace
    assert vec_out == list_out
    plane_speedup = list_wall / plane_wall

    record(
        bench="vector_select",
        p=P,
        k=K,
        n=N,
        rank=d,
        rounds=len(list_trace),
        run_wall_s={"generator": round(gen_wall, 6),
                    "vector": round(vec_wall, 6)},
        plane_wall_s={"lists": round(list_wall, 6),
                      "vector": round(plane_wall, 6)},
        speedup={
            "run": round(run_speedup, 3),
            "data_plane": round(plane_speedup, 3),
        },
    )

    emit(
        "Vector selection — NumPy candidate plane vs Python lists at "
        f"p={P}, k={K}, n={N} (run ≥{REQUIRED_RUN_SPEEDUP}x, data plane "
        f"≥{REQUIRED_PLANE_SPEEDUP:.0f}x required)",
        ["leg", "generator", "vector", "speedup"],
        [
            [
                "full select (wall s)",
                f"{gen_wall:.3f}",
                f"{vec_wall:.3f}",
                f"{run_speedup:.1f}x",
            ],
            [
                "data plane (wall s)",
                f"{list_wall:.3f}",
                f"{plane_wall:.4f}",
                f"{plane_speedup:.1f}x",
            ],
        ],
        notes=(
            f"{len(list_trace)} filtering rounds; both legs assert "
            "bit-identical outputs before timing counts"
        ),
        bench="vector_select",
    )

    assert run_speedup >= REQUIRED_RUN_SPEEDUP, (
        f"vector select run {run_speedup:.2f}x < required "
        f"{REQUIRED_RUN_SPEEDUP}x over the generator engine"
    )
    assert plane_speedup >= REQUIRED_PLANE_SPEEDUP, (
        f"vector candidate plane {plane_speedup:.2f}x < required "
        f"{REQUIRED_PLANE_SPEEDUP}x over the list store"
    )
