"""E-OBS — observability must be free when nobody is listening.

``MCBNetwork.run`` tests ``_dispatch is not None`` once per stage: an
unobserved stage runs the fast loop, which has no observer branch, and
an observed one runs on the reference interpreter's loop.  This
benchmark guards the acceptance criterion that an unobserved run pays
nothing for observability:

* structurally — a freshly constructed network has ``_dispatch is
  None``, so every stage takes the fast loop and constructs no event
  objects;
* empirically — best-of-N timing of an unobserved run must not exceed
  the same run with a no-op observer attached (which runs on the
  interpreter's loop and *does* construct every event) — if the
  unobserved path were doing event work, the two would converge and
  the margin assertion would trip.

Also records the measured costs machine-readably via the session
recorder, so the obs overhead trajectory is tracked like every other
perf number.
"""

from __future__ import annotations

import time

from repro.core import Distribution
from repro.mcb import MCBNetwork
from repro.obs import MetricsObserver, Observer, Profiler
from repro.sort import mcb_sort


def _workload(net: MCBNetwork) -> None:
    dist = Distribution.even(256, net.p, seed=3)
    mcb_sort(net, dist)


def _best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_obs_zero_overhead_when_unobserved(benchmark, emit, record):
    # Structural guard: no observers => no dispatcher => every stage
    # takes the fast loop, which builds no events.
    net = MCBNetwork(p=8, k=2)
    assert net._dispatch is None
    assert net.observers == ()
    _workload(net)
    assert net._dispatch is None  # running attaches nothing

    # Empirical guard: unobserved must be at least as fast as observed
    # (the observed run steps on the interpreter's loop and builds one
    # event object per message), modulo a 25% noise margin.
    t_plain = _best_of(lambda: _workload(MCBNetwork(p=8, k=2)))

    def observed():
        onet = MCBNetwork(p=8, k=2)
        onet.attach_observer(Observer())  # no-op hooks, full event build
        _workload(onet)

    t_observed = _best_of(observed)
    assert t_plain <= t_observed * 1.25, (
        f"unobserved run ({t_plain:.4f}s) slower than observed "
        f"({t_observed:.4f}s): the no-observer fast path regressed"
    )

    net = MCBNetwork(p=8, k=2)
    _workload(net)
    emit(
        "E-OBS  Observability overhead: sort n=256 on MCB(8,2)",
        ["variant", "best wall s", "cycles", "messages"],
        [
            ["no observers", round(t_plain, 5), net.stats.cycles,
             net.stats.messages],
            ["no-op observer", round(t_observed, 5), net.stats.cycles,
             net.stats.messages],
        ],
        notes=f"unobserved/observed = {t_plain / t_observed:.2f} "
        "(must stay <= 1.25)",
    )
    record(
        config={"p": 8, "k": 2, "n": 256},
        cycles=net.stats.cycles,
        messages=net.stats.messages,
        t_plain=t_plain,
        t_observed=t_observed,
    )
    benchmark.pedantic(
        lambda: _workload(MCBNetwork(p=8, k=2)), rounds=3, iterations=1
    )


def test_obs_vector_engine_unobserved_builds_no_events(emit, record):
    # The vector executor shares the zero-overhead contract: with no
    # dispatcher, the batched hot loop must construct zero event
    # objects.  Count constructions directly by wrapping the event
    # classes in the executor's own namespace.
    import repro.mcb.vector.executor as vex
    from repro.obs import TraceBuilder

    dist = Distribution.even(48, 4, seed=3)

    counts = {"message": 0, "phase_start": 0}
    real_mb, real_ps = vex.MessageBroadcast, vex.PhaseStarted

    def counting(cls, key):
        def make(*a, **kw):
            counts[key] += 1
            return cls(*a, **kw)
        return make

    vex.MessageBroadcast = counting(real_mb, "message")
    vex.PhaseStarted = counting(real_ps, "phase_start")
    try:
        net = MCBNetwork(p=4, k=4)
        assert net._dispatch is None
        mcb_sort(net, dist, engine="vector")
        assert counts == {"message": 0, "phase_start": 0}, (
            f"unobserved vector run constructed events: {counts}"
        )
        unobserved_stats = (net.stats.cycles, net.stats.messages)

        # Sanity: the same run *with* an observer does construct events
        # (otherwise the counter above proves nothing).
        onet = MCBNetwork(p=4, k=4)
        onet.attach_observer(TraceBuilder())
        mcb_sort(onet, dist, engine="vector")
        assert counts["message"] > 0 and counts["phase_start"] > 0
        assert (onet.stats.cycles, onet.stats.messages) == unobserved_stats
    finally:
        vex.MessageBroadcast = real_mb
        vex.PhaseStarted = real_ps

    emit(
        "E-OBS3  Vector engine unobserved path: sort n=48 on MCB(4,4)",
        ["variant", "events built", "cycles", "messages"],
        [
            ["no observers", 0, unobserved_stats[0], unobserved_stats[1]],
            ["trace observer", counts["message"] + counts["phase_start"],
             unobserved_stats[0], unobserved_stats[1]],
        ],
        notes="unobserved vector runs must construct zero event objects",
    )
    record(
        config={"p": 4, "k": 4, "n": 48, "engine": "vector"},
        events_unobserved=0,
        events_observed=counts["message"] + counts["phase_start"],
    )


def test_obs_full_instrumentation_cost(benchmark, emit, record):
    # Informational: what the *full* stack (metrics observer + event
    # log) costs relative to unobserved — useful for deciding whether
    # always-on metrics are affordable in a service deployment.
    t_plain = _best_of(lambda: _workload(MCBNetwork(p=8, k=2)), rounds=3)

    def full():
        net = MCBNetwork(p=8, k=2)
        with Profiler(net):
            _workload(net)

    t_full = _best_of(full, rounds=3)

    def metrics_only():
        net = MCBNetwork(p=8, k=2)
        net.attach_observer(MetricsObserver())
        _workload(net)

    t_metrics = _best_of(metrics_only, rounds=3)
    emit(
        "E-OBS2  Full instrumentation cost: sort n=256 on MCB(8,2)",
        ["variant", "best wall s", "x unobserved"],
        [
            ["no observers", round(t_plain, 5), 1.0],
            ["metrics only", round(t_metrics, 5),
             round(t_metrics / t_plain, 2)],
            ["profiler (metrics+events)", round(t_full, 5),
             round(t_full / t_plain, 2)],
        ],
    )
    record(t_plain=t_plain, t_metrics=t_metrics, t_full=t_full)
    # Sanity ceiling only — instrumentation may cost, but not 20x.
    assert t_full < t_plain * 20
    benchmark.pedantic(full, rounds=3, iterations=1)
