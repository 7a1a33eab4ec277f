#!/usr/bin/env python3
"""Scenario: merging two sorted index shards + channel observability.

Two epochs of an event index were each sorted earlier (the paper's
sorted layout: node 1 holds the newest segment, etc.).  A compaction
needs them merged into one sorted layout — without re-sorting from
scratch.  The cross-ranking merge (`mcb_merge`) exploits sortedness;
afterwards, quantile queries run against the merged data, and the debug
tooling shows what the channels were doing.

Run:  python examples/federated_merge.py
"""

import numpy as np

from repro import Distribution, MCBNetwork
from repro.mcb import render_gantt, channel_report
from repro.obs import EventLog
from repro.select import mcb_quantiles
from repro.sort import mcb_merge, mcb_sort


def sorted_shard(rng, p: int, n: int, lo: int, hi: int) -> Distribution:
    vals = sorted(rng.choice(range(lo, hi), size=n, replace=False).tolist(),
                  reverse=True)
    per = n // p
    return Distribution.from_lists(
        [vals[i * per: (i + 1) * per] for i in range(p)]
    )


def main() -> None:
    p, k = 8, 4
    rng = np.random.default_rng(2026)
    epoch_a = sorted_shard(rng, p, 480, 0, 10_000)
    epoch_b = sorted_shard(rng, p, 320, 10_000, 20_000)
    # interleave the value ranges so the merge actually has work to do
    epoch_b = Distribution.from_lists(
        [[v - 9_500 - 0.5 for v in epoch_b.parts[i]] for i in range(1, p + 1)]
    )

    net = MCBNetwork(p=p, k=k)
    log = EventLog()
    net.attach_observer(log)
    merged = mcb_merge(net, epoch_a, epoch_b, phase="compaction")
    flat = [e for i in range(1, p + 1) for e in merged.output[i]]
    assert flat == sorted(epoch_a.all_elements() + epoch_b.all_elements(),
                          reverse=True)
    print(f"merged {epoch_a.n} + {epoch_b.n} events across {p} nodes, "
          f"{k} channels: {net.stats.cycles} cycles, "
          f"{net.stats.messages} messages")

    # compare with re-sorting the union from scratch
    union = Distribution(
        {i: tuple(epoch_a.parts[i]) + tuple(epoch_b.parts[i])
         for i in range(1, p + 1)}
    )
    net_sort = MCBNetwork(p=p, k=k)
    mcb_sort(net_sort, union)
    print(f"re-sorting instead would cost {net_sort.stats.cycles} cycles, "
          f"{net_sort.stats.messages} messages "
          f"({net_sort.stats.messages / net.stats.messages:.1f}x the traffic)")

    # quantiles over the merged data
    net_q = MCBNetwork(p=p, k=k)
    res = mcb_quantiles(net_q, Distribution(merged.output), 4)
    print("\nquartile splitters:",
          {d: round(v, 1) for d, v in sorted(res.values.items())})

    # channel observability
    print("\nchannel activity during the compaction:")
    print(render_gantt(log.events, k, width=64))
    print()
    print(channel_report(net.stats, k))


if __name__ == "__main__":
    main()
