"""Tests for the recursive Columnsort (§6.2)."""

import pytest

from repro.core import Distribution
from repro.core.problem import sorting_violations
from repro.mcb import MCBNetwork
from repro.mcb.vector.lower import lower_virtual_phase
from repro.sort.recursive import recursion_plan, sort_recursive


class TestRecursionPlan:
    def test_large_n_is_direct(self):
        plan = recursion_plan(4096, 8)
        assert len(plan) == 1 and plan[0][2] == 0

    def test_small_n_recurses(self):
        plan = recursion_plan(256, 16)
        assert len(plan) >= 2
        assert plan[0][2] > 1  # k' chosen
        assert plan[-1][2] == 0  # ends in a base case

    def test_plan_shrinks_consistently(self):
        plan = recursion_plan(1024, 32)
        for (n1, k1, kp), (n2, k2, _) in zip(plan, plan[1:]):
            assert n2 == n1 // kp and k2 == k1 // kp

    def test_k1_is_base(self):
        assert recursion_plan(100, 1) == [(100, 1, 0)]


class TestSegmentSchedule:
    """§6.2's segment transformation: ``lower_virtual_phase`` with
    ``segments = S`` channels per column, as ``_rec_program`` runs it."""

    @pytest.mark.parametrize("phase", [2, 4, 6, 8])
    def test_every_element_scheduled_once(self, phase):
        m, kprime, s, g = 16, 2, 2, 4
        plan = lower_virtual_phase(phase, m, kprime, g, segments=s)
        plan.compile()
        assert plan.cycles == m // s
        sent = sorted(map(tuple, plan.writes[:, 1::2].tolist()))
        assert sent == [(proc, slot) for proc in range(g * kprime)
                        for slot in range(m // g)]
        # each processor's reads refill exactly the slots it wrote
        assert sorted(map(tuple, plan.reads[:, [0, 1, 3]].tolist())) == sorted(
            map(tuple, plan.writes[:, [0, 1, 3]].tolist())
        )

    def test_reads_form_permutations(self):
        plan = lower_virtual_phase(2, 16, 2, 4, segments=2)
        big_k = 4
        for u in range(plan.cycles):
            for events in (plan.writes, plan.reads):
                chans = events[events[:, 0] == u, 2].tolist()
                assert sorted(chans) == list(range(1, big_k + 1))

    def test_cycle_count_is_n_over_k(self):
        # m/S cycles = N/K: all channels busy.
        m, kprime, s = 32, 4, 2
        plan = lower_virtual_phase(2, m, kprime, 8, segments=s)
        assert plan.compile().cycles == m // s == m * kprime // (kprime * s)
        assert plan.compile().messages == m * kprime

    def test_invalid_phase(self):
        with pytest.raises(ValueError):
            lower_virtual_phase(5, 16, 2, 4, segments=2)


class TestSortRecursive:
    @pytest.mark.parametrize(
        "p,k,npp",
        [
            (8, 4, 1),
            (16, 8, 1),
            (16, 8, 2),
            (32, 16, 1),
            (16, 4, 4),
            (8, 8, 2),
            (16, 16, 1),
            (32, 8, 4),
        ],
    )
    def test_sorts_correctly(self, p, k, npp, rng):
        d = Distribution.even(p * npp, p, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=p, k=k)
        res = sort_recursive(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_large_n_uses_base_case(self, rng):
        # n >= k^3: single level, same complexity family as §6.1.
        p, k, npp = 16, 4, 8  # n = 128 >= 64
        d = Distribution.even(p * npp, p, seed=3)
        net = MCBNetwork(p=p, k=k)
        res = sort_recursive(net, d.parts)
        assert sorting_violations(d, res.output) == []
        assert len(recursion_plan(p * npp, k)) == 1

    def test_requires_power_of_two(self):
        net = MCBNetwork(p=6, k=2)
        with pytest.raises(ValueError):
            sort_recursive(net, {i: [i] for i in range(1, 7)})

    def test_requires_even(self):
        net = MCBNetwork(p=4, k=2)
        with pytest.raises(ValueError):
            sort_recursive(net, {1: [1], 2: [2, 3], 3: [4], 4: [5]})

    def test_requires_pow2_local_count(self):
        net = MCBNetwork(p=4, k=2)
        with pytest.raises(ValueError):
            sort_recursive(net, {i: [i, i + 10, i + 20] for i in range(1, 5)})

    def test_beats_single_channel_on_cycles_small_n_regime(self, rng):
        # In the n << k^3 regime the recursion still uses many channels;
        # compare with the k'=column-capped fallback path via k=1 rank
        # sort as the degenerate comparator.
        from repro.sort import rank_sort

        p, k, npp = 32, 16, 2
        n = p * npp
        d = Distribution.even(n, p, seed=4)
        net_rec = MCBNetwork(p=p, k=k)
        sort_recursive(net_rec, d.parts)
        net_rank = MCBNetwork(p=p, k=k)
        rank_sort(net_rank, d.parts)
        # Both are correct; the recursion uses more messages but the test
        # asserts it stays within its predicted O(5^s n/k) cycle family.
        plan = recursion_plan(n, k)
        depth = len(plan)
        assert net_rec.stats.cycles <= (5 ** depth) * 30 * (n // k + p)
