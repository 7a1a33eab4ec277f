"""Tests for the single-channel group sorts of §6.1: Rank-Sort, Merge-Sort."""

import pytest

from helpers import make_uneven
from repro.core import Distribution
from repro.core.problem import sorting_violations
from repro.mcb import MCBNetwork
from repro.sort import mcb_sort, merge_sort, rank_sort
from repro.sort.merge_sort import CONSTRUCT_CYCLES, ROUND_CYCLES


class TestRankSort:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 12), (5, 30), (8, 17), (4, 4)])
    def test_sorts_random_uneven(self, p, n, rng):
        for _ in range(3):
            d = make_uneven(rng, p, n)
            net = MCBNetwork(p=p, k=1)
            res = rank_sort(net, d.parts)
            assert sorting_violations(d, res.output) == []

    def test_even_distribution(self, rng):
        d = Distribution.even(32, 4, seed=1)
        net = MCBNetwork(p=4, k=2)
        res = rank_sort(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_exactly_2n_cycles(self, rng):
        n = 40
        d = Distribution.even(n, 4, seed=2)
        net = MCBNetwork(p=4, k=1)
        rank_sort(net, d.parts)
        assert net.stats.cycles == 2 * n

    def test_messages_at_most_2n(self, rng):
        n = 60
        d = make_uneven(rng, 5, n)
        net = MCBNetwork(p=5, k=1)
        rank_sort(net, d.parts)
        assert net.stats.messages <= 2 * n

    def test_aux_memory_order_local(self, rng):
        # Rank counters + output buffer: O(n_i), far below n.
        d = Distribution.even(128, 8, seed=3)
        net = MCBNetwork(p=8, k=1)
        rank_sort(net, d.parts)
        assert net.stats.max_aux_peak <= 3 * (128 // 8)

    def test_single_processor(self, rng):
        d = Distribution.from_lists([[3, 1, 2]])
        net = MCBNetwork(p=1, k=1)
        res = rank_sort(net, d.parts)
        assert res.output[1] == (3, 2, 1)

    def test_rejects_partial_coverage(self):
        net = MCBNetwork(p=3, k=1)
        with pytest.raises(ValueError):
            rank_sort(net, {1: [1], 2: [2]})

    def test_custom_channel(self, rng):
        d = make_uneven(rng, 3, 9)
        net = MCBNetwork(p=3, k=2)
        res = rank_sort(net, d.parts, channel=2)
        assert sorting_violations(d, res.output) == []
        assert net.stats.phases[0].channel_writes.keys() <= {2}


class TestMergeSort:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 12), (5, 30), (8, 17), (6, 6)])
    def test_sorts_random_uneven(self, p, n, rng):
        for _ in range(3):
            d = make_uneven(rng, p, n)
            net = MCBNetwork(p=p, k=1)
            res = merge_sort(net, d.parts)
            assert sorting_violations(d, res.output) == []

    def test_constant_auxiliary_memory(self, rng):
        # The whole point of Merge-Sort (§6.1): O(1) extra slots even as
        # n grows.
        peaks = []
        for n in (32, 128, 512):
            d = Distribution.even(n, 4, seed=n)
            net = MCBNetwork(p=4, k=1)
            merge_sort(net, d.parts)
            peaks.append(net.stats.max_aux_peak)
        assert max(peaks) <= 2
        assert peaks[0] == peaks[-1]  # does not grow with n

    def test_linear_cycles(self, rng):
        n, p = 50, 5
        d = Distribution.even(n, p, seed=4)
        net = MCBNetwork(p=p, k=1)
        merge_sort(net, d.parts)
        assert net.stats.cycles == CONSTRUCT_CYCLES * p + ROUND_CYCLES * n

    def test_linear_messages(self, rng):
        n, p = 60, 4
        d = make_uneven(rng, p, n)
        net = MCBNetwork(p=p, k=1)
        merge_sort(net, d.parts)
        assert net.stats.messages <= 4 * n + 3 * p

    def test_single_element_processors(self, rng):
        d = Distribution.from_lists([[5], [1], [9], [3]])
        net = MCBNetwork(p=4, k=1)
        res = merge_sort(net, d.parts)
        assert [res.output[i][0] for i in (1, 2, 3, 4)] == [9, 5, 3, 1]

    def test_extreme_skew(self, rng):
        d = Distribution.single_holder(40, 4, seed=5)
        net = MCBNetwork(p=4, k=1)
        res = merge_sort(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_members_without_input(self):
        # An empty member's construction slot is silent; the cycle count
        # keeps its 3g + 5n form.
        parts = {1: [], 2: [5, 1], 3: [], 4: [9, 3, 7], 5: []}
        net = MCBNetwork(p=5, k=1)
        res = merge_sort(net, parts)
        assert res.output == {1: (), 2: (9, 7), 3: (), 4: (5, 3, 1), 5: ()}
        assert net.stats.cycles == CONSTRUCT_CYCLES * 5 + ROUND_CYCLES * 5

    def test_all_empty_takes_no_cycles(self):
        net = MCBNetwork(p=3, k=1)
        res = merge_sort(net, {1: [], 2: [], 3: []})
        assert res.output == {1: (), 2: (), 3: ()}
        assert net.stats.cycles == 0

    def test_rejects_partial_coverage(self):
        net = MCBNetwork(p=3, k=1)
        with pytest.raises(ValueError):
            merge_sort(net, {1: [1], 3: [2]})

    def test_rejects_duplicate_keys(self):
        # The linked list assumes distinct keys: run as-is, this input
        # collides in cycle 16.  mcb_sort sorts it through triples.
        parts = {1: [4, 4], 2: [7, 6]}
        with pytest.raises(ValueError, match="§3.*mcb_sort"):
            merge_sort(MCBNetwork(p=2, k=1), parts)
        out = mcb_sort(MCBNetwork(p=2, k=1), parts, strategy="merge")
        assert out.output == {1: (7, 6), 2: (4, 4)}

    def test_agrees_with_rank_sort(self, rng):
        d = make_uneven(rng, 4, 25)
        net1, net2 = MCBNetwork(p=4, k=1), MCBNetwork(p=4, k=1)
        a = rank_sort(net1, d.parts)
        b = merge_sort(net2, d.parts)
        assert a.output == b.output
