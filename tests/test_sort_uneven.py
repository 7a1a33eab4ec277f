"""Tests for the uneven-distribution sorting algorithm (§7.2)."""

import pytest

from helpers import make_uneven
from repro.bounds import sorting_cycles_lb, thm3_sorting_messages_lb
from repro.core import Distribution
from repro.core.problem import sorting_violations
from repro.mcb import MCBNetwork
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import EventLog
from repro.sort import sort_uneven


class TestCorrectness:
    @pytest.mark.parametrize(
        "p,k,n", [(2, 1, 10), (4, 2, 40), (8, 3, 100), (10, 4, 150), (6, 6, 80)]
    )
    def test_sorts_random_uneven(self, p, k, n, rng):
        for _ in range(3):
            d = make_uneven(rng, p, n)
            net = MCBNetwork(p=p, k=k)
            res = sort_uneven(net, d.parts)
            assert sorting_violations(d, res.output) == []

    def test_even_input_also_works(self, rng):
        d = Distribution.even(60, 6, seed=1)
        net = MCBNetwork(p=6, k=3)
        res = sort_uneven(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_extreme_skew_single_holder(self, rng):
        d = Distribution.single_holder(80, 8, seed=2)
        net = MCBNetwork(p=8, k=2)
        res = sort_uneven(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_one_element_per_processor(self, rng):
        # The selection algorithm sorts (median, count) pairs this way.
        d = Distribution.from_lists([[v] for v in rng.permutation(16).tolist()])
        net = MCBNetwork(p=16, k=4)
        res = sort_uneven(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_small_n_column_fallback(self, rng):
        # n < k^2(k-1): the column count must drop below k.
        d = make_uneven(rng, 8, 20)
        net = MCBNetwork(p=8, k=8)
        res = sort_uneven(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_single_processor(self):
        d = Distribution.from_lists([[2, 9, 4]])
        net = MCBNetwork(p=1, k=1)
        res = sort_uneven(net, d.parts)
        assert res.output[1] == (9, 4, 2)

    def test_worst_case_distributions(self, rng):
        d3 = Distribution.theorem3_worst_case([7, 5, 9, 4], seed=3)
        net = MCBNetwork(p=4, k=2)
        res = sort_uneven(net, d3.parts)
        assert sorting_violations(d3, res.output) == []
        d5 = Distribution.theorem5_worst_case(40, 4, seed=4)
        net = MCBNetwork(p=4, k=2)
        res = sort_uneven(net, d5.parts)
        assert sorting_violations(d5, res.output) == []


class TestValidation:
    def test_rejects_empty_processor(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ValueError):
            sort_uneven(net, {1: [1], 2: []})

    def test_rejects_partial_coverage(self):
        net = MCBNetwork(p=3, k=1)
        with pytest.raises(ValueError):
            sort_uneven(net, {1: [1], 2: [2]})


class TestCosts:
    def test_messages_linear_in_n(self, rng):
        # Pin the shape (same seed, same n_max fraction) so only n varies.
        msgs = []
        for n in (200, 400, 800):
            d = Distribution.uneven(n, 8, seed=1, skew=2.0, n_max_fraction=0.25)
            net = MCBNetwork(p=8, k=4)
            sort_uneven(net, d.parts)
            msgs.append(net.stats.messages)
        assert 1.5 <= msgs[1] / msgs[0] <= 2.5
        assert 1.5 <= msgs[2] / msgs[1] <= 2.5

    def test_cycles_track_max_of_nk_and_nmax(self, rng):
        # With a dominant processor, cycles track n_max, not n/k.
        n, p, k = 400, 8, 4
        balanced = Distribution.uneven(n, p, seed=1, n_max_fraction=0.2)
        skewed = Distribution.uneven(n, p, seed=1, n_max_fraction=0.7)
        net_b, net_s = MCBNetwork(p=p, k=k), MCBNetwork(p=p, k=k)
        sort_uneven(net_b, balanced.parts)
        sort_uneven(net_s, skewed.parts)
        assert net_s.stats.cycles > net_b.stats.cycles

    def test_measured_at_least_lower_bounds(self, rng):
        d = Distribution.theorem3_worst_case([25, 25, 25, 25], seed=5)
        net = MCBNetwork(p=4, k=2)
        sort_uneven(net, d.parts)
        sizes = d.sizes()
        assert net.stats.messages >= thm3_sorting_messages_lb(sizes)
        assert net.stats.cycles >= sorting_cycles_lb(sizes, net.k)

    def test_cost_within_constant_of_upper_bound(self, rng):
        # O(n/k + n_max) cycles with a modest constant.
        n, p, k = 600, 12, 4
        d = Distribution.uneven(n, p, seed=6, skew=2.0)
        net = MCBNetwork(p=p, k=k)
        sort_uneven(net, d.parts)
        bound = n / k + d.n_max
        assert net.stats.cycles <= 12 * bound

    @pytest.mark.parametrize(
        "p,k,parts,cycles,fast_forward",
        [
            # Two single-member groups: nobody writes in the collection.
            (2, 2, {1: [9, 7, 5, 3, 1], 2: [10, 8, 6, 4, 2]}, 42, 5),
            (
                4, 2,
                {
                    1: [3, 14, 15, 92],
                    2: [65, 35, 89, 79, 32, 38, 46, 26],
                    3: [43],
                    4: [383, 279, 50, 288],
                },
                98, 1,
            ),
        ],
    )
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_sort_stage_cycles_pinned(
        self, p, k, parts, cycles, fast_forward, engine
    ):
        # Stages 3-5 keep the paper's cycle-exact schedule: the
        # collection's trailing idle cycles still fast-forward.
        if engine == "fast":
            net = MCBNetwork(p=p, k=k)
        else:
            net = ReferenceMCBNetwork(p=p, k=k)
            net.attach_observer(EventLog())
        res = sort_uneven(net, parts)
        flat = sorted((v for vs in parts.values() for v in vs), reverse=True)
        assert [v for pid in range(1, p + 1) for v in res.output[pid]] == flat
        ph = net.stats.phase("columnsort-uneven/sort")
        assert (ph.cycles, ph.fast_forward_cycles) == (cycles, fast_forward)
