"""Tests for the §6.1 memory-efficient (virtual-column) Columnsort."""

import pytest

from repro.core import Distribution
from repro.core.problem import sorting_violations
from repro.mcb import MCBNetwork
from repro.mcb.reference import ReferenceMCBNetwork
from repro.sort import sort_even_collect, sort_virtual


CONFIGS = [(4, 2, 2), (8, 2, 4), (12, 3, 6), (16, 4, 16), (8, 4, 14), (24, 4, 20)]


class TestVirtualRank:
    @pytest.mark.parametrize("p,k,npp", CONFIGS)
    def test_sorts_correctly(self, p, k, npp, rng):
        d = Distribution.even(p * npp, p, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=p, k=k)
        res = sort_virtual(net, d.parts, sorter="rank")
        assert sorting_violations(d, res.output) == []

    def test_memory_stays_local(self, rng):
        # No processor ever buffers a whole column (contrast with the
        # collect variant, whose representatives hold Theta(n/k)).
        p, k, npp = 16, 4, 16
        n = p * npp
        d = Distribution.even(n, p, seed=8)
        net = MCBNetwork(p=p, k=k)
        sort_virtual(net, d.parts, sorter="rank")
        assert net.stats.max_aux_peak < n // k
        assert net.stats.max_aux_peak <= 3 * npp

    def test_uses_less_memory_than_collect(self, rng):
        p, k, npp = 16, 4, 16
        d = Distribution.even(p * npp, p, seed=9)
        net_v, net_c = MCBNetwork(p=p, k=k), MCBNetwork(p=p, k=k)
        sort_virtual(net_v, d.parts, sorter="rank")
        sort_even_collect(net_c, d.parts)
        assert net_v.stats.max_aux_peak < net_c.stats.max_aux_peak

    def test_cycles_linear_in_column_length(self, rng):
        costs = []
        for npp in (8, 16, 32):
            p, k = 8, 2
            d = Distribution.even(p * npp, p, seed=npp)
            net = MCBNetwork(p=p, k=k)
            sort_virtual(net, d.parts)
            costs.append(net.stats.cycles)
        assert 1.8 <= costs[1] / costs[0] <= 2.2
        assert 1.8 <= costs[2] / costs[1] <= 2.2


class TestVirtualMerge:
    @pytest.mark.parametrize("p,k,npp", CONFIGS)
    def test_sorts_correctly(self, p, k, npp, rng):
        d = Distribution.even(p * npp, p, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=p, k=k)
        res = sort_virtual(net, d.parts, sorter="merge")
        assert sorting_violations(d, res.output) == []

    def test_constant_memory(self, rng):
        peaks = []
        for npp in (4, 16, 64):
            p, k = 8, 2
            d = Distribution.even(p * npp, p, seed=npp)
            net = MCBNetwork(p=p, k=k)
            sort_virtual(net, d.parts, sorter="merge")
            peaks.append(net.stats.max_aux_peak)
        assert max(peaks) <= 2
        assert peaks[0] == peaks[-1]


class TestEmptyInput:
    def test_empty_columns_take_no_cycles(self):
        # k = 1 admits a column of length 0: there is no transfer plan to
        # run, and the sort commits one zero-cycle phase.
        net = MCBNetwork(p=2, k=1)
        res = sort_virtual(net, {1: [], 2: []}, sorter="rank")
        assert res.output == {1: (), 2: ()}
        assert [ph.cycles for ph in net.stats.phases] == [0]

    @pytest.mark.parametrize("engine", [MCBNetwork, ReferenceMCBNetwork])
    def test_empty_input_same_for_both_sorters(self, engine):
        runs = []
        for sorter in ("rank", "merge"):
            net = engine(p=2, k=1)
            res = sort_virtual(net, {1: [], 2: []}, sorter=sorter)
            runs.append((res.output, net.stats.to_dict()))
        assert runs[0] == runs[1]
        assert runs[0][0] == {1: (), 2: ()}
        assert runs[0][1]["totals"]["cycles"] == 0


class TestValidation:
    def test_requires_k_divides_p(self):
        net = MCBNetwork(p=5, k=2)
        with pytest.raises(ValueError):
            sort_virtual(net, {i: [i, i + 10] for i in range(1, 6)})

    def test_requires_even(self):
        net = MCBNetwork(p=4, k=2)
        with pytest.raises(ValueError):
            sort_virtual(net, {1: [1], 2: [2, 3], 3: [4], 4: [5]})

    def test_requires_valid_virtual_dims(self):
        net = MCBNetwork(p=4, k=4)
        # m = n/k = 1 < k(k-1)
        with pytest.raises(ValueError):
            sort_virtual(net, {i: [i] for i in range(1, 5)})

    def test_requires_all_processors(self):
        net = MCBNetwork(p=2, k=2)
        with pytest.raises(ValueError):
            sort_virtual(net, {1: [1, 2]})
