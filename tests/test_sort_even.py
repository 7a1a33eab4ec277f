"""Tests for the even-distribution Columnsort implementations (§5.2)."""

import pytest

from repro.core import Distribution
from repro.core.problem import sorting_violations
from repro.mcb import MCBNetwork
from repro.sort import sort_even_collect, sort_even_pk
from repro.sort.even_collect import padded_column_length


class TestEvenPK:
    @pytest.mark.parametrize("m,k", [(2, 2), (6, 3), (12, 4), (20, 5), (24, 4)])
    def test_sorts_correctly(self, m, k, rng):
        d = Distribution.even(m * k, k, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=k, k=k)
        res = sort_even_pk(net, {i: list(v) for i, v in d.parts.items()})
        assert sorting_violations(d, res.output) == []

    def test_requires_p_equals_k(self):
        net = MCBNetwork(p=4, k=2)
        with pytest.raises(ValueError):
            sort_even_pk(net, {i: [i] for i in range(1, 5)})

    def test_requires_even_distribution(self):
        net = MCBNetwork(p=2, k=2)
        with pytest.raises(ValueError):
            sort_even_pk(net, {1: [1, 2], 2: [3]})

    def test_requires_valid_dims(self):
        net = MCBNetwork(p=3, k=3)
        with pytest.raises(ValueError):
            sort_even_pk(net, {1: [1], 2: [2], 3: [3]})  # m=1 < k(k-1)

    def test_requires_all_processors(self):
        net = MCBNetwork(p=2, k=2)
        with pytest.raises(ValueError):
            sort_even_pk(net, {1: [1, 2]})

    def test_empty_single_column(self):
        # m = 0 passes the dimension rule at k = 1: every phase is empty.
        net = MCBNetwork(p=1, k=1)
        assert sort_even_pk(net, {1: []}).output == {1: ()}
        assert net.stats.cycles == 0

    def test_cycles_exactly_4m(self, rng):
        m, k = 12, 4
        d = Distribution.even(m * k, k, seed=3)
        net = MCBNetwork(p=k, k=k)
        sort_even_pk(net, {i: list(v) for i, v in d.parts.items()})
        # 4 transformation phases of m cycles; local sorts are free.
        assert net.stats.cycles == 4 * m

    def test_messages_at_most_4n(self, rng):
        m, k = 20, 5
        d = Distribution.even(m * k, k, seed=4)
        net = MCBNetwork(p=k, k=k)
        sort_even_pk(net, {i: list(v) for i, v in d.parts.items()})
        assert net.stats.messages <= 4 * m * k

    def test_no_auxiliary_memory_blowup(self, rng):
        m, k = 12, 3
        d = Distribution.even(m * k, k, seed=5)
        net = MCBNetwork(p=k, k=k)
        sort_even_pk(net, {i: list(v) for i, v in d.parts.items()})
        assert net.stats.max_aux_peak == 0  # columns replaced in place


class TestEvenCollect:
    @pytest.mark.parametrize("p,k,npp", [(8, 2, 4), (12, 3, 6), (16, 4, 16), (9, 3, 9)])
    def test_sorts_correctly(self, p, k, npp, rng):
        d = Distribution.even(p * npp, p, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=p, k=k)
        res = sort_even_collect(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_handles_padding(self, rng):
        # n/k = 14 is not a multiple of k = 3: the dummy-padding and
        # broadcast-twice paths are exercised.
        p, k, npp = 6, 3, 7
        d = Distribution.even(p * npp, p, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=p, k=k)
        res = sort_even_collect(net, d.parts)
        assert sorting_violations(d, res.output) == []

    def test_empty_input_runs_no_cycle(self):
        # k = 1 admits n = 0: nothing to collect, sort or broadcast.
        net = MCBNetwork(p=2, k=1)
        res = sort_even_collect(net, {1: [], 2: []})
        assert res.output == {1: (), 2: ()}
        assert net.stats.cycles == 0 and net.stats.messages == 0

    def test_representative_memory_is_column_sized(self, rng):
        p, k, npp = 16, 4, 16
        n = p * npp
        d = Distribution.even(n, p, seed=7)
        net = MCBNetwork(p=p, k=k)
        sort_even_collect(net, d.parts)
        assert net.stats.max_aux_peak >= n // k  # Theta(n/k) at reps

    def test_requires_k_divides_p(self):
        net = MCBNetwork(p=5, k=2)
        with pytest.raises(ValueError):
            sort_even_collect(net, {i: [i, i + 10] for i in range(1, 6)})

    def test_requires_large_enough_n(self):
        net = MCBNetwork(p=8, k=4)
        with pytest.raises(ValueError):
            sort_even_collect(net, {i: [i] for i in range(1, 9)})  # n=8 < 48

    def test_requires_even(self):
        net = MCBNetwork(p=4, k=2)
        parts = {1: [1], 2: [2, 3], 3: [4], 4: [5]}
        with pytest.raises(ValueError):
            sort_even_collect(net, parts)

    def test_padded_column_length(self):
        assert padded_column_length(32, 2) == 16
        assert padded_column_length(30, 4) == 8  # ceil(7.5) -> 8
        assert padded_column_length(48, 4) == 12

    def test_cycles_linear_in_n_over_k(self, rng):
        costs = []
        for npp in (8, 16, 32):
            p, k = 8, 2
            d = Distribution.even(p * npp, p, seed=npp)
            net = MCBNetwork(p=p, k=k)
            sort_even_collect(net, d.parts)
            costs.append(net.stats.cycles)
        # doubling n roughly doubles cycles
        assert 1.7 <= costs[1] / costs[0] <= 2.3
        assert 1.7 <= costs[2] / costs[1] <= 2.3


class TestPaperScheduleAndWrapSkip:
    """The §5.2 verbatim phase-2 schedule and the wrap-around optimization."""

    @pytest.mark.parametrize("m,k", [(2, 2), (6, 3), (12, 4), (25, 5)])
    def test_paper_phase2_schedule_sorts(self, m, k, rng):
        d = Distribution.even(m * k, k, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=k, k=k)
        res = sort_even_pk(
            net, {i: list(v) for i, v in d.parts.items()}, paper_phase2=True
        )
        assert sorting_violations(d, res.output) == []

    @pytest.mark.parametrize("m,k", [(2, 2), (6, 3), (12, 4), (25, 5), (30, 6)])
    def test_wrap_skip_sorts(self, m, k, rng):
        d = Distribution.even(m * k, k, seed=int(rng.integers(1 << 30)))
        net = MCBNetwork(p=k, k=k)
        res = sort_even_pk(
            net, {i: list(v) for i, v in d.parts.items()}, wrap_skip=True
        )
        assert sorting_violations(d, res.output) == []

    def test_wrap_skip_saves_exactly_the_wrapped_messages(self, rng):
        m, k = 20, 5
        d = Distribution.even(m * k, k, seed=9)
        cols = {i: list(v) for i, v in d.parts.items()}
        net_a = MCBNetwork(p=k, k=k)
        sort_even_pk(net_a, cols, wrap_skip=True)
        net_b = MCBNetwork(p=k, k=k)
        sort_even_pk(net_b, cols)
        # one saved broadcast per wrapped element, in each of phases 6, 8
        assert net_b.stats.messages - net_a.stats.messages == 2 * (m // 2)
        assert net_a.stats.cycles == net_b.stats.cycles

    def test_both_options_compose(self, rng):
        m, k = 12, 3
        d = Distribution.even(m * k, k, seed=10)
        net = MCBNetwork(p=k, k=k)
        res = sort_even_pk(
            net, {i: list(v) for i, v in d.parts.items()},
            paper_phase2=True, wrap_skip=True,
        )
        assert sorting_violations(d, res.output) == []
