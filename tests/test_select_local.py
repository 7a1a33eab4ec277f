"""Tests for the local selection step: ``select_kth_largest`` (the
d-th largest by sorting, which stands in for the paper's [Blum73]
linear-time selection) and ``local_median``, the ``ceil(m_i/2)``-th
largest local element."""

import pytest

from repro.select import local_median, select_kth_largest


class TestSelectKthLargest:
    def test_small_cases(self):
        assert select_kth_largest([5], 1) == 5
        assert select_kth_largest([2, 9], 1) == 9
        assert select_kth_largest([2, 9], 2) == 2

    @pytest.mark.parametrize("d", [1, 7, 25, 50, 100])
    def test_matches_sorting(self, d, rng):
        vals = rng.choice(10_000, size=100, replace=False).tolist()
        assert select_kth_largest(vals, d) == sorted(vals, reverse=True)[d - 1]

    def test_every_rank_of_a_permutation(self, rng):
        vals = rng.permutation(37).tolist()
        want = sorted(vals, reverse=True)
        for d in range(1, 38):
            assert select_kth_largest(vals, d) == want[d - 1]

    def test_tuples(self):
        vals = [(3, 1), (3, 0), (1, 9)]
        assert select_kth_largest(vals, 1) == (3, 1)
        assert select_kth_largest(vals, 3) == (1, 9)

    def test_large_adversarial_sorted_input(self):
        vals = list(range(2000))
        assert select_kth_largest(vals, 1000) == 1000

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            select_kth_largest([1, 2], 0)
        with pytest.raises(ValueError):
            select_kth_largest([1, 2], 3)


class TestLocalMedian:
    def test_odd_length(self):
        assert local_median([1, 2, 3, 4, 5]) == 3

    def test_even_length_upper_median(self):
        # ceil(m/2)-th largest: for [1,2,3,4] that is the 2nd largest = 3.
        assert local_median([1, 2, 3, 4]) == 3

    def test_singleton(self):
        assert local_median([7]) == 7

    def test_at_least_half_on_each_side(self, rng):
        for _ in range(10):
            vals = rng.choice(1000, size=int(rng.integers(1, 40)), replace=False).tolist()
            med = local_median(vals)
            m = len(vals)
            assert sum(1 for v in vals if v >= med) >= m / 2
            assert sum(1 for v in vals if v <= med) >= m / 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            local_median([])
