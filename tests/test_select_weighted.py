"""Tests for weighted selection (weight-rank generalization of §8)."""

import pytest

from repro.core import Distribution, kth_largest
from repro.mcb import MCBNetwork
from repro.select import local_weighted_median, mcb_select_weighted


def oracle(items, target):
    acc = 0
    for e, w in sorted(items, reverse=True):
        acc += w
        if acc >= target:
            return e
    raise AssertionError


def random_weighted(rng, p, n):
    vals = rng.choice(10 * n, size=n, replace=False).tolist()
    weights = rng.integers(1, 12, n).tolist()
    sizes = [1] * p
    for _ in range(n - p):
        sizes[int(rng.integers(0, p))] += 1
    parts, at = {}, 0
    for i, s in enumerate(sizes):
        parts[i + 1] = [(vals[j], int(weights[j])) for j in range(at, at + s)]
        at += s
    return parts


class TestLocalWeightedMedian:
    def test_unit_weights_match_median(self):
        items = [(v, 1) for v in [1, 2, 3, 4, 5]]
        assert local_weighted_median(items) == 3

    def test_heavy_element_dominates(self):
        items = [(10, 1), (5, 100), (1, 1)]
        assert local_weighted_median(items) == 5

    def test_half_on_each_side(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 30))
            items = [
                (int(v), int(w))
                for v, w in zip(
                    rng.choice(1000, size=n, replace=False),
                    rng.integers(1, 9, n),
                )
            ]
            med = local_weighted_median(items)
            total = sum(w for _, w in items)
            above = sum(w for e, w in items if e >= med)
            below = sum(w for e, w in items if e <= med)
            assert 2 * above >= total
            assert 2 * below >= total - max(w for e, w in items if e == med)


class TestWeightedSelection:
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (8, 4)])
    def test_random_targets(self, p, k, rng):
        for _ in range(3):
            n = int(rng.integers(p, 150))
            parts = random_weighted(rng, p, n)
            total = sum(w for v in parts.values() for _, w in v)
            target = int(rng.integers(1, total + 1))
            net = MCBNetwork(p=p, k=k)
            res = mcb_select_weighted(net, parts, target)
            want = oracle([x for v in parts.values() for x in v], target)
            assert res.value == want

    def test_unit_weights_reduce_to_ordinary_selection(self, rng):
        d = Distribution.even(128, 8, seed=1)
        parts = {i: [(e, 1) for e in v] for i, v in d.parts.items()}
        for rank in (1, 64, 128):
            net = MCBNetwork(p=8, k=2)
            res = mcb_select_weighted(net, parts, rank)
            assert res.value == kth_largest(d.all_elements(), rank)

    def test_weighted_median(self, rng):
        parts = {1: [(100, 1), (50, 6)], 2: [(10, 1), (5, 2)]}
        total = 10
        net = MCBNetwork(p=2, k=1)
        res = mcb_select_weighted(net, parts, (total + 1) // 2)
        assert res.value == 50  # cumulative weight 1+6=7 >= 5 at value 50

    def test_extreme_targets(self, rng):
        parts = random_weighted(rng, 4, 40)
        total = sum(w for v in parts.values() for _, w in v)
        flat = [x for v in parts.values() for x in v]
        net = MCBNetwork(p=4, k=2)
        assert mcb_select_weighted(net, parts, 1).value == max(e for e, _ in flat)
        net = MCBNetwork(p=4, k=2)
        assert mcb_select_weighted(net, parts, total).value == min(
            e for e, _ in flat
        )

    def test_rejects_bad_weights(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ValueError):
            mcb_select_weighted(net, {1: [(1, 0)], 2: [(2, 1)]}, 1)

    def test_rejects_bad_target(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ValueError):
            mcb_select_weighted(net, {1: [(1, 2)], 2: [(2, 3)]}, 6)

    def test_messages_logarithmic_in_weight(self, rng):
        # Heavier weights don't change the candidate count, so cost stays
        # in the p log family, not the weight family.
        p, k, n = 8, 2, 256
        light = random_weighted(rng, p, n)
        heavy = {
            i: [(e, w * 1000) for e, w in v] for i, v in light.items()
        }
        tot_l = sum(w for v in light.values() for _, w in v)
        tot_h = 1000 * tot_l
        net_l = MCBNetwork(p=p, k=k)
        mcb_select_weighted(net_l, light, (tot_l + 1) // 2)
        net_h = MCBNetwork(p=p, k=k)
        mcb_select_weighted(net_h, heavy, (tot_h + 1) // 2)
        assert net_h.stats.messages <= 1.2 * net_l.stats.messages

    def test_tuple_elements_survive_an_emptied_processor(self):
        # P_2 runs dry after the first purge.  Its dummy pair must keep a
        # finite tail: an all--inf head on tuple elements satisfied
        # ``is_dummy``, so the pair sorter dropped it as padding and
        # tripped its "a block member must send" assertion.
        parts = {
            1: [((9, 1), 1), ((8, 1), 1), ((7, 1), 1), ((6, 1), 1)],
            2: [((1, 2), 1), ((0, 2), 1)],
            3: [((5, 3), 1), ((4, 3), 1), ((3, 3), 1), ((2, 3), 1)],
            4: [((10, 4), 1), ((11, 4), 1), ((12, 4), 1), ((13, 4), 1)],
        }
        flat = [item for v in parts.values() for item in v]
        for target in (1, 7, len(flat)):
            net = MCBNetwork(p=4, k=2)
            res = mcb_select_weighted(net, parts, target, threshold=1)
            assert res.value == oracle(flat, target)
