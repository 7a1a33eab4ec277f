"""Unit tests for sorting sub-components: transformation-phase plans,
element packing, dummies, segment arithmetic."""

import math

import numpy as np
import pytest

from repro.columnsort import PHASE_PERMS, apply_perm
from repro.mcb import MCBNetwork, RunPlan
from repro.mcb.vector import lower_columnsort_phases, lower_virtual_phase
from repro.sort.common import (
    DUMMY,
    descending,
    dummy_like,
    is_dummy,
    neg_elem,
    pack_elem,
    segment_owner,
    unpack_elem,
)


class TestElementPacking:
    def test_scalar_roundtrip(self):
        assert unpack_elem(pack_elem(5)) == 5
        assert unpack_elem(pack_elem(2.5)) == 2.5

    def test_tuple_roundtrip(self):
        e = (3, 1, 7)
        assert unpack_elem(pack_elem(e)) == e

    def test_pack_scalar_is_single_field(self):
        assert pack_elem(9) == (9,)

    def test_neg_elem_inverts_order(self):
        assert neg_elem(5) == -5
        a, b = (3, 1), (3, 2)
        assert (a < b) == (neg_elem(a) > neg_elem(b))

    def test_neg_elem_involution(self):
        assert neg_elem(neg_elem((4, -2, 7))) == (4, -2, 7)

    def test_descending(self):
        assert descending([2, 9, 5]) == [9, 5, 2]


class TestDummies:
    def test_scalar_dummy_below_everything(self):
        assert DUMMY < -1e300
        assert is_dummy(DUMMY)
        assert not is_dummy(0.0)

    def test_tuple_dummy_matches_arity(self):
        d = dummy_like((1, 2, 3), seq=7)
        assert len(d) == 3
        assert is_dummy(d)
        assert d < (0, 0, 0)

    def test_tuple_dummies_distinct_by_seq(self):
        assert dummy_like((1, 2, 3), 0) != dummy_like((1, 2, 3), 1)

    def test_dummy_below_dummy_median_pairs(self):
        # The selection algorithm's dummy pairs start with -inf but have
        # a finite second field; padding dummies must sort below them.
        pair = (-math.inf, 3, 0)  # a dummy (median, tiebreak, count) pair
        pad = dummy_like(pair, seq=5)
        assert pad < pair
        assert is_dummy(pad) and not is_dummy(pair)

    def test_scalar_sample_gives_scalar_dummy(self):
        assert dummy_like(3.5) == DUMMY


class TestSegmentOwner:
    def test_boundaries(self):
        bounds = [0, 3, 3, 7]  # P2 owns nothing
        assert segment_owner(0, bounds) == 1
        assert segment_owner(2, bounds) == 1
        assert segment_owner(3, bounds) == 3
        assert segment_owner(6, bounds) == 3

    def test_single_processor(self):
        assert segment_owner(5, [0, 10]) == 1


def transformation_plan(phase: int, m: int, k: int):
    """The plain-variant plan of one transformation phase."""
    return lower_columnsort_phases(m, k)[(2, 4, 6, 8).index(phase)]


class TestTransformationSubgenerators:
    @pytest.mark.parametrize("phase", [2, 4, 6, 8])
    def test_even_pk_phase_realizes_permutation(self, phase, rng):
        m, k = 12, 3
        cols = [rng.permutation(100)[: m].tolist() for _ in range(k)]
        plan = transformation_plan(phase, m, k)

        net = MCBNetwork(p=k, k=k)
        res = net.run(plan.as_programs(cols))
        got = np.concatenate([res[c + 1] for c in range(k)]).astype(float)
        want = apply_perm(
            np.concatenate([np.asarray(c, dtype=float) for c in cols]),
            PHASE_PERMS[phase](m, k),
        )
        assert np.array_equal(got, want)

    def test_even_pk_phase_cycle_count(self, rng):
        m, k = 12, 3
        cols = [list(range(i * m, (i + 1) * m)) for i in range(k)]
        plan = transformation_plan(2, m, k)

        net = MCBNetwork(p=k, k=k)
        net.run(plan.as_programs(cols))
        assert net.stats.cycles == m

    @pytest.mark.parametrize("paper_phase2", [False, True])
    def test_empty_column_lowers_to_empty_phases(self, paper_phase2):
        # The dimension rule admits m = 0 at k = 1: no element, no cycle.
        for plan in lower_columnsort_phases(0, 1, paper_phase2):
            assert (plan.cycles, len(plan.writes), len(plan.reads),
                    len(plan.moves)) == (0, 0, 0, 0)

    def test_wrap_skip_shift_pair_realizes_both_shifts(self, rng):
        # Phases 6 then 8 with the wrap-around parked (no sort between)
        # move every element exactly as the up-shift then the down-shift
        # do, and save 2 * floor(m/2) broadcasts over the plain plans.
        m, k = 12, 3
        half = m // 2
        cols = [rng.permutation(100)[: m].tolist() for _ in range(k)]
        _, _, plan6, plan8 = lower_columnsort_phases(m, k, wrap_skip=True)
        net = MCBNetwork(p=k, k=k)
        rows = net.run(plan6.as_programs([c + [None] * half for c in cols]))
        rows = net.run(plan8.as_programs([rows[c + 1] for c in range(k)]))
        got = np.concatenate([rows[c + 1][:m] for c in range(k)])
        flat = np.concatenate([np.asarray(c, dtype=float) for c in cols])
        want = apply_perm(
            apply_perm(flat, PHASE_PERMS[6](m, k)), PHASE_PERMS[8](m, k)
        )
        assert np.array_equal(got.astype(float), want)
        plain = sum(len(p.writes) for p in lower_columnsort_phases(m, k)[2:])
        assert net.stats.messages == plain - 2 * half

    def test_generator_plans_reject_a_hole(self, monkeypatch):
        # The registry build's static check: every phase's reads and
        # moves must refill each column's rows 0..m-1.  Both engines
        # fetch the same plans, so a hole fails either one.
        from repro.mcb.vector import plan_registry
        from repro.sort import cnet_sort, sort_even_pk

        def holed(m, k, paper_phase2, wrap_skip):
            plans = lower_columnsort_phases(m, k, paper_phase2, wrap_skip)
            # one phase-4 delivery goes missing
            plans[1].reads = plans[1].reads[:-1]
            return plans

        monkeypatch.setattr(cnet_sort, "lower_columnsort_phases", holed)
        monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
        cols = {pid: list(range(pid, 36 + pid, 3)) for pid in range(1, 4)}
        plan_registry().clear()
        try:
            with pytest.raises(AssertionError, match="phase 4"):
                cnet_sort.cnet_plans("columnsort", 12, 3)
            for engine in ("generator", "vector"):
                with pytest.raises(AssertionError, match="phase 4"):
                    sort_even_pk(MCBNetwork(3, 3), cols, engine=engine)
            assert len(plan_registry()) == 0
        finally:
            plan_registry().clear()

    @pytest.mark.parametrize("phase", [2, 4, 6, 8])
    def test_virtual_phase_preserves_column_sets(self, phase, rng):
        # virtual transformations scatter rows but must keep each
        # column's destined element SET inside the right group
        m, k, g = 12, 3, 2
        p = k * g
        npp = m // g
        flat = rng.permutation(1000)[: m * k].astype(float)
        perm = PHASE_PERMS[phase](m, k)
        plan = lower_virtual_phase(phase, m, k, g)

        def make_prog(pid):
            def prog(ctx):
                col = (pid - 1) // g
                w = (pid - 1) % g
                mine = flat[col * m + w * npp: col * m + (w + 1) * npp].tolist()
                out = yield RunPlan(plan, pid - 1, mine)
                return out

            return prog

        net = MCBNetwork(p=p, k=k)
        res = net.run({i: make_prog(i) for i in range(1, p + 1)})
        want_dest = apply_perm(flat, perm)
        for col in range(k):
            group = sorted(
                e
                for pid in range(col * g + 1, (col + 1) * g + 1)
                for e in res[pid]
            )
            want = sorted(want_dest[col * m: (col + 1) * m].tolist())
            assert group == want, f"column {col} set mismatch"

    def test_virtual_phase_preserves_counts(self, rng):
        m, k, g = 12, 2, 3
        p = k * g
        npp = m // g
        flat = rng.permutation(100)[: m * k].astype(float)
        plan = lower_virtual_phase(6, m, k, g)

        def make_prog(pid):
            def prog(ctx):
                col = (pid - 1) // g
                w = (pid - 1) % g
                mine = flat[col * m + w * npp: col * m + (w + 1) * npp].tolist()
                out = yield RunPlan(plan, pid - 1, mine)
                return out

            return prog

        net = MCBNetwork(p=p, k=k)
        res = net.run({i: make_prog(i) for i in range(1, p + 1)})
        assert all(len(v) == npp for v in res.values())
