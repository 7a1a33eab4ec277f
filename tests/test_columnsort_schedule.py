"""Tests for the collision-free broadcast schedules (§5.2): the BvN
decomposition, the event arrays and plans lowered from it, and the
paper's closed-form transpose."""

import numpy as np
import pytest

from repro.columnsort import (
    PHASE_PERMS,
    bvn_decomposition,
    transfer_matrix,
    transpose_perm,
)
from repro.mcb.vector import lower_paper_transpose
from repro.mcb.vector.lower import _phase_event_arrays, lower_phase_columnar


class TestBvnDecomposition:
    def test_uniform_matrix(self):
        t = np.full((3, 3), 4, dtype=np.int64)
        parts = bvn_decomposition(t)
        assert sum(c for _, c in parts) == 12
        # matchings weighted by counts reconstruct the matrix
        recon = np.zeros((3, 3), dtype=np.int64)
        for matching, count in parts:
            for s in range(3):
                recon[s, matching[s]] += count
        assert np.array_equal(recon, t)

    def test_permutation_matrix(self):
        t = np.array([[0, 5, 0], [0, 0, 5], [5, 0, 0]])
        parts = bvn_decomposition(t)
        assert len(parts) == 1
        matching, count = parts[0]
        assert count == 5
        assert matching.tolist() == [1, 2, 0]

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            bvn_decomposition(np.array([[1, 0], [1, 1]]))

    @pytest.mark.parametrize("phase", [2, 4, 6, 8])
    @pytest.mark.parametrize("m,k", [(6, 3), (12, 4), (20, 5)])
    def test_phase_matrices_decompose_fully(self, phase, m, k):
        t = transfer_matrix(PHASE_PERMS[phase](m, k), m, k)
        parts = bvn_decomposition(t)
        assert sum(c for _, c in parts) == m


def cycle_groups(cyc, *cols):
    """``cols`` split per cycle: one list of arrays per cycle."""
    return [[c[cyc == j] for c in cols] for j in range(int(cyc.max()) + 1)]


class TestBuildSchedule:
    """The BvN schedule of a transformation phase: the event arrays of
    ``_phase_event_arrays`` and their plan, ``lower_phase_columnar``."""

    @pytest.mark.parametrize("phase", [2, 4, 6, 8])
    @pytest.mark.parametrize("m,k", [(6, 3), (12, 4), (4, 2), (20, 5)])
    def test_schedule_valid_and_exactly_m_cycles(self, phase, m, k):
        cyc, sc, sr, dc, dr = _phase_event_arrays(phase, m, k)
        assert len(cyc) == m * k and set(cyc.tolist()) == set(range(m))
        for srcs, dsts in cycle_groups(cyc, sc, dc):
            assert sorted(srcs.tolist()) == list(range(k))
            assert sorted(dsts.tolist()) == list(range(k))
        plan = lower_phase_columnar(phase, m, k)
        compiled = plan.compile()  # collision-free, matched reads
        assert plan.cycles == m
        assert compiled.messages + len(plan.moves) == m * k

    def test_every_element_moved_exactly_once(self):
        m, k = 12, 4
        _, sc, sr, _, _ = _phase_event_arrays(2, m, k)
        assert len(set(zip(sc.tolist(), sr.tolist()))) == m * k

    def test_destinations_match_permutation(self):
        m, k = 12, 4
        perm = transpose_perm(m, k)
        _, sc, sr, dc, dr = _phase_event_arrays(2, m, k)
        assert np.array_equal(perm[sc * m + sr], dc * m + dr)

    def test_reads_consistent_with_sends(self):
        m, k = 12, 3
        perm = PHASE_PERMS[6](m, k)
        plan = lower_phase_columnar(6, m, k)
        on_channel = {
            (cy, chan): (proc, src)
            for cy, proc, chan, src in plan.writes.tolist()
        }
        landed = {}
        for cy, proc, chan, dst in plan.reads.tolist():
            col, row = on_channel[(cy, chan)]
            assert chan == col + 1 and proc != col
            landed[proc * m + dst] = col * m + row
        for proc, src, dst in plan.moves.tolist():
            landed[proc * m + dst] = proc * m + src
        assert {int(perm[g]): g for g in range(m * k)} == landed

    def test_one_write_one_read_per_column_per_cycle(self):
        plan = lower_phase_columnar(4, 20, 5)
        for events in (plan.writes, plan.reads):
            cycle_proc = events[:, :2].tolist()
            assert len(set(map(tuple, cycle_proc))) == len(cycle_proc)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            lower_phase_columnar(3, 6, 3)


class TestPaperFormula:
    """§5.2's closed-form phase-2 schedule, as the one lowering both
    engines run, checked against the matrix-level transpose."""

    @pytest.mark.parametrize("m,k", [(2, 2), (6, 3), (12, 4), (20, 5), (25, 5)])
    def test_paper_transpose_schedule_delivers_transpose(self, m, k):
        """§5.2's closed-form schedule implements the transpose.

        Simulate the plan abstractly: channel ``c`` carries the element
        its writer sends that cycle; every read lands that element in
        the destination the transpose permutation gives it.
        """
        plan = lower_paper_transpose(m, k)
        perm = transpose_perm(m, k)
        on_channel = {
            (cy, chan): (proc, src) for cy, proc, chan, src in plan.writes
        }
        got = {}
        for cy, proc, chan, dst in plan.reads:
            got[proc * m + dst] = on_channel[(cy, chan)]
        want = {int(perm[g]): divmod(g, m) for g in range(m * k)}
        assert got == want
        assert not plan.moves

    def test_each_processor_sends_each_row_once(self):
        m, k = 12, 4
        plan = lower_paper_transpose(m, k)
        for i in range(k):
            rows = [src for cy, proc, _, src in plan.writes if proc == i]
            assert sorted(rows) == list(range(m))

    def test_schedule_is_collision_free_by_construction(self):
        # Every processor writes its own channel; reads can overlap freely.
        m, k = 6, 3
        plan = lower_paper_transpose(m, k)
        assert all(chan == proc + 1 for _, proc, chan, _ in plan.writes)
        assert all(1 <= chan <= k for _, _, chan, _ in plan.reads)
        assert len(plan.reads) == m * k
        assert plan.compile().messages == m * k
