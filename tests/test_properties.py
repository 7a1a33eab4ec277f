"""Property-based tests (hypothesis) on the core invariants.

Strategy sizes are kept small because every example spins up a full
synchronous network simulation; the point is randomized structural
coverage, not volume.
"""

import math
from operator import add

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bounds import SelectionAdversary
from repro.columnsort import (
    PHASE_PERMS,
    apply_perm,
    columnsort,
    is_permutation,
    transfer_matrix,
)
from repro.core import Distribution, kth_largest
from repro.core.problem import is_sorted_output
from repro.mcb import MCBNetwork
from repro.mcb.vector.lower import (
    _phase_event_arrays,
    lower_phase_columnar,
    lower_virtual_phase,
)
from repro.prefix import mcb_partial_sums, serial_partial_sums, tree_partial_sums
from repro.select import mcb_select, select_kth_largest
from repro.sort import mcb_sort

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# --- strategies -----------------------------------------------------------

dims = st.sampled_from([(2, 2), (4, 2), (6, 3), (12, 3), (12, 4), (20, 5)])


@st.composite
def uneven_instance(draw, max_p=6, max_n=40):
    p = draw(st.integers(2, max_p))
    n = draw(st.integers(p, max_n))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, n - 1), min_size=p - 1, max_size=p - 1, unique=True
            )
        )
    )
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    seed = draw(st.integers(0, 2 ** 20))
    vals = np.random.default_rng(seed).choice(
        10 * n, size=n, replace=False
    ).tolist()
    parts, at = [], 0
    for s in sizes:
        parts.append(vals[at: at + s])
        at += s
    return Distribution.from_lists(parts)


# --- columnsort kernel -----------------------------------------------------

class TestColumnsortProperties:
    @SLOW
    @given(dims, st.sampled_from([2, 4, 6, 8]))
    def test_phase_perms_are_permutations(self, mk, phase):
        m, k = mk
        assert is_permutation(PHASE_PERMS[phase](m, k))

    @SLOW
    @given(dims, st.integers(0, 2 ** 20))
    def test_columnsort_sorts(self, mk, seed):
        m, k = mk
        vals = np.random.default_rng(seed).permutation(m * k)
        out = columnsort(vals, m, k)
        assert np.array_equal(out, np.sort(vals)[::-1])

    @SLOW
    @given(dims, st.sampled_from([2, 4, 6, 8]))
    def test_transfer_matrices_doubly_balanced(self, mk, phase):
        m, k = mk
        t = transfer_matrix(PHASE_PERMS[phase](m, k), m, k)
        assert np.all(t.sum(axis=0) == m) and np.all(t.sum(axis=1) == m)

    @SLOW
    @given(dims, st.sampled_from([2, 4, 6, 8]))
    def test_schedules_valid(self, mk, phase):
        m, k = mk
        cyc, sc, sr, dc, dr = _phase_event_arrays(phase, m, k)
        # every element once, to its destination under the permutation
        assert sorted((sc * m + sr).tolist()) == list(range(m * k))
        perm = PHASE_PERMS[phase](m, k)
        assert np.array_equal(perm[sc * m + sr], dc * m + dr)
        # m cycles, each one send and one receive per column
        for j in range(m):
            assert sorted(sc[cyc == j].tolist()) == list(range(k))
            assert sorted(dc[cyc == j].tolist()) == list(range(k))
        plan = lower_phase_columnar(phase, m, k)
        assert plan.cycles == m and plan.compile().cycles == m

    @SLOW
    @given(dims, st.integers(0, 2 ** 20))
    def test_transformations_preserve_multiset(self, mk, seed):
        m, k = mk
        flat = np.random.default_rng(seed).permutation(m * k).astype(float)
        for phase, fn in PHASE_PERMS.items():
            out = apply_perm(flat, fn(m, k))
            assert sorted(out.tolist()) == sorted(flat.tolist())


# --- partial sums ----------------------------------------------------------

class TestPartialSumProperties:
    @SLOW
    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=32),
        st.integers(1, 4),
    )
    def test_network_matches_serial(self, vals, k):
        p = len(vals)
        k = min(k, p)
        net = MCBNetwork(p=p, k=k)
        res = mcb_partial_sums(net, {i + 1: v for i, v in enumerate(vals)})
        want = serial_partial_sums(vals, add)
        assert [res[i + 1].incl for i in range(p)] == want

    @SLOW
    @given(st.integers(0, 5), st.integers(0, 2 ** 20))
    def test_tree_machine_any_associative_op(self, r, seed):
        p = 2 ** r
        vals = np.random.default_rng(seed).integers(0, 100, p).tolist()
        for op, ident in [(add, 0), (max, -(10 ** 9)), (min, 10 ** 9)]:
            assert tree_partial_sums(vals, op, ident) == serial_partial_sums(
                vals, op
            )


# --- sorting / selection end-to-end ----------------------------------------

class TestSortSelectProperties:
    @SLOW
    @given(uneven_instance(), st.integers(1, 4))
    def test_mcb_sort_meets_spec(self, dist, k):
        k = min(k, dist.p)
        net = MCBNetwork(p=dist.p, k=k)
        res = mcb_sort(net, dist)
        assert is_sorted_output(dist, res.output)

    @SLOW
    @given(uneven_instance(), st.integers(1, 4), st.data())
    def test_mcb_select_agrees_with_oracle(self, dist, k, data):
        k = min(k, dist.p)
        d = data.draw(st.integers(1, dist.n))
        net = MCBNetwork(p=dist.p, k=k)
        res = mcb_select(net, dist, d)
        assert res.value == kth_largest(dist.all_elements(), d)

    @SLOW
    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
        st.data(),
    )
    def test_local_select_matches_sorting(self, vals, data):
        vals = list(dict.fromkeys(vals))  # dedupe, keep order
        d = data.draw(st.integers(1, len(vals)))
        assert select_kth_largest(vals, d) == sorted(vals, reverse=True)[d - 1]


# --- adversary -------------------------------------------------------------

class TestAdversaryProperties:
    @SLOW
    @given(
        st.lists(st.integers(1, 64), min_size=2, max_size=8),
        st.integers(0, 2 ** 20),
    )
    def test_eliminations_never_exceed_cap(self, sizes, seed):
        adv = SelectionAdversary(sizes)
        rng = np.random.default_rng(seed)
        while adv.candidates_remaining() > 0:
            live = [pr for pr in adv.pairs if pr.count > 0]
            pr = live[int(rng.integers(0, len(live)))]
            c = pr.count
            gone = adv.observe_message(pr.a, int(rng.integers(1, c + 1)))
            assert 0 < gone <= c + 1

    @SLOW
    @given(st.lists(st.integers(1, 256), min_size=2, max_size=8))
    def test_optimal_play_meets_formula(self, sizes):
        adv = SelectionAdversary(sizes)
        assert adv.messages_needed() >= math.floor(adv.theoretical_bound())


# --- routing ----------------------------------------------------------------

class TestRoutingProperties:
    @SLOW
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2 ** 20))
    def test_alltoall_delivers_everything(self, p, k, seed):
        import numpy as np

        from repro.mcb.routing import alltoall

        k = min(k, p)
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, (p, p))

        def make_prog(pid):
            def prog(ctx):
                out = {
                    d + 1: [pid * 1000 + d * 50 + j
                            for j in range(int(counts[pid - 1, d]))]
                    for d in range(p)
                }
                rec = yield from alltoall(ctx, out, counts)
                return rec

            return prog

        net = MCBNetwork(p=p, k=k)
        res = net.run({i: make_prog(i) for i in range(1, p + 1)})
        for d in range(p):
            got = sorted(e for _, e in res[d + 1])
            want = sorted(
                (s + 1) * 1000 + d * 50 + j
                for s in range(p)
                for j in range(int(counts[s, d]))
            )
            assert got == want

    @SLOW
    @given(st.integers(2, 8), st.integers(0, 2 ** 20))
    def test_edge_coloring_classes_are_matchings(self, p, seed):
        import numpy as np

        from repro.mcb.routing import greedy_edge_coloring

        rng = np.random.default_rng(seed)
        edges = [
            (int(rng.integers(0, p)), int(rng.integers(0, p)))
            for _ in range(int(rng.integers(0, 50)))
        ]
        classes = greedy_edge_coloring(edges, p)
        assert sum(len(c) for c in classes) == len(edges)
        for cls in classes:
            assert len({s for s, _ in cls}) == len(cls)
            assert len({d for _, d in cls}) == len(cls)


# --- merging ----------------------------------------------------------------

@st.composite
def sorted_pair_instance(draw):
    import numpy as np

    p = draw(st.integers(2, 5))
    na = draw(st.integers(p, 25))
    nb = draw(st.integers(p, 25))
    seed = draw(st.integers(0, 2 ** 20))
    rng = np.random.default_rng(seed)
    vals = rng.choice(20 * (na + nb), size=na + nb, replace=False).tolist()

    def layout(v):
        v = sorted(v, reverse=True)
        sizes = [1] * p
        for _ in range(len(v) - p):
            sizes[int(rng.integers(0, p))] += 1
        parts, at = [], 0
        for s in sizes:
            parts.append(v[at: at + s])
            at += s
        return Distribution.from_lists(parts)

    return layout(vals[:na]), layout(vals[na:])


class TestMergingProperties:
    @SLOW
    @given(sorted_pair_instance(), st.integers(1, 3))
    def test_mcb_merge_equals_python_merge(self, pair, k):
        from repro.sort import mcb_merge

        da, db = pair
        k = min(k, da.p)
        net = MCBNetwork(p=da.p, k=k)
        res = mcb_merge(net, da, db)
        flat = [e for i in sorted(res.output) for e in res.output[i]]
        assert flat == sorted(da.all_elements() + db.all_elements(),
                              reverse=True)

    @SLOW
    @given(sorted_pair_instance())
    def test_streaming_merge_equals_python_merge(self, pair):
        from repro.sort import merge_streams

        da, db = pair
        net = MCBNetwork(p=da.p, k=1)
        res = merge_streams(net, da, db)
        flat = [e for i in sorted(res.output) for e in res.output[i]]
        assert flat == sorted(da.all_elements() + db.all_elements(),
                              reverse=True)


# --- model extensions -------------------------------------------------------

class TestExtensionProperties:
    @SLOW
    @given(
        st.lists(st.integers(0, 1 << 20), min_size=1, max_size=24),
    )
    def test_bitwise_max_always_correct(self, vals):
        from repro.mcb.extensions import ExtendedNetwork, find_max_bitwise

        p = len(vals)
        net = ExtendedNetwork(p=p, k=1, write_policy="detect")
        res = find_max_bitwise(net, {i + 1: v for i, v in enumerate(vals)})
        assert all(r == max(vals) for r in res.values())

    @SLOW
    @given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 2 ** 16))
    def test_gossip_always_complete(self, p, k, seed):
        import numpy as np

        from repro.mcb.extensions import ExtendedNetwork, gossip

        k = min(k, p)
        rng = np.random.default_rng(seed)
        vals = {i + 1: int(rng.integers(0, 100)) for i in range(p)}
        for policy in ("single", "all"):
            net = ExtendedNetwork(p=p, k=k, read_policy=policy)
            res = gossip(net, vals)
            assert all(res[i] == vals for i in range(1, p + 1))


# --- newer modules: zero-one, rebalance, weighted selection ------------------

class TestZeroOneProperties:
    @SLOW
    @given(st.sampled_from([(2, 2), (4, 2), (6, 3), (12, 3)]),
           st.integers(0, 2 ** 20))
    def test_zero_one_reduction_matches_direct_binary_inputs(self, mk, seed):
        # The per-column-count reduction claims only the number of ones
        # per column matters; check against a direct random 0-1 input.
        from repro.columnsort.zero_one import _input_from_counts

        m, k = mk
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 2, m * k).astype(float)
        counts = tuple(
            int(raw[c * m: (c + 1) * m].sum()) for c in range(k)
        )
        out_raw = columnsort(raw, m, k)
        out_red = columnsort(_input_from_counts(counts, m), m, k)
        assert np.array_equal(out_raw, out_red)

    @SLOW
    @given(st.sampled_from([(2, 2), (4, 2), (6, 3)]), st.integers(0, 2 ** 16))
    def test_binary_inputs_always_sorted_on_valid_dims(self, mk, seed):
        m, k = mk
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 2, m * k).astype(float)
        out = columnsort(raw, m, k)
        assert np.all(out[:-1] >= out[1:])


class TestRebalanceProperties:
    @SLOW
    @given(uneven_instance(max_p=5, max_n=40), st.integers(1, 3))
    def test_even_and_stable(self, dist, k):
        from repro.sort import rebalance

        k = min(k, dist.p)
        net = MCBNetwork(p=dist.p, k=k)
        res = rebalance(net, dist)
        sizes = [len(res.output[i]) for i in range(1, dist.p + 1)]
        assert max(sizes) - min(sizes) <= 1
        flat_in = [e for i in range(1, dist.p + 1) for e in dist.parts[i]]
        flat_out = [e for i in range(1, dist.p + 1) for e in res.output[i]]
        assert flat_in == flat_out


class TestWeightedSelectionProperties:
    @SLOW
    @given(
        st.lists(
            st.tuples(st.integers(0, 10 ** 6), st.integers(1, 9)),
            min_size=2,
            max_size=40,
            unique_by=lambda t: t[0],
        ),
        st.data(),
    )
    def test_matches_sequential_oracle(self, items, data):
        from repro.select import mcb_select_weighted

        # round-robin assignment: p <= len(items) guarantees n_i >= 1
        p = min(4, len(items))
        parts = {i + 1: [] for i in range(p)}
        for j, it in enumerate(items):
            parts[j % p + 1].append(it)
        total = sum(w for v in parts.values() for _, w in v)
        target = data.draw(st.integers(1, total))
        net = MCBNetwork(p=p, k=min(2, p))
        res = mcb_select_weighted(net, parts, target)
        acc = 0
        want = None
        for e, w in sorted(items, reverse=True):
            acc += w
            if acc >= target:
                want = e
                break
        assert res.value == want


# --- recursive segment schedules --------------------------------------------

class TestSegmentScheduleProperties:
    @SLOW
    @given(
        st.sampled_from([2, 4, 6, 8]),
        st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 4)]),
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(1, 2),
    )
    def test_every_element_once_and_reads_are_permutations(
        self, phase, kprime_s, mult, per_seg, blocks
    ):
        """§6.2's segment plan (``lower_virtual_phase`` with
        ``segments=S``): ``m/S`` cycles with every channel written,
        each element sent once and heard by the segment it is bound
        for, each processor refilling exactly the slots it sent."""
        kprime, s = kprime_s
        # m must be a multiple of k' (transform validity) and of the
        # segment count, and >= k'(k'-1); each segment spans per_seg
        # processors.
        m = kprime * s * per_seg * mult * max(1, kprime - 1)
        g, seg_len = s * per_seg, m // s
        npp = m // g
        plan = lower_virtual_phase(phase, m, kprime, g, blocks, segments=s)
        compiled = plan.compile()
        big_k = kprime * s * blocks
        assert plan.cycles == compiled.cycles == seg_len
        perm = PHASE_PERMS[phase](m, kprime)
        writes, reads = plan.writes.tolist(), plan.reads.tolist()
        for u in range(seg_len):
            assert sorted(w[2] for w in writes if w[0] == u) == list(
                range(1, big_k + 1)
            )
            assert sorted(r[2] for r in reads if r[0] == u) == list(
                range(1, big_k + 1)
            )
        sent = {(c, proc): (ch, slot) for c, proc, ch, slot in writes}
        assert len({(proc, slot) for _, proc, _, slot in writes}) == len(
            writes
        ) == m * kprime * blocks
        on_channel = {(c, ch): (proc, slot) for c, proc, ch, slot in writes}
        for c, proc, ch, slot in reads:
            my_chan, my_slot = sent[(c, proc)]
            assert my_slot == slot  # refill the slot just sent
            src_proc, src_slot = on_channel[(c, ch)]
            p_in_block = src_proc % (g * kprime)
            row = p_in_block % g * npp + src_slot
            dest = int(perm[p_in_block // g * m + row])
            # the element lands in the segment the reader sends for
            assert (my_chan - 1) % (kprime * s) == dest // seg_len
