"""Negative tests: the engine's enforcement catches real protocol bugs.

The model declares collisions fatal; these tests deliberately break
schedules in the ways a buggy implementation would, and assert the
engine refuses loudly instead of corrupting data silently.
"""

import pytest

from repro.mcb import (
    CollisionError,
    CycleOp,
    MCBNetwork,
    Message,
    MessageSizeError,
    Sleep,
)


class TestScheduleBugsAreCaught:
    def test_off_by_one_wait_collides(self):
        # Two processors pace themselves by counting cycles; one waits a
        # cycle too few — the §7.2-style paced collection would corrupt.
        def paced(my_slot):
            def prog(ctx):
                if my_slot:
                    yield Sleep(my_slot)
                yield CycleOp(write=1, payload=Message("e", ctx.pid))
            return prog

        net = MCBNetwork(p=2, k=1)
        with pytest.raises(CollisionError) as err:
            # both compute slot 0: classic off-by-one in the prefix sum
            net.run({1: paced(0), 2: paced(0)})
        assert err.value.cycle == 0

    def test_wrong_channel_mapping_collides(self):
        # A group-to-channel map bug lands two groups on one channel.
        def group_writer(ch):
            def prog(ctx):
                yield CycleOp(write=ch, payload=Message("e", ctx.pid))
            return prog

        net = MCBNetwork(p=4, k=2)
        with pytest.raises(CollisionError):
            net.run({
                1: group_writer(1), 2: group_writer(1),  # should be 1 and 2
                3: group_writer(2), 4: group_writer(2),
            })

    def test_duplicate_rank_broadcast_collides(self):
        # A Rank-Sort with duplicate elements (violating the distinctness
        # precondition) would make two owners claim the same rank; the
        # resulting double-broadcast is caught, not silently merged.
        # Standalone rank_sort rejects such input up front, so run the
        # group sort itself.
        from repro.sort import rank_sort, rank_sort_group

        parts = {1: [5, 5], 2: [5, 1]}

        def prog(ctx):
            return (yield from rank_sort_group(
                1, ctx.pid - 1, [2, 2], parts[ctx.pid], ctx=ctx
            ))

        net = MCBNetwork(p=2, k=1)
        with pytest.raises((CollisionError, AssertionError)):
            net.run({1: prog, 2: prog})
        with pytest.raises(ValueError, match="mcb_sort"):
            rank_sort(MCBNetwork(p=2, k=1), parts)

    def test_oversized_element_tuple_rejected(self):
        # An element packed into too many fields breaks the O(log beta)
        # message contract and is rejected at the network boundary.
        def prog(ctx):
            yield CycleOp(
                write=1, payload=Message("e", 1, 2, 3, 4, 5, 6, 7, 8, 9)
            )

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(MessageSizeError):
            net.run({1: prog})

    def test_desynchronized_reader_sees_empty_not_stale(self):
        # In MCB (unlike CREW) a late reader gets EMPTY — protocols that
        # miss their cycle observe silence, not stale data.
        from repro.mcb import EMPTY

        def writer(ctx):
            yield CycleOp(write=1, payload=Message("e", 1))

        def late(ctx):
            yield Sleep(1)
            got = yield CycleOp(read=1)
            return got

        net = MCBNetwork(p=2, k=1)
        assert net.run({1: writer, 2: late})[2] is EMPTY


class TestPreconditionViolationsSurface:
    def test_merge_unsorted_input_rejected_before_network(self):
        from repro.core import Distribution
        from repro.sort import merge_streams

        net = MCBNetwork(p=2, k=1)
        bad = Distribution.from_lists([[1, 9], [4, 2]])
        good = Distribution.from_lists([[8], [3]])
        with pytest.raises(ValueError):
            merge_streams(net, bad, good)

    def test_virtual_sort_with_non_dividing_k(self):
        from repro.sort import sort_virtual

        net = MCBNetwork(p=6, k=4)
        with pytest.raises(ValueError):
            sort_virtual(net, {i: [i, i + 10] for i in range(1, 7)})

    def test_selection_empty_everywhere(self):
        from repro.select.filtering import mcb_select_descending

        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ValueError):
            mcb_select_descending(net, {1: [], 2: []}, 1)

    def test_routing_count_row_lies(self):
        import numpy as np

        from repro.mcb.routing import alltoall

        counts = np.array([[0, 3], [0, 0]])

        def prog(ctx):
            # claims 3, provides 1
            rec = yield from alltoall(ctx, {2: [42]}, counts)
            return rec

        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ValueError):
            net.run({1: prog, 2: prog})
