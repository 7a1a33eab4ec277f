"""Tests for messages, bit accounting and the EMPTY sentinel."""

import math

import pytest

from repro.mcb import EMPTY, Message, log2ceil, scalar_bits
from repro.mcb.message import delivered, pack_elem, unpack_elem


class TestMessage:
    def test_fields_accessible(self):
        m = Message("kind", 1, 2.5, "x")
        assert m.kind == "kind"
        assert m.fields == (1, 2.5, "x")
        assert m[0] == 1
        assert len(m) == 3
        assert list(m) == [1, 2.5, "x"]

    def test_equality_and_hash(self):
        assert Message("a", 1) == Message("a", 1)
        assert Message("a", 1) != Message("a", 2)
        assert Message("a", 1) != Message("b", 1)
        assert hash(Message("a", 1)) == hash(Message("a", 1))

    def test_not_equal_to_other_types(self):
        assert Message("a", 1) != (1,)
        assert Message("a") != EMPTY

    def test_repr(self):
        assert "Message" in repr(Message("x", 1))


class TestBitAccounting:
    def test_int_bits_grow_logarithmically(self):
        assert scalar_bits(1) < scalar_bits(1 << 20) < scalar_bits(1 << 40)

    def test_small_values(self):
        assert scalar_bits(0) >= 1
        assert scalar_bits(None) == 1
        assert scalar_bits(True) == 1

    def test_float_is_fixed_width(self):
        assert scalar_bits(3.14) == 64

    def test_string_bits(self):
        assert scalar_bits("ab") == 16

    def test_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            scalar_bits([1, 2])

    def test_message_bit_size_includes_kind(self):
        assert Message("k").bit_size() == 8
        assert Message("k", 1).bit_size() > 8

    def test_negative_int(self):
        assert scalar_bits(-5) == scalar_bits(5)

    def test_bit_size_matches_scalar_bits(self):
        # bit_size's exact-int fast path must charge what scalar_bits
        # charges; bool (an int subclass) keeps its 1 bit.
        values = [
            0, 1, -1, 2**70, -(2**70), True, False, None,
            0.0, -2.5, float("inf"), float("-inf"), "", "abc",
        ]
        for v in values:
            assert Message("k", v).bit_size() == 8 + scalar_bits(v), v
        assert Message("k", *values).bit_size() == 8 + sum(
            scalar_bits(v) for v in values
        )
        assert Message("k", True).bit_size() == 9


INF = math.inf


class TestDelivered:
    """``delivered`` charges what one ``Message`` per element would, in
    bulk for exact ints and floats, and hands back what readers store."""

    @pytest.mark.parametrize("vals", [
        [0, 1, -1, 255, -256, 0, 2**70],
        [INF, -INF, math.nan, -0.0, 0.0, 1.5],
        [3, -0.0, 0, 2.25, -7, -INF],
        [True, False, 1, 0],
        [(-INF, -INF, 4), (5, 2, 0), (0, -0.0, 7), (-INF, -INF, 0)],
        [(1,), (2,)],
        [(3, 4), 5.5],
    ])
    def test_bits_are_the_per_message_sum(self, vals):
        got, bits = delivered(vals, "elem", 8)
        assert bits == sum(
            Message("elem", *pack_elem(v)).bit_size() for v in vals
        )
        want = [unpack_elem(pack_elem(v)) for v in vals]
        assert [(type(g), repr(g)) for g in got] == [
            (type(w), repr(w)) for w in want
        ]

    def test_a_float_field_costs_64_bits(self):
        assert delivered([0.5, -INF], "elem", 8)[1] == 2 * (8 + 64)

    def test_too_many_fields_and_non_scalars_decline(self):
        assert delivered([(1.0, 2, 3)], "elem", 2) is None
        assert delivered([1.0, [2]], "elem", 8) is None


class TestEmpty:
    def test_singleton(self):
        from repro.mcb.message import _Empty

        assert _Empty() is EMPTY

    def test_falsy(self):
        assert not EMPTY

    def test_repr(self):
        assert repr(EMPTY) == "EMPTY"


class TestLog2Ceil:
    def test_exact_powers(self):
        assert log2ceil(1) == 0
        assert log2ceil(2) == 1
        assert log2ceil(8) == 3

    def test_between_powers(self):
        assert log2ceil(5) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log2ceil(0)
