"""The vector engine's lane-local primitives vs plain Python.

:func:`compact_rows` and :func:`masked_reduce` are the predicated bulk
operations of the vector data plane (purge/compact rounds, lane-local
reductions over live candidates); each is checked against its
plain-Python definition, on degenerate shapes and on strided views.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mcb.errors import ConfigurationError
from repro.mcb.vector import build_batched_state, compact_rows, masked_reduce


# ---------------------------------------------------------------------------
# Lane-local primitives vs plain Python
# ---------------------------------------------------------------------------

row_grids = st.integers(1, 6).flatmap(
    lambda cap: st.lists(
        st.lists(
            st.tuples(st.integers(-50, 50), st.booleans()),
            min_size=cap, max_size=cap,
        ),
        min_size=1, max_size=5,
    )
)


@given(row_grids)
def test_compact_rows_matches_list_comprehension(grid):
    values = np.array([[v for v, _ in row] for row in grid], dtype=np.int64)
    keep = np.array([[f for _, f in row] for row in grid], dtype=bool)
    out, counts = compact_rows(values, keep, fill=-999)
    for i, row in enumerate(grid):
        kept = [v for v, f in row if f]
        assert counts[i] == len(kept)
        assert out[i, : len(kept)].tolist() == kept
        assert (out[i, len(kept):] == -999).all()


@given(row_grids)
def test_masked_reduce_matches_python_sum(grid):
    values = np.array([[v for v, _ in row] for row in grid], dtype=np.int64)
    mask = np.array([[f for _, f in row] for row in grid], dtype=bool)
    got = masked_reduce(values, mask)
    for i, row in enumerate(grid):
        assert got[i] == sum(v for v, f in row if f)


def test_masked_reduce_custom_ufunc_and_identity():
    values = np.array([[1.5, -2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [False, False]])
    got = masked_reduce(values, mask, ufunc=np.maximum, identity=-np.inf)
    assert got.tolist() == [1.5, -np.inf]
    with pytest.raises(ConfigurationError, match="identity"):
        masked_reduce(values, mask, ufunc=np.maximum)


def test_primitive_shape_validation():
    with pytest.raises(ConfigurationError, match="compact_rows"):
        compact_rows(np.zeros((2, 3)), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ConfigurationError, match="masked_reduce"):
        masked_reduce(np.zeros(3), np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# Primitive edge cases: degenerate shapes and awkward memory layouts
# ---------------------------------------------------------------------------

def test_compact_rows_all_masked_lanes():
    values = np.arange(12, dtype=np.int64).reshape(3, 4)
    keep = np.zeros((3, 4), dtype=bool)
    out, counts = compact_rows(values, keep, fill=-1)
    assert counts.tolist() == [0, 0, 0]
    assert (out == -1).all()


def test_masked_reduce_all_masked_lanes_yield_identity():
    values = np.arange(12, dtype=np.int64).reshape(3, 4)
    got = masked_reduce(values, np.zeros((3, 4), dtype=bool))
    assert got.tolist() == [0, 0, 0]
    got_max = masked_reduce(
        values.astype(float), np.zeros((3, 4), dtype=bool),
        ufunc=np.maximum, identity=-np.inf,
    )
    assert got_max.tolist() == [-np.inf] * 3


def test_primitives_on_empty_rows():
    """cap = 0 (no candidate slots) and p = 0 (no rows) both work."""
    for shape in ((3, 0), (0, 5)):
        values = np.zeros(shape, dtype=np.int64)
        keep = np.zeros(shape, dtype=bool)
        out, counts = compact_rows(values, keep)
        assert out.shape == shape
        assert counts.tolist() == [0] * shape[0]
        red = masked_reduce(values, keep)
        assert red.tolist() == [0] * shape[0]


def test_primitives_on_single_lane_batch_slice():
    """The (p, cap) slice of a B=1 batched state is a strided view —
    the primitives must treat it exactly like a contiguous matrix."""
    lanes = [[[5, -3, 7], [2, 8, -1]]]
    state = build_batched_state(lanes)  # (p, cap, 1)
    view = state[:, :, 0]
    assert not view.flags["OWNDATA"]
    keep = np.array([[True, False, True], [False, True, True]])
    out, counts = compact_rows(view, keep, fill=0)
    assert counts.tolist() == [2, 2]
    assert out.tolist() == [[5, 7, 0], [8, -1, 0]]
    assert masked_reduce(view, keep).tolist() == [12, 7]


def test_primitives_on_non_contiguous_views():
    """Row-strided (``[::2]``) and transposed inputs give the same
    answers as contiguous copies."""
    rng = np.random.default_rng(17)
    values = rng.integers(-50, 50, size=(6, 5))
    keep = rng.integers(0, 2, size=(6, 5)).astype(bool)

    strided_v, strided_k = values[::2], keep[::2]
    assert not strided_v.flags["C_CONTIGUOUS"]
    out_v, out_c = compact_rows(strided_v, strided_k, fill=99)
    ref_v, ref_c = compact_rows(strided_v.copy(), strided_k.copy(), fill=99)
    assert out_v.tolist() == ref_v.tolist()
    assert out_c.tolist() == ref_c.tolist()
    assert (
        masked_reduce(strided_v, strided_k).tolist()
        == masked_reduce(strided_v.copy(), strided_k.copy()).tolist()
    )

    vt, kt = values.T, keep.T
    assert not vt.flags["C_CONTIGUOUS"]
    out_t, cnt_t = compact_rows(vt, kt, fill=99)
    ref_t, ref_ct = compact_rows(
        np.ascontiguousarray(vt), np.ascontiguousarray(kt), fill=99
    )
    assert out_t.tolist() == ref_t.tolist()
    assert cnt_t.tolist() == ref_ct.tolist()
    assert (
        masked_reduce(vt, kt).tolist()
        == masked_reduce(np.ascontiguousarray(vt), np.ascontiguousarray(kt)).tolist()
    )
