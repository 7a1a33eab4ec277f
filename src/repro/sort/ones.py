"""Fast path: sorting exactly one element per processor.

Every filtering phase of the §8 selection algorithm sorts the ``p``
pairs ``(med_i, m_i)`` — an *even, one-element-per-processor*
distribution whose cardinalities are globally known a priori.  The
general §7.2 sorter spends two Partial-Sums passes and a formation round
re-deriving exactly that knowledge; this specialization skips all of it:

* groups are fixed blocks of ``g = ceil(p / k')`` processors (``k'`` the
  §5.2-valid column count for ``p`` elements);
* collection is paced by position within the block (member ``w`` writes
  at cycle ``w``, its partial sum ``pid - 1`` less the block's base) —
  no prefix sums needed;
* phases 1–9 of Columnsort run among the block representatives with
  dummy padding;
* redistribution is a single broadcast pass: each processor's segment is
  exactly one element, so it can never straddle two columns and the
  §5.2 "broadcast twice" rule is unnecessary.

Collection, phases 1–9 and redistribution are §7.2's stages 3–5,
:func:`repro.sort.uneven.group_program`, on these fixed groups; the
collection and broadcast plans depend only on ``(p, k)`` and are cached.
Each processor yields its part as one :class:`SortOnes` op; the fast
engine runs the stage from the elements alone (:class:`_PairTable`).

Cost: ``O(p/k')`` cycles, ``O(p)`` messages — the same family as the
general path minus its ``O(p/k + log k)`` control overhead, which is
what dominates at filtering-phase sizes.  ``mcb_select`` uses this path
by default (``pair_sorter="ones"``).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain
from operator import ge
from typing import Any, Generator, Optional, Sequence

import numpy as np

from ..columnsort.matrix import max_columns_for
from ..mcb.errors import ProtocolError
from ..mcb.message import Message, pack_elem, plain_fields
from ..mcb.network import MCBNetwork
from ..mcb.program import Collective, StageOp
from .cnet_sort import cnet_plans, cnet_steps
from .common import SortResult, dummy_like
from .uneven import group_plans, group_program, stage3_row


def sort_ones(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "sort-ones",
) -> SortResult:
    """Sort a one-element-per-processor distribution (fixed schedule).

    ``parts[i]`` must hold exactly one element; the output gives each
    processor the element of rank ``pid`` (descending).  Elements must
    be distinct.
    """
    p = net.p
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if any(len(v) != 1 for v in parts.values()):
        raise ValueError("sort_ones requires exactly one element everywhere")

    pids = range(1, p + 1)
    results = sort_ones_stage(net, [parts[pid] for pid in pids], phase)
    return SortResult(output={pid: tuple(v) for pid, v in zip(pids, results)})


def sort_ones_stage(net: MCBNetwork, parts: list, phase: str) -> list:
    """:func:`sort_ones` on ``parts[i]``, ``P_{i+1}``'s one-element
    sequence: each processor's output in pid order (no stage for
    ``p = 1``)."""
    if net.p == 1:
        return [parts[0]]
    return net.run_stage(SortOnes, parts, (net.p, net.k), phase=phase)


@lru_cache(maxsize=32)
def _blocks(p: int, k: int) -> tuple:
    """``group_program``'s layout and plans for ``p`` one-element
    processors in blocks of ``g``: a pure function of ``(p, k)``, so
    every filtering round of a selection reuses one compiled pair."""
    k_used = max_columns_for(p, k)
    g = math.ceil(p / k_used)  # block size; last block may be smaller
    n_cols = math.ceil(p / g)
    m_pad = math.ceil(g / n_cols) * n_cols  # column length, n_cols | m_pad
    reps = tuple(min((j + 1) * g, p) for j in range(n_cols))
    bounds = tuple(range(p + 1))
    return reps, bounds, m_pad, g - 1, group_plans(reps, bounds, m_pad, 1)


class SortOnes(StageOp):
    """Processor ``ctx.pid``'s part of :func:`sort_ones`, holding the
    one element of ``value``; ``shared`` is ``(p, k)``.

    ``[x] = yield SortOnes(...)`` is *defined* by its program,
    :func:`~repro.sort.uneven.group_program` on the blocks of
    :func:`_blocks`: ``x`` is the element of rank ``pid``.
    """

    __slots__ = ()

    label = "sort_ones"

    def check(self, pid: int, k: int) -> None:
        """The blocks use at most the network's ``k`` channels."""
        ks = self.shared[1]
        if ks > k:
            raise ProtocolError(f"P{pid} sorts pairs for k={ks} (k={k})")

    def program(self) -> Generator:
        """:func:`~repro.sort.uneven.group_program` on the blocks."""
        return group_program(self.ctx, self.value, *_blocks(*self.shared))

    @classmethod
    def stage(
        cls, values: list, shared: tuple, span: int, max_fields: int
    ) -> Optional[Collective]:
        """:class:`_PairTable`'s index maps run on the elements' ranks,
        if there are ``p`` values; the stage ends within ``span``; the
        elements are distinct (equal dummies are interchangeable) and
        totally ordered, so sorting ranks sorts them; and
        :func:`_elem_bits` sizes every message.  Representatives hold
        their column's ``m`` aux slots."""
        p, k = shared
        if len(values) != p:
            return None
        vals = [v[0] for v in values]
        table = _pair_table(p, k)
        if table.cycles > span:
            return None
        vals += [dummy_like(vals[0], seq=s) for s in table.dummies]
        try:
            pads = len(set(vals[p:]))
            if len(set(vals[:p])) != p or len(set(vals)) != p + pads:
                return None
            order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
            ranked = [vals[i] for i in order]  # rank r: the r-th largest
            if not all(map(ge, ranked, ranked[1:])):
                return None  # no total order (a NaN): stepping decides
        except TypeError:  # unhashable or incomparable: stepping decides
            return None
        bits = _elem_bits(ranked, max_fields)
        if bits is None:
            return None
        rank = sorted(range(len(order)), key=order.__getitem__)
        m = table.m
        flat = [rank[i] for i in table.cols]
        sent = [rank[i] for i in table.collect_sent]
        for step in table.steps:
            if step[0] == "sort":
                for lo in range(step[1], len(flat), m):
                    flat[lo:lo + m] = sorted(flat[lo:lo + m])
            else:
                sent += map(flat.__getitem__, step[2])
                flat = list(map(flat.__getitem__, step[1]))
        sent += map(flat.__getitem__, table.bcast_sent)
        results = [[ranked[flat[i]]] for i in table.result]
        return Collective(
            results, sum(map(bits.__getitem__, sent)), table.cw,
            table.cycles, 0, table.aux,
        )


class _PairTable:
    """:func:`sort_ones`' stage for one ``(p, k)`` as index maps over
    element ids (``pid - 1`` for ``P_pid``'s, ``p + i`` for the dummy
    ``dummy_like(elem, seq=dummies[i])``), read off its plans.

    ``cols`` is the representatives' columns after the collection plan,
    which sends ``collect_sent``.  Columnsort's ``steps`` on them either
    sort each column from ``("sort", start)`` on or, for ``("plan",
    src_of, sent)``, send positions ``sent`` and move ``src_of[i]`` to
    ``i``.  The broadcast sends ``bcast_sent``; ``P_pid`` gets position
    ``result[pid - 1]`` and holds ``aux[pid - 1]`` aux slots (its
    column, if it is a representative).  Block 0 is full: no cycle is
    fast-forwarded.
    """

    def __init__(self, p: int, k: int):
        reps, bounds, m, collect_cycles, (collect, bcast) = _blocks(p, k)
        assert collect.cycles == collect_cycles
        self.m, self.dummies = m, []
        self.aux = [m if pid in reps else 0 for pid in range(1, p + 1)]

        def pad(r: int) -> int:
            self.dummies.append(r)
            return p + len(self.dummies) - 1

        rows, self.collect_sent = _gather(collect, [
            stage3_row(pid, [pid - 1], reps, bounds, m, pad)
            for pid in range(1, p + 1)
        ])
        self.cols = [i for rep in reps for i in rows[rep - 1]]
        plans = cnet_plans("columnsort", m, len(reps))
        steps = cnet_steps("columnsort", len(reps))
        lines = [list(range(j * m, (j + 1) * m)) for j in range(len(reps))]
        self.steps = []
        for step in steps:
            if step[0] == "sort":
                self.steps.append(("sort", m if step[1] else 0))
            else:
                src_of, sent = _gather(plans[step[1]], lines)
                self.steps.append(("plan", sum(src_of, []), sent))
        rows = [lines[reps.index(pid)] if pid in reps else [None] * m
                for pid in range(1, p + 1)]
        rows, self.bcast_sent = _gather(bcast, rows)
        self.result = [row[0] for row in rows]
        runs = [collect, *(plans[s[1]] for s in steps if s[0] == "plan"), bcast]
        cw: Counter = Counter()
        for plan in runs:
            cw.update(dict(plan.compile().channel_writes()))
        self.cw = sorted(cw.items())
        self.cycles = sum(plan.cycles for plan in runs)


def _gather(plan: Any, rows: list) -> tuple[list, list]:
    """``plan``'s compiled gather run on ``rows`` of ids, one per plan
    processor: every final row, and the ids the writes send."""
    compiled = plan.compile()
    flat = np.fromiter(
        chain.from_iterable(rows), dtype=object, count=plan.p * plan.slots
    )
    got = flat[compiled.w_flat]
    outs = np.concatenate((got, flat))[compiled.out_idx]
    return outs.tolist(), got.tolist()


def _elem_bits(vals: list, max_fields: int) -> Optional[list]:
    """``Message("elem", *pack_elem(v)).bit_size()`` of each value — by
    :func:`~repro.mcb.message.bulk_bits`' rule when all are plain — or
    ``None`` if one would fail the write guard or its bit sizing, or
    would not arrive as itself (a tuple subclass or a 1-tuple)."""
    packed = list(map(pack_elem, vals))
    if plain_fields(vals, max_fields) is not None:
        return [8 + len(f) + sum(map(int.bit_length, f)) + f.count(0)
                for f in packed]
    if max(map(len, packed)) > max_fields or any(
        isinstance(v, tuple) and (v.__class__ is not tuple or len(v) == 1)
        for v in vals
    ):
        return None
    try:
        return [Message("elem", *f).bit_size() for f in packed]
    except TypeError:
        return None


_pair_table = lru_cache(maxsize=64)(_PairTable)
