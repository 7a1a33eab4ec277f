"""Vector engine of the §8 filtering selection: data plane and replay.

The selection loop has two halves.  Its *data* half — local medians,
``>= med*`` counts, the case-2/3 purges — is free local computation the
paper charges nothing for, and is exactly where a large ``n/p`` spends
its Python time.  :class:`VectorCandidates` replaces the per-processor
candidate lists with one ``(p, cap)`` matrix plus a live-count vector
and runs that half as whole-matrix NumPy operations: ``np.partition``
medians, masked boolean-sum rank counts, and
:func:`~repro.mcb.vector.executor.compact_rows` purges (stable
left-packing, so candidate order — and therefore every downstream
message — matches the generator's list comprehensions element for
element).  Object payloads (tuples from §3 tagging, mixed columns) keep
the matrix layout but compare through per-row Python, which the scalar
rules require anyway.

Its *control* half — per round, the pair sort, Partial-Sums over the
sorted counts, the one-cycle ``med*`` announcement and the ``m_>=``
total sum — has a fixed message schedule for a fixed ``(p, k)``; only
the payload values and the announcing processor change from round to
round.  :class:`ReplayControl` caches those schedules per ``(p, k)``
(built from the schedule sources the network programs use:
:func:`~repro.columnsort.matrix.max_columns_for`,
:func:`~repro.columnsort.schedule.schedule_for_phase` and the
Partial-Sums tree levels) and replays each round over the ``p`` pair
values in plain Python, committing exactly the ``PhaseStats`` the
stepping engine would.  Observed networks keep stepping the real
engine — observers expect per-processor events only a stepping engine
emits — as do the adaptive §7.2 pair sorter and the termination gather.

Every value leaving the store is converted back to its native Python
type (``.item()`` / ``tolist()``): NumPy scalars must never enter
network programs, where bit accounting and message fingerprints follow
the Python scalar rules.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Mapping, Sequence

import numpy as np

from ..columnsort.matrix import max_columns_for
from ..columnsort.schedule import schedule_for_phase
from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp
from ..mcb.trace import PhaseStats
from ..mcb.vector.executor import (
    _INT_LIMIT,
    compact_rows,
    detect_dtype_rows,
    masked_reduce,
)
from ..prefix.mcb_partial_sums import PartialSums, _next_pow2
from ..sort.common import dummy_like, unpack_elem
from .filtering import NetworkControl


class VectorCandidates:
    """Matrix-backed candidate store for ``engine="vector"`` selection.

    Mirrors the list store's observable behaviour exactly: the same
    medians (elements are globally distinct, so the value of the
    ``(cnt+1)//2``-th largest is algorithm-independent), the same
    counts, and purges that preserve the original candidate order.
    """

    def __init__(self, parts: Mapping[int, Sequence[Any]], p: int):
        rows = [list(parts[i]) for i in range(1, p + 1)]
        self.p = p
        lengths = [len(r) for r in rows]
        self.cap = max(lengths, default=0)
        self.counts = np.array(lengths, dtype=np.int64)
        arr = self._even_typed_array(rows, lengths)
        if arr is not None:
            self.numeric = True
            self.values = arr
            return
        dtype = detect_dtype_rows(rows)
        self.numeric = dtype != np.dtype(object)
        self.values = (
            np.zeros((p, self.cap), dtype=dtype)
            if self.numeric
            else np.empty((p, self.cap), dtype=object)
        )
        for i, r in enumerate(rows):
            if self.numeric:
                self.values[i, : len(r)] = r
            else:
                for j, v in enumerate(r):
                    self.values[i, j] = v

    @staticmethod
    def _even_typed_array(rows, lengths) -> Any:
        """One-shot ``np.array`` build for even pure-int/-float rows.

        Same dtype answer as :func:`detect_dtype_rows` (int64 only when
        every value sits strictly inside ±2^62), but the bounds check
        runs in C on the parsed array instead of per-row Python
        ``min``/``max``.  Returns ``None`` whenever the general path
        must decide (ragged rows, mixed/object types, huge ints).
        """
        if not rows or len(set(lengths)) > 1 or not lengths[0]:
            return None
        types: set = set()
        for r in rows:
            types.update(map(type, r))
        if types == {int}:
            try:
                arr = np.array(rows, dtype=np.int64)
            except OverflowError:
                return None
            if -_INT_LIMIT < int(arr.min()) and int(arr.max()) < _INT_LIMIT:
                return arr
            return None
        if types == {float}:
            return np.array(rows, dtype=np.float64)
        return None

    # -- read side -----------------------------------------------------
    def total(self) -> int:
        """Number of live candidates across all processors."""
        return int(self.counts.sum())

    def count(self, pid: int) -> int:
        """Number of live candidates held by processor ``pid``."""
        return int(self.counts[pid - 1])

    def median(self, pid: int) -> Any:
        """``local_median`` of the live row: the ``(cnt+1)//2``-th largest,
        i.e. ascending rank ``cnt // 2`` for distinct elements."""
        cnt = int(self.counts[pid - 1])
        row = self.values[pid - 1, :cnt]
        if self.numeric:
            return np.partition(row, cnt // 2)[cnt // 2].item()
        return sorted(row.tolist())[cnt // 2]

    def row(self, pid: int) -> list:
        """Processor ``pid``'s live candidates as native Python values."""
        return self.values[pid - 1, : self.counts[pid - 1]].tolist()

    def _live(self) -> np.ndarray:
        return np.arange(self.cap)[None, :] < self.counts[:, None]

    def ge_counts(self, med_star: Any) -> dict[int, int]:
        """Per-pid count of live candidates ``>= med_star`` (Python ints —
        these become message payloads with exact bit accounting)."""
        if self.numeric:
            # int64 before the reduce: np.add on bools is logical-or.
            flags = (self.values >= med_star).astype(np.int64)
            per = masked_reduce(flags, self._live())
            return {i + 1: int(per[i]) for i in range(self.p)}
        return {
            i + 1: sum(
                1 for e in self.values[i, : self.counts[i]] if e >= med_star
            )
            for i in range(self.p)
        }

    # -- write side ----------------------------------------------------
    def purge(self, med_star: Any, keep_gt: bool) -> None:
        """Keep only candidates ``> med_star`` (case 2) or ``< med_star``
        (case 3), preserving each row's original order."""
        if self.numeric:
            cmp = (
                self.values > med_star
                if keep_gt
                else self.values < med_star
            )
            keep = cmp & self._live()
            self.values, self.counts = compact_rows(
                self.values, keep, fill=0
            )
            # Candidates only ever shrink; trimming dead capacity keeps
            # every later full-matrix pass proportional to what is
            # still live (geometric total instead of rounds x n).
            new_cap = int(self.counts.max()) if self.p else 0
            if new_cap < self.cap:
                self.values = np.ascontiguousarray(
                    self.values[:, :new_cap]
                )
                self.cap = new_cap
            return
        for i in range(self.p):
            kept = [
                e for e in self.values[i, : self.counts[i]]
                if (e > med_star if keep_gt else e < med_star)
            ]
            self.values[i, :] = None
            for j, v in enumerate(kept):
                self.values[i, j] = v
            self.counts[i] = len(kept)

    def negate(self) -> None:
        """Apply ``neg_elem`` to every value in place (numeric stores only
        — int64 stays exact inside ±2^62, float negation is exact)."""
        self.values = -self.values

    def has_duplicates(self) -> bool:
        """Whether any live value repeats (numeric stores only).

        One sort of the live values and a neighbour compare: the answer
        :func:`repro.core.element.has_duplicates` gives on the same rows
        (``1 == 1.0`` cannot arise — mixed int/float rows are object
        stores), without a Python set over every element.
        """
        flat = np.sort(self.values[self._live()])
        return bool((flat[1:] == flat[:-1]).any())

    def control_plane(self, net: MCBNetwork, pair_sorter: str) -> Any:
        """The replay where it is exact and unobservable, else the network.

        Observers expect per-processor sleep/listen events that only a
        stepping engine emits, and the ``"uneven"`` pair sorter is the
        adaptive §7.2 path, so both keep stepping the network.  So do
        other network classes (the reference interpreter, subclasses):
        the tables mirror :class:`MCBNetwork`'s own accounting.
        """
        if (
            pair_sorter == "ones"
            and net.__class__ is MCBNetwork
            and not net.observers
        ):
            return ReplayControl(net)
        return NetworkControl(net, pair_sorter)


# ---------------------------------------------------------------------------
# Control-plane replay
# ---------------------------------------------------------------------------

def _msg_bits(kind: str, *fields: Any) -> int:
    return Message(kind, *fields).bit_size()


class _TreeTable:
    """The Partial-Sums tree of :mod:`repro.prefix.mcb_partial_sums` for
    one ``(p, k)``: real nodes per level and each sweep's fixed costs.

    A sweep's level ``l`` lasts ``ceil((P >> (l+1)) / k)`` cycles (``P``
    is ``p`` rounded up to a power of two) and carries one message per
    real right son, on channel ``(j-1) mod k + 1`` for transfer ``j``.
    Both sweeps send the same number of messages on the same channels.
    """

    def __init__(self, p: int, k: int):
        big_p = _next_pow2(p)
        r = big_p.bit_length() - 1
        #: real nodes per level, leaves (= p) up to the root (= 1)
        self.sizes = [-(-p // (1 << l)) for l in range(r + 1)]
        self.sweep_cycles = 0
        self.up_ff = self.down_ff = 0
        self.writes = [0] * (k + 1)  # per channel, one sweep
        for l in range(r):
            cycles = -(-(big_p >> (l + 1)) // k)
            self.sweep_cycles += cycles
            # Bottom-up, every real father reads its slot; top-down,
            # every real right son does (and its father writes).
            self.up_ff += self._idle(cycles, self.sizes[l + 1], k)
            self.down_ff += self._idle(cycles, self.sizes[l] // 2, k)
            for j in range(self.sizes[l] // 2):
                self.writes[j % k + 1] += 1
        self.sweep_messages = sum(self.writes)

    @staticmethod
    def _idle(cycles: int, slots: int, k: int) -> int:
        """Fast-forwarded cycles of one level whose transfer slots
        ``0..slots-1`` are active.

        Every processor yields in the level's first cycle (an op or the
        sleep spanning the level).  A processor on slot ``s`` yields its
        ``CycleOp`` at ``s // k`` and, when the level continues, the
        closing sleep at ``s // k + 1``; everything else sleeps.  The
        engine fast-forwards, and counts, every cycle in which no live
        processor yields while a wake-up is pending — so the sleeps that
        close a phase count too.
        """
        busy = (slots - 1) // k + 2 if slots else 1
        return cycles - min(cycles, busy)


class _PairSortTable:
    """:func:`repro.sort.ones.sort_ones`'s fixed schedule for one
    ``(p, k)`` with ``p >= 2``.

    Elements are ids: ``pid - 1`` for processor ``pid``'s pair, ``p + i``
    for padding dummy ``i`` (``dummy_like(pair, seq=dummy_seqs[i])``).
    ``layout`` is the column-major matrix the representatives hold after
    collection; each of Columnsort's phases 2, 4, 6 and 8 is
    ``(src_of, sent)`` — the position each slot is filled from, and the
    positions broadcast (self-transfers stay local).
    """

    def __init__(self, p: int, k: int):
        k_used = max_columns_for(p, k)
        g = math.ceil(p / k_used)
        n_cols = math.ceil(p / g)
        m = math.ceil(g / n_cols) * n_cols
        self.m = m
        self.layout: list[int] = []
        self.dummy_seqs: list[int] = []
        writes = [0] * (k + 1)
        reps = [min((j + 1) * g, p) for j in range(n_cols)]
        for j in range(n_cols):
            lo = j * g + 1
            self.layout.extend(range(lo - 1, reps[j]))
            for seq in range(m - (reps[j] - lo + 1)):
                self.layout.append(p + len(self.dummy_seqs))
                self.dummy_seqs.append(seq)
            writes[j + 1] += reps[j] - lo  # collection, one per member
        #: collection senders: every block member but the representative
        self.members = [pid - 1 for pid in range(1, p + 1) if pid not in reps]
        self.phases = []
        for ph in (2, 4, 6, 8):
            sched = schedule_for_phase(ph, m, n_cols)
            src_of = [0] * (m * n_cols)
            sent = []
            for cycle in sched.cycles:
                for c, tr in enumerate(cycle):  # every column sends
                    src_of[tr.dst_col * m + tr.dst_row] = c * m + tr.src_row
                    if tr.dst_col != c:
                        sent.append(c * m + tr.src_row)
                        writes[c + 1] += 1
            self.phases.append((src_of, sent))
        for rank in range(p):  # redistribution: every real element once
            writes[rank // m + 1] += 1
        self.messages = sum(writes)
        self.channel_writes = {ch: n for ch, n in enumerate(writes) if n}
        self.aux_peak = {pid: m if pid in reps else 0 for pid in range(1, p + 1)}
        # Collection takes g - 1 cycles, each of the four transformations
        # and the redistribution m.  None is fast-forwarded: block 0's
        # members write in every collection cycle, and representatives
        # yield in every later one.
        self.cycles = g - 1 + 5 * m


@lru_cache(maxsize=256)
def _control_tables(p: int, k: int) -> tuple[_TreeTable, _PairSortTable | None]:
    return _TreeTable(p, k), (_PairSortTable(p, k) if p > 1 else None)


class ReplayControl:
    """The four control stages of a filtering round, replayed.

    Same surface and results as
    :class:`repro.select.filtering.NetworkControl`, and commits exactly
    the ``PhaseStats`` the engine would — cycles, messages, bits charged
    per message via :meth:`Message.bit_size` on the values actually sent,
    ``channel_writes``, per-pid ``aux_peak`` and ``fast_forward_cycles``
    — or raises the engine's :class:`~repro.mcb.errors.MessageSizeError`
    before committing, as the engine does.  Only valid on an unobserved
    plain :class:`MCBNetwork` with the ``"ones"`` pair sorter (see
    :meth:`VectorCandidates.control_plane`).
    """

    def __init__(self, net: MCBNetwork):
        self.net = net
        self.tree, self.pair_sort = _control_tables(net.p, net.k)

    def _check_size(self, pid: int, kind: str, fields: tuple) -> None:
        """Raise what the engine raises at the phase's first write."""
        if len(fields) > self.net.max_message_fields:
            self.net._validate_write(
                pid, CycleOp(write=1, payload=Message(kind, *fields)), 0
            )

    def _commit(self, phase: str, cycles: int, messages: int, bits: int,
                channel_writes: dict, ff: int = 0,
                aux_peak: dict | None = None) -> None:
        net = self.net
        net.stats.add(PhaseStats(
            name=phase, k=net.k, cycles=cycles, messages=messages,
            bits=bits, channel_writes=dict(channel_writes),
            aux_peak=(dict(aux_peak) if aux_peak is not None
                      else dict.fromkeys(range(1, net.p + 1), 0)),
            fast_forward_cycles=ff,
        ))

    def sort_pairs(self, pairs: dict[int, list], phase: str) -> dict[int, tuple]:
        """``sort_ones``: collection, Columnsort phases 1-9 among the
        block representatives, single-pass redistribution."""
        p = self.net.p
        t = self.pair_sort
        if t is None:  # p == 1: sort_ones runs no stage
            return {1: tuple(pairs[1])}
        elems = [pairs[i][0] for i in range(1, p + 1)]
        # k' < p for p >= 2, so blocks have g >= 2 members and block 0's
        # first member, P_1, writes first (cycle 0).  All pairs share
        # one arity.
        self._check_size(1, "elem", elems[0])
        elems += [dummy_like(elems[0], seq=s) for s in t.dummy_seqs]
        bits = [_msg_bits("elem", *e) for e in elems]
        # Collection sends every member's pair; redistribution every
        # real pair once.
        total = sum(bits[i] for i in t.members) + sum(bits[:p])
        m = t.m
        flat = list(t.layout)
        key = elems.__getitem__
        # Local sorts before phases 2, 4, 6, 8 (phase 7 skips column 1).
        for first_col, (src_of, sent) in zip((0, 0, 0, m), t.phases):
            for lo in range(first_col, len(flat), m):
                flat[lo:lo + m] = sorted(flat[lo:lo + m], key=key, reverse=True)
            total += sum(bits[flat[s]] for s in sent)
            flat = [flat[s] for s in src_of]
        for lo in range(0, len(flat), m):  # phase 9
            flat[lo:lo + m] = sorted(flat[lo:lo + m], key=key, reverse=True)
        self._commit(phase, t.cycles, t.messages, total, t.channel_writes,
                     aux_peak=t.aux_peak)
        # Rank r sits at column-major position r; dummies trail.
        return {r + 1: (elems[flat[r]],) for r in range(p)}

    def _up_sweep(self, values: dict[int, int]) -> tuple[list, int]:
        """Bottom-up node values per level, and the sweep's bits."""
        levels = [[values[i] for i in range(1, self.net.p + 1)]]
        bits = 0
        for size in self.tree.sizes[1:]:
            below = levels[-1]
            n_below = len(below)
            for j in range(1, n_below, 2):  # right sons send up
                bits += _msg_bits("up", below[j])
            levels.append([
                below[2 * j] + (below[2 * j + 1] if 2 * j + 1 < n_below else 0)
                for j in range(size)
            ])
        return levels, bits

    def partial_sums(self, values: dict[int, int], phase: str) -> dict[int, PartialSums]:
        """``mcb_partial_sums``: both sweeps over the tree."""
        p = self.net.p
        tree = self.tree
        if p > 1:
            self._check_size(2, "up", (values[2],))
        levels, bits = self._up_sweep(values)
        down = [0]  # the root receives the identity
        for below in reversed(levels[:-1]):
            nxt = []
            for j, f in enumerate(down):
                nxt.append(f)  # the left son inherits locally
                if 2 * j + 1 < len(below):
                    v = f + below[2 * j]
                    bits += _msg_bits("down", v)
                    nxt.append(v)
            down = nxt
        self._commit(
            phase, 2 * tree.sweep_cycles, 2 * tree.sweep_messages, bits,
            {ch: 2 * n for ch, n in enumerate(tree.writes) if n},
            tree.up_ff + tree.down_ff,
        )
        a = levels[0]
        return {
            pid: PartialSums(prev=down[pid - 1], incl=down[pid - 1] + a[pid - 1])
            for pid in range(1, p + 1)
        }

    def announce(self, my_sorted: dict[int, tuple], sums, half: int, phase: str) -> Any:
        """The weighted-median processor's one-cycle broadcast."""
        writer = next(
            pid for pid, s in sums.items() if s.prev < half <= s.incl
        )
        fields = my_sorted[writer][0][:-2]
        self._check_size(writer, "med", fields)
        self._commit(phase, 1, 1, _msg_bits("med", *fields), {1: 1})
        return unpack_elem(fields)

    def total_sum(self, values: dict[int, int], phase: str) -> int:
        """``mcb_total_sum``: the bottom-up sweep, then P_1's broadcast."""
        p = self.net.p
        tree = self.tree
        if p > 1:
            self._check_size(2, "up", (values[2],))
        levels, bits = self._up_sweep(values)
        total = levels[-1][0]
        self._check_size(1, "total", (total,))
        writes = list(tree.writes)
        writes[1] += 1
        self._commit(
            phase, tree.sweep_cycles + 1, tree.sweep_messages + 1,
            bits + _msg_bits("total", total),
            {ch: n for ch, n in enumerate(writes) if n}, tree.up_ff,
        )
        return total
