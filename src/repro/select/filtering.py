"""The selection algorithm of Section 8: repeated filtering + termination.

Per filtering phase (everything below is a real network stage with
measured cycles and messages):

1. every processor computes the median ``med_i`` of its remaining
   candidates (free local computation; empty sets contribute a dummy);
2. the pairs ``(med_i, m_i)`` are sorted in descending median order with
   the Section 5/7 sorting machinery (one pair per processor — an even
   one-element-per-processor distribution);
3. Partial-Sums over the sorted counts finds the *weighted median*
   processor ``i*`` — the smallest partial sum reaching ``ceil(m/2)`` —
   which broadcasts ``med* = med'_{i*}``;
4. Partial-Sums counts ``m_>=``, the candidates ``>= med*``;
5. cases: ``m_>= == d`` selects ``med*``; ``m_>= > d`` purges all
   candidates ``<= med*``; ``m_>= < d`` purges all ``>= med*`` and
   rebases ``d``.  Every phase purges at least a quarter of the
   candidates (Figure 2), so ``O(log(n/m*))`` phases suffice.

The termination phase collects the surviving ``m <= m* = p/k``
candidates into ``P_1`` (paced by partial sums, single channel), which
selects locally and broadcasts the answer.

Total: ``O((p/k) log(kn/p))`` cycles and ``O(p log(kn/p))`` messages —
tight by Theorem 2 / Corollary 2 (Corollary 7).

Steps 2–4 are :class:`NetworkControl`'s four stages: the pair sort,
the count prefix, the ``med*`` announce (:class:`Announce`, one cycle
with one writer) and the ``m_>=`` total sum.  Each is a one-op stage
(:meth:`~repro.mcb.network.MCBNetwork.run_stage`; the pair sort with
the default ``"ones"`` sorter), which the fast engine runs unobserved
from its list of per-processor values in one step, with no generator;
observed, each steps its per-processor programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from typing import Any, Generator, Optional, Sequence

from ..mcb.errors import ConfigurationError
from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import (
    Collective,
    CycleOp,
    Listen,
    ProcContext,
    Sleep,
    StageOp,
    emit_from,
)
from ..prefix.mcb_partial_sums import mcb_partial_sums, sweep_stage
from ..sort.common import pack_elem, unpack_elem
from ..sort.ones import sort_ones_stage
from ..sort.uneven import sort_uneven
from .local_select import local_median, select_kth_largest


class _ListCandidates:
    """Candidate store of the generator engine: plain per-pid lists.

    The store owns the selection loop's *data plane* — medians,
    ``>= med*`` counts, purges — all free local computation;
    :class:`NetworkControl` runs the network stages.  The vector engine
    swaps in :class:`repro.select.vector.VectorCandidates`, which
    implements the same surface over a ``(p, cap)`` NumPy matrix.
    """

    def __init__(self, parts, p: int):
        self._cands: dict[int, list] = {
            i: list(parts[i]) for i in range(1, p + 1)
        }

    def total(self) -> int:
        return sum(len(v) for v in self._cands.values())

    def count(self, pid: int) -> int:
        return len(self._cands[pid])

    def median(self, pid: int):
        return local_median(self._cands[pid])

    def row(self, pid: int) -> list:
        return list(self._cands[pid])

    def ge_counts(self, med_star) -> list[int]:
        return [
            sum(1 for e in v if e >= med_star) for v in self._cands.values()
        ]

    def purge(self, med_star, keep_gt: bool) -> None:
        for i, v in self._cands.items():
            self._cands[i] = (
                [e for e in v if e > med_star]
                if keep_gt
                else [e for e in v if e < med_star]
            )


class Announce(StageOp):
    """``P_pid``'s part of step 3's ``med*`` announce.  ``value`` is
    ``(sums, pair)``: the :class:`~repro.prefix.mcb_partial_sums.PartialSums`
    of ``P_pid``'s sorted weight and its sorted pair ``(med fields...,
    tiebreak, weight)``; ``shared`` is ``half``.

    The processor whose prefix first reaches ``half`` (``prev < half <=
    incl``) writes ``med*`` on ``C_1`` for one cycle, and every other
    processor reads it; each returns ``med*``.
    """

    __slots__ = ()

    label = "announce"

    def check(self, pid: int, k: int) -> None:
        """Nothing to check: every network has ``C_1``."""

    def program(self) -> Generator:
        """One cycle: the write of ``med*``, or its read."""
        sums, pair = self.value
        if sums.prev < self.shared <= sums.incl:
            fields = pair[:-2]
            yield CycleOp(write=1, payload=Message("med", *fields))
            return unpack_elem(fields)
        got = yield CycleOp(read=1)
        assert got is not EMPTY, "the weighted-median processor announces"
        return unpack_elem(got.fields)

    @classmethod
    def stage(
        cls, values: list, half: int, span: int, max_fields: int
    ) -> Optional[Collective]:
        """The one writer's ``med*`` for everyone in one cycle: one
        message on ``C_1``.  Taken only if exactly one processor
        qualifies (none leaves its readers ``EMPTY``, two collide) and
        its message passes the write guard and its bit sizing."""
        try:
            writers = [
                pair for sums, pair in values if sums.prev < half <= sums.incl
            ]
            if len(writers) != 1:
                return None
            fields = writers[0][:-2]
            if len(fields) > max_fields:
                return None
            bits = Message("med", *fields).bit_size()
        except TypeError:  # stepping raises it at its cycle
            return None
        med_star = unpack_elem(fields)
        return Collective([med_star] * len(values), bits, [(1, 1)], 1)


class NetworkControl:
    """The four control stages of a filtering round, run on ``net``.

    Sorting the ``(med_i, m_i)`` pairs, Partial-Sums over the sorted
    counts, the one-cycle ``med*`` announcement and the ``m_>=`` total
    sum are one network stage each, for either candidate store and for
    weighted selection.  Every processor yields one
    :class:`~repro.mcb.program.StageOp` in each
    (:class:`~repro.sort.ones.SortOnes` for the ``"ones"`` pair sort,
    :class:`~repro.prefix.mcb_partial_sums.Sweep`, :class:`Announce`),
    so the fast engine runs them unobserved from the stages' value
    lists, without a generator (:meth:`MCBNetwork.run_stage`); the
    ``"uneven"`` pair sort is a full ``sort_uneven``.  Values travel
    between the stages as lists in pid order.
    """

    def __init__(self, net: MCBNetwork, pair_sorter: str):
        self.net = net
        self.ones = pair_sorter == "ones"

    def sort_pairs(self, pairs: list, phase: str) -> list:
        """``P_i``'s pair in, ``P_i``'s pair of rank ``i`` out."""
        net = self.net
        if self.ones:
            got = sort_ones_stage(net, [[pair] for pair in pairs], phase)
            return [out[0] for out in got]
        pids = range(1, net.p + 1)
        out = sort_uneven(
            net, {pid: [pair] for pid, pair in zip(pids, pairs)}, phase=phase
        ).output
        return [out[pid][0] for pid in pids]

    def partial_sums(self, values: list, phase: str) -> list:
        """Each processor's
        :class:`~repro.prefix.mcb_partial_sums.PartialSums`."""
        return sweep_stage(self.net, values, phase, add, 0, False, False)

    def announce(self, pairs: list, sums: list, half: int, phase: str):
        """``med*``, the pair head of the processor whose prefix of the
        sorted weights first reaches ``half`` (:class:`Announce`)."""
        return self.net.run_stage(
            Announce, list(zip(sums, pairs)), half, phase=phase
        )[0]

    def total_sum(self, values: list, phase: str) -> int:
        """The sum of ``values``, as every processor learns it."""
        return sweep_stage(self.net, values, phase, add, 0, True, False)[0]


@dataclass
class SelectionTrace:
    """Per-phase telemetry of one selection run (Figure 2 / E10 data)."""

    phases: list[dict] = field(default_factory=list)

    def purge_fractions(self) -> list[float]:
        """Fraction of candidates purged in each filtering phase."""
        return [ph["purged"] / ph["m_before"] for ph in self.phases if ph["m_before"]]

    @property
    def num_phases(self) -> int:
        return len(self.phases)


@dataclass
class SelectionResult:
    """Outcome of a distributed selection."""

    value: Any
    trace: SelectionTrace


def mcb_select_descending(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    d: int,
    *,
    threshold: int | None = None,
    pair_sorter: str = "ones",
    phase: str = "select",
    engine: str = "generator",
) -> SelectionResult:
    """Select the d-th largest element of a distributed set.

    Elements must be globally distinct (use the §3 tagging otherwise —
    :func:`repro.select.api.mcb_select` does this automatically).

    Parameters
    ----------
    threshold:
        The termination threshold ``m*``; defaults to the paper's
        ``p/k`` choice.
    pair_sorter:
        How the per-phase ``(median, count)`` pairs are sorted:
        ``"ones"`` (default) uses the fixed-schedule
        one-element-per-processor specialization of the §5 machinery;
        ``"uneven"`` uses the full §7.2 path verbatim (same asymptotics,
        ~2x the control traffic per phase).
    engine:
        ``"generator"`` (default) keeps candidates in per-pid lists;
        ``"vector"`` stores them in a ``(p, cap)`` matrix and runs the
        data plane (medians, rank counts, purges) as whole-matrix NumPy
        operations.  Both run the same control stages
        (:class:`NetworkControl`), so every cycle, message and
        ``RunStats`` entry is identical either way.
    """
    p = net.p
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if engine == "vector":
        from .vector import VectorCandidates

        store: Any = VectorCandidates(parts, p)
    elif engine == "generator":
        store = _ListCandidates(parts, p)
    else:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    return select_from_store(
        net, store, d, threshold=threshold, pair_sorter=pair_sorter,
        phase=phase,
    )


def select_from_store(
    net: MCBNetwork,
    store: Any,
    d: int,
    *,
    threshold: int | None = None,
    pair_sorter: str = "ones",
    phase: str = "select",
) -> SelectionResult:
    """The §8 loop over a built candidate store (see
    :func:`mcb_select_descending`)."""
    p, k = net.p, net.k
    n = store.total()
    if not 1 <= d <= n:
        raise ValueError(f"rank d={d} out of range 1..{n}")
    m_star = threshold if threshold is not None else max(1, p // k)
    control = NetworkControl(net, pair_sorter)

    # Pairs travel as flat lexicographic tuples of uniform arity:
    # (median fields..., tiebreak, count).  A processor whose candidates
    # ran dry announces a *dummy pair* — a -inf median head with its pid
    # as the tiebreak — which sorts below every real pair (real medians
    # are finite) and carries count 0.  Every round has a live candidate
    # (m >= 1), so a real median fixes the arity.
    def flat_pairs() -> list:
        counts = [store.count(i) for i in range(1, p + 1)]
        meds = {i: pack_elem(store.median(i))
                for i, c in enumerate(counts, 1) if c}
        arity = len(next(iter(meds.values())))
        # The tail must stay finite, or a tuple-element dummy pair would
        # satisfy ``is_dummy`` and be dropped as padding by the pair
        # sorters instead of travelling as a real element.
        return [
            meds[i] + (0, c) if c
            else (-math.inf,) + (0,) * (arity - 1) + (i, 0)
            for i, c in enumerate(counts, 1)
        ]

    trace = SelectionTrace()
    m = n
    round_no = 0
    while m > m_star:
        round_no += 1
        tag = f"{phase}/filter-{round_no}"
        m_before = m

        # -- step 1: local medians (free) + step 2: sort the pairs -------
        my_sorted = control.sort_pairs(
            flat_pairs(), f"{tag}/sort-medians"
        )  # P_i's (med..., tiebreak, count) of rank i
        counts_sorted = [pair[-1] for pair in my_sorted]

        # -- step 3: weighted median processor i* broadcasts med* --------
        sums = control.partial_sums(counts_sorted, f"{tag}/count-prefix")
        half = (m + 1) // 2
        med_star = control.announce(my_sorted, sums, half, f"{tag}/announce")

        # -- step 4: count candidates >= med* -----------------------------
        ge_counts = store.ge_counts(med_star)
        m_ge = control.total_sum(ge_counts, f"{tag}/count-ge")

        # -- step 5: the three cases (local, synchronized knowledge) ------
        if m_ge == d:
            trace.phases.append(
                {"m_before": m_before, "purged": m_before, "case": 1}
            )
            return SelectionResult(value=med_star, trace=trace)
        if m_ge > d:
            store.purge(med_star, keep_gt=True)
            m = m_ge - 1
            case = 2
        else:
            store.purge(med_star, keep_gt=False)
            m = m - m_ge
            d = d - m_ge
            case = 3
        trace.phases.append(
            {"m_before": m_before, "purged": m_before - m, "case": case}
        )

    # ---- termination phase ----------------------------------------------
    tag = f"{phase}/termination"
    counts_now = {i: store.count(i) for i in range(1, p + 1)}
    sums = mcb_partial_sums(net, counts_now, phase=f"{tag}/prefix")
    value = gather_answer(
        net, {i: store.row(i) for i in range(1, p + 1)}, sums, m,
        pack_elem, unpack_elem,
        lambda pool: select_kth_largest(pool, d) if pool else None, tag,
    )
    trace.phases.append({"m_before": m, "purged": m, "case": 0})
    return SelectionResult(value=value, trace=trace)


def gather_answer(
    net: MCBNetwork, items: dict, sums: dict, total: int,
    pack, unpack, resolve, phase: str,
) -> Any:
    """§8's termination stage: every ``P_i`` streams its ``items``, one
    ``pack``-ed message each, to ``P_1`` on channel 1 from cycle
    ``sums[i].prev`` on (``P_1``'s own need no channel; those cycles pass
    in silence); ``P_1`` holds the ``total`` items, ``resolve``-s them and
    broadcasts the answer, which every processor returns."""

    def collect(ctx: ProcContext):
        pid = ctx.pid
        mine = items[pid]
        if pid == 1:
            pool = list(mine)
            ctx.aux_acquire(total)
            start = sums[pid].incl
            if start > 0:
                yield Sleep(start)
            if total > start:
                # The other items arrive back to back, one per cycle
                # (partial-sums pacing): park once for the whole stream
                # instead of resuming per item.
                heard = yield Listen(1, total - start)
                assert len(heard) == total - start, "a survivor must send"
                pool.extend(unpack(msg.fields) for _, msg in heard)
            answer = resolve(pool)
            ctx.aux_release(total)
            yield CycleOp(write=1, payload=Message("ans", *pack_elem(answer)))
            return answer
        start = sums[pid].prev
        yield from emit_from(
            1, [Message("cand", *pack(e)) for e in mine], start
        )
        rest = total - start - len(mine)
        if rest > 0:
            yield Sleep(rest)
        got = yield CycleOp(read=1)
        return unpack_elem(got.fields)

    answers = net.run({i: collect for i in range(1, net.p + 1)}, phase=phase)
    value = answers[1]
    assert all(a == value for a in answers.values())
    return value
