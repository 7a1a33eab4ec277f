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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..mcb.errors import ConfigurationError
from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, Listen, ProcContext, Sleep, emit_from
from ..prefix.mcb_partial_sums import mcb_partial_sums, mcb_total_sum
from ..sort.common import pack_elem, unpack_elem
from ..sort.ones import sort_ones
from ..sort.uneven import sort_uneven
from .local_select import local_median, select_kth_largest


class _ListCandidates:
    """Candidate store of the generator engine: plain per-pid lists.

    The store owns the selection loop's *data plane* — medians,
    ``>= med*`` counts, purges — all free local computation — and picks
    the control plane that runs the network stages.  The vector engine
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

    def ge_counts(self, med_star) -> dict[int, int]:
        return {
            i: sum(1 for e in v if e >= med_star)
            for i, v in self._cands.items()
        }

    def purge(self, med_star, keep_gt: bool) -> None:
        for i, v in self._cands.items():
            self._cands[i] = (
                [e for e in v if e > med_star]
                if keep_gt
                else [e for e in v if e < med_star]
            )

    def control_plane(self, net: MCBNetwork, pair_sorter: str):
        return NetworkControl(net, pair_sorter)


class NetworkControl:
    """The four control stages of a filtering round, stepped on ``net``.

    Sorting the ``(med_i, m_i)`` pairs, Partial-Sums over the sorted
    counts, the one-cycle ``med*`` announcement and the ``m_>=`` total
    sum each run as one :meth:`MCBNetwork.run` stage.  Vector runs on an
    unobserved network replay the same stages from cached schedule
    tables instead (:class:`repro.select.vector.ReplayControl`); both
    commit identical ``PhaseStats``.
    """

    def __init__(self, net: MCBNetwork, pair_sorter: str):
        self.net = net
        self.pair_sort = sort_ones if pair_sorter == "ones" else sort_uneven

    def sort_pairs(self, pairs: dict[int, list], phase: str) -> dict[int, tuple]:
        """pid -> [pair] in, pid -> (pair of rank pid,) out."""
        return self.pair_sort(self.net, pairs, phase=phase).output

    def partial_sums(self, values: dict[int, int], phase: str):
        """pid -> :class:`~repro.prefix.mcb_partial_sums.PartialSums`."""
        return mcb_partial_sums(self.net, values, phase=phase)

    def announce(self, my_sorted: dict[int, tuple], sums, half: int, phase: str):
        """The weighted-median processor broadcasts ``med*``; all learn it."""

        def program(ctx: ProcContext):
            pid = ctx.pid
            s = sums[pid]
            if s.prev < half <= s.incl:
                med_fields = my_sorted[pid][0][:-2]
                yield CycleOp(write=1, payload=Message("med", *med_fields))
                return unpack_elem(med_fields)
            # Exactly one processor holds the weighted median and writes
            # in this phase's single cycle; everyone else parks for it.
            _, got = yield Listen(1, until_nonempty=True)
            return unpack_elem(got.fields)

        net = self.net
        return net.run({i: program for i in range(1, net.p + 1)}, phase=phase)[1]

    def total_sum(self, values: dict[int, int], phase: str) -> int:
        """The sum of ``values``, as every processor learns it."""
        return mcb_total_sum(self.net, values, phase=phase)[1]


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
        operations.  On an unobserved network with the ``"ones"`` pair
        sorter it also replays each round's four control stages from
        cached per-``(p, k)`` schedule tables instead of stepping them
        (:class:`repro.select.vector.ReplayControl`).  Every cycle,
        message and ``RunStats`` entry is identical either way.
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
    :func:`mcb_select_descending`); the store picks the control plane."""
    p, k = net.p, net.k
    n = store.total()
    if not 1 <= d <= n:
        raise ValueError(f"rank d={d} out of range 1..{n}")
    m_star = threshold if threshold is not None else max(1, p // k)
    control = store.control_plane(net, pair_sorter)

    # Pairs travel as flat lexicographic tuples of uniform arity:
    # (median fields..., tiebreak, count).  A processor whose candidates
    # ran dry announces a *dummy pair* — a -inf median head with its pid
    # as the tiebreak — which sorts below every real pair (real medians
    # are finite) and carries count 0.  Every round has a live candidate
    # (m >= 1), so a real median fixes the arity.
    def flat_pairs() -> dict[int, list]:
        meds = {i: pack_elem(store.median(i))
                for i in range(1, p + 1) if store.count(i)}
        arity = len(next(iter(meds.values())))
        # The tail must stay finite, or a tuple-element dummy pair would
        # satisfy ``is_dummy`` and be dropped as padding by the pair
        # sorters instead of travelling as a real element.
        return {
            i: [meds[i] + (0, store.count(i)) if i in meds
                else (-math.inf,) + (0,) * (arity - 1) + (i, 0)]
            for i in range(1, p + 1)
        }

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
        )  # pid -> ((med..., tiebreak, count),)
        counts_sorted = {i: my_sorted[i][0][-1] for i in my_sorted}

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
    total = m

    def collect(ctx: ProcContext):
        pid = ctx.pid
        mine = store.row(pid)
        if pid == 1:
            # My own candidates (positions [0, n_1)) need no channel; the
            # corresponding cycles pass in silence.
            pool = list(mine)
            ctx.aux_acquire(total)
            start = sums[pid].incl
            if start > 0:
                yield Sleep(start)
            if total > start:
                # The other processors' candidates arrive back to back,
                # one per cycle (partial-sums pacing): park once for the
                # whole stream instead of resuming per candidate.
                heard = yield Listen(1, total - start)
                pool.extend(unpack_elem(msg.fields) for _, msg in heard)
            answer = select_kth_largest(pool, d) if pool else None
            ctx.aux_release(total)
            yield CycleOp(write=1, payload=Message("ans", *pack_elem(answer)))
            return answer
        start = sums[pid].prev
        yield from emit_from(
            1, [Message("cand", *pack_elem(e)) for e in mine], start
        )
        rest = total - start - len(mine)
        if rest > 0:
            yield Sleep(rest)
        got = yield CycleOp(read=1)
        return unpack_elem(got.fields)

    answers = net.run({i: collect for i in range(1, p + 1)}, phase=tag)
    value = answers[1]
    assert all(a == value for a in answers.values())
    trace.phases.append({"m_before": m, "purged": m, "case": 0})
    return SelectionResult(value=value, trace=trace)
