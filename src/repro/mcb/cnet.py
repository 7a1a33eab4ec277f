"""Comparator-network IR over MCB processor lines (merge-split form).

A :class:`ComparatorNetwork` is an ordered sequence of rounds over
``width`` *lines*, where line ``i`` is processor ``P_{i+1}`` holding a
sorted column of ``m`` elements.  Three round kinds exist:

* :class:`CompareRound` — disjoint oriented pairs ``(hi, lo)``.  Each
  pair runs the classic *merge-split*: both endpoints exchange their
  full columns (``2m`` messages per pair), then locally — for free in
  the MCB cost model — ``hi`` keeps the ``m`` largest of the merged
  ``2m`` and ``lo`` the ``m`` smallest.  By Knuth's merge-split theorem,
  replacing every comparator of a ``width``-key sorting network with a
  merge-split over sorted columns sorts all ``width * m`` keys, so any
  sorting network lifts to an MCB sort whose round structure is the
  network's round structure.
* :class:`PermuteRound` — one of the §5.2 columnsort transformation
  phases (2/4/6/8), so the existing columnsort pipeline is expressible
  in the same IR (see :func:`columnsort_network`).
* :class:`SortRound` — a free local sort of every column (descending;
  ``P_1`` ends with the largest elements, matching the repo's order).

Generators:

* :func:`batcher_network` — Batcher odd-even merge-sort (the artiq
  ``boms_steps_pairs`` recurrence).  Its comparators all point the same
  way (lower index keeps the max half), so non-power-of-two widths
  prune exactly: pad with virtual ``-inf`` lines *above* ``width`` and
  drop every comparator touching them — a virtual line is never the
  low index of a pair, so it stays ``-inf`` forever and the dropped
  comparators are no-ops.
* :func:`columnsort_network` — the §5.2 phases 1–9 as IR rounds.

The lowering :func:`cnet_to_schedule` turns every communication round
into one collision-validated
:class:`~repro.mcb.vector.plan.SchedulePlan`: processor ``i`` owns
channel ``i + 1``, so a compare round's ``2 * |pairs| <= width <= k``
endpoints each broadcast their column slot-by-slot in ``m`` cycles
(``ceil(2 * |pairs| * m / k) = m`` when every line is paired), with the
partner column landing in scratch slots ``m .. 2m-1``.  The plans run
unchanged on the generator engine (``SchedulePlan.as_programs``), the
vector executor (fused, masked, batched) and the persistent plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ConfigurationError

#: Columnsort transformation phases expressible as PermuteRounds.
_PERMUTE_PHASES = (2, 4, 6, 8)


@dataclass(frozen=True)
class CompareRound:
    """Disjoint oriented compare-exchange pairs; ``hi`` keeps the max half."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PermuteRound:
    """One §5.2 columnsort transformation phase (2, 4, 6 or 8)."""

    phase: int


@dataclass(frozen=True)
class SortRound:
    """Free local sort of every column, descending (``skip_first``
    leaves line 0 untouched — columnsort's phase 7)."""

    skip_first: bool = False


Round = Union[CompareRound, PermuteRound, SortRound]


@dataclass(frozen=True)
class ComparatorNetwork:
    """An ordered sequence of rounds over ``width`` processor lines."""

    name: str
    width: int
    rounds: tuple[Round, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError(
                f"network width must be >= 1, got {self.width}"
            )
        kinds = set()
        for i, rnd in enumerate(self.rounds):
            if isinstance(rnd, CompareRound):
                kinds.add("compare")
                if not rnd.pairs:
                    raise ConfigurationError(
                        f"round {i}: a CompareRound needs at least one pair"
                    )
                seen: set[int] = set()
                for hi, lo in rnd.pairs:
                    if hi == lo:
                        raise ConfigurationError(
                            f"round {i}: degenerate pair ({hi}, {lo})"
                        )
                    for idx in (hi, lo):
                        if not 0 <= idx < self.width:
                            raise ConfigurationError(
                                f"round {i}: line {idx} outside "
                                f"0..{self.width - 1}"
                            )
                        if idx in seen:
                            raise ConfigurationError(
                                f"round {i}: line {idx} appears in two "
                                "pairs — rounds must be disjoint"
                            )
                        seen.add(idx)
            elif isinstance(rnd, PermuteRound):
                kinds.add("permute")
                if rnd.phase not in _PERMUTE_PHASES:
                    raise ConfigurationError(
                        f"round {i}: unknown columnsort phase {rnd.phase}; "
                        f"expected one of {_PERMUTE_PHASES}"
                    )
            elif not isinstance(rnd, SortRound):
                raise ConfigurationError(
                    f"round {i}: unknown round kind {type(rnd).__name__}"
                )
        if kinds == {"compare", "permute"}:
            # Compare rounds need 2m scratch-bearing slots per line,
            # permute plans address exactly m — one state width per
            # network keeps both engines' slot bookkeeping sound.
            raise ConfigurationError(
                "a network cannot mix CompareRounds and PermuteRounds"
            )

    @property
    def slot_factor(self) -> int:
        """State slots per element slot: 2 when merge-split scratch is
        needed (any compare round), else 1."""
        return 2 if any(
            isinstance(r, CompareRound) for r in self.rounds
        ) else 1

    @property
    def comm_rounds(self) -> int:
        """Rounds that broadcast (compare + permute; sorts are free)."""
        return sum(
            1 for r in self.rounds if not isinstance(r, SortRound)
        )

    @property
    def total_pairs(self) -> int:
        """Comparators across all rounds (merge-split invocations)."""
        return sum(
            len(r.pairs) for r in self.rounds
            if isinstance(r, CompareRound)
        )


def _boms_partner(line: int, level: int, step: int) -> int:
    """Batcher odd-even merge-sort partner of ``line`` at (level, step).

    The closed-form recurrence used by artiq's static sorting lanes:
    step 1 of each level is the clean ``XOR`` merge seed; later steps
    pair interior lines of each ``2**step`` box with stride
    ``2**(level - step)``, leaving box borders alone.
    """
    if step == 1:
        return line ^ (1 << (level - 1))
    scale = 1 << (level - step)
    box = 1 << step
    sub = (line // scale) % box
    if sub == 0 or sub == box - 1:
        return line
    if sub % 2 == 0:
        return line - scale
    return line + scale


def batcher_network(width: int) -> ComparatorNetwork:
    """Batcher odd-even merge-sort over ``width`` lines (any width)."""
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    depth = (width - 1).bit_length()  # pad to the next power of two
    rounds: list[Round] = [SortRound()]
    for level in range(1, depth + 1):
        for step in range(1, level + 1):
            pairs = []
            seen: set[tuple[int, int]] = set()
            for line in range(1 << depth):
                partner = _boms_partner(line, level, step)
                if partner == line:
                    continue
                a, b = (line, partner) if line < partner else (partner, line)
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                if b < width:  # drop comparators touching virtual lines
                    pairs.append((a, b))  # uniform: low index keeps max
            if pairs:
                rounds.append(CompareRound(pairs=tuple(pairs)))
    return ComparatorNetwork("batcher", width, tuple(rounds))


def columnsort_network(width: int) -> ComparatorNetwork:
    """The §5.2 columnsort pipeline (phases 1–9) in the round IR."""
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    return ComparatorNetwork(
        "columnsort", width,
        (
            SortRound(), PermuteRound(2),
            SortRound(), PermuteRound(4),
            SortRound(), PermuteRound(6),
            SortRound(skip_first=True), PermuteRound(8),
            SortRound(),
        ),
    )


#: Network generators by backend name (the ``mcb_sort`` backend axis).
NETWORKS = {
    "batcher": batcher_network,
    "columnsort": columnsort_network,
}


def build_network(name: str, width: int) -> ComparatorNetwork:
    """Instantiate the named network family at ``width`` lines."""
    try:
        builder = NETWORKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown comparator network {name!r}; "
            f"known: {sorted(NETWORKS)}"
        ) from None
    return builder(width)


def cnet_to_schedule(
    network: ComparatorNetwork, p: int, k: int, m: int
) -> tuple:
    """Lower every communication round to one ``SchedulePlan``.

    Returns one plan per compare/permute round, in round order (sort
    rounds are free local work and lower to nothing).  Processor ``i``
    writes its own channel ``i + 1``; pairs are disjoint, so a compare
    round packs its ``2 * |pairs| <= k`` endpoint columns onto the ``k``
    channels at one element per channel per cycle — ``m`` cycles per
    round, the per-processor write-rate lower bound.  Partner columns
    land in scratch slots ``m .. 2m-1``.  ``SchedulePlan.compile()``
    re-validates collision-freedom on every plan.
    """
    from .vector.lower import lower_phase_columnar
    from .vector.plan import SchedulePlan

    if network.width != k or p != k:
        raise ConfigurationError(
            "comparator networks lower onto p == k == width (one line "
            f"per processor, one channel per line); got p={p}, k={k}, "
            f"width={network.width}"
        )
    if m < 1:
        raise ConfigurationError(f"need m >= 1 elements per line, got {m}")
    slots = network.slot_factor * m
    plans = []
    for rnd in network.rounds:
        if isinstance(rnd, CompareRound):
            writes = []
            reads = []
            for hi, lo in rnd.pairs:
                for t in range(m):
                    writes.append((t, hi, hi + 1, t))
                    writes.append((t, lo, lo + 1, t))
                    reads.append((t, hi, lo + 1, m + t))
                    reads.append((t, lo, hi + 1, m + t))
            plans.append(SchedulePlan(
                p=p, k=k, cycles=m, slots=slots,
                writes=writes, reads=reads,
            ))
        elif isinstance(rnd, PermuteRound):
            plans.append(lower_phase_columnar(rnd.phase, m, k))
    return tuple(plans)
