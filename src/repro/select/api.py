"""Public selection API: rank reflection, duplicate handling, verification.

``mcb_select`` wraps the Section 8 algorithm with the paper's two
W.l.o.g. devices:

* ranks above the middle are reflected (``d > ceil(n/2)`` selects the
  ``(n-d+1)``-th largest of the order-negated set — "reverse the sorting
  order and select the element of rank n-d+1");
* duplicated inputs are lifted to distinct ``(value, pid, index)``
  triples (§3) and the answer projected back.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.distribution import Distribution
from ..core.element import has_duplicates, tag_elements
from ..mcb.network import MCBNetwork
from ..sort.common import neg_elem
from .filtering import (
    SelectionResult,
    mcb_select_descending,
    select_from_store,
)


def mcb_select(
    net: MCBNetwork,
    dist: Distribution | dict[int, Sequence[Any]],
    d: int,
    *,
    threshold: int | None = None,
    phase: str = "select",
    engine: str = "generator",
) -> SelectionResult:
    """Select the d-th largest element of a distributed set on the network.

    Parameters
    ----------
    net:
        The MCB network (costs are accumulated in ``net.stats``).
    dist:
        A :class:`~repro.core.distribution.Distribution` or a plain
        pid -> elements mapping.
    d:
        1-based rank; ``d = 1`` selects the maximum,
        ``d = ceil(n/2)`` the median.
    threshold:
        Termination threshold ``m*`` (defaults to the paper's ``p/k``).
    engine:
        ``"generator"`` (default) or ``"vector"``: the vector engine
        runs the candidate data plane — medians, rank counts, purges —
        as whole-matrix NumPy operations
        (:class:`repro.select.vector.VectorCandidates`); both engines
        run each filtering round's control stages on the network
        (:class:`repro.select.filtering.NetworkControl`).  Cycles,
        messages and ``RunStats`` are identical to the generator
        engine's.

    Returns
    -------
    SelectionResult
        ``value`` is the selected element; ``trace`` records per-phase
        candidate counts (the Figure 2 telemetry).
    """
    parts = dist.parts if isinstance(dist, Distribution) else {
        pid: tuple(v) for pid, v in dist.items()
    }
    n = sum(len(v) for v in parts.values())
    if not 1 <= d <= n:
        raise ValueError(f"rank d={d} out of range 1..{n}")

    store = None
    if engine == "vector" and sorted(parts) == list(range(1, net.p + 1)):
        from .vector import VectorCandidates

        store = VectorCandidates(parts, net.p)
    # A numeric vector store answers the §3 duplicate question on the
    # matrix it built anyway; other payloads take the set scan.
    numeric = store is not None and store.numeric
    tagged = store.has_duplicates() if numeric else has_duplicates(parts)
    reflected = d > (n + 1) // 2
    if reflected:
        d = n - d + 1

    # The built store stays valid unless tagging replaces the elements
    # or an object store would need its elements negated one by one.
    if store is not None and not tagged and (numeric or not reflected):
        if reflected:
            store.negate()
        result = select_from_store(
            net, store, d, threshold=threshold, phase=phase
        )
    else:
        if tagged:
            parts = tag_elements(parts)
        if reflected:
            parts = {pid: [neg_elem(e) for e in v] for pid, v in parts.items()}
        result = mcb_select_descending(
            net, parts, d, threshold=threshold, phase=phase, engine=engine
        )
    value = result.value
    if reflected:
        value = neg_elem(value)
    if tagged:
        value = value[0]
    return SelectionResult(value=value, trace=result.trace)


def select_by_sorting(
    net: MCBNetwork,
    dist: Distribution | dict[int, Sequence[Any]],
    d: int,
    *,
    phase: str = "select-by-sorting",
) -> Any:
    """The naive baseline of §8: sort everything, read off rank ``d``.

    "A naive approach to selection is to sort all elements, then retrieve
    the desired element directly by rank.  This, however, is inefficient
    because the extra information provided by sorting comes at a cost and
    is not really needed."  Used by ``benchmarks/bench_baselines`` to
    show the cost gap.
    """
    from ..sort.dispatch import mcb_sort  # local import: avoid a cycle

    parts = dist.parts if isinstance(dist, Distribution) else {
        pid: tuple(v) for pid, v in dist.items()
    }
    n = sum(len(v) for v in parts.values())
    if not 1 <= d <= n:
        raise ValueError(f"rank d={d} out of range 1..{n}")
    result = mcb_sort(net, Distribution(parts), phase=phase)
    # Rank d lives at 0-based offset d-1 within the concatenated output;
    # find the owning processor and read the element off its segment.
    pos = d - 1
    for pid in range(1, net.p + 1):
        seg = result.output[pid]
        if pos < len(seg):
            return seg[pos]
        pos -= len(seg)
    raise AssertionError("rank not found — sorted output malformed")
