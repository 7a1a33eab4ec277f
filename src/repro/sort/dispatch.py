"""Top-level sorting entry point: picks the right paper algorithm.

``mcb_sort`` is the library's main sorting API.  Given any distribution
on any MCB(p, k) it dispatches:

* even distribution, ``p == k``, valid Columnsort dimensions — the basic
  §5.2 algorithm (:func:`~repro.sort.even_pk.sort_even_pk`);
* even distribution, ``k | p``, valid dimensions — the §6.1
  virtual-column algorithm by default (no auxiliary-memory blowup), or
  the §5.2 collect variant / Merge-Sort flavour on request;
* anything else — the §7.2 uneven algorithm, which also handles uneven
  column counts, padding, and the ``n < k^2(k-1)`` column-count fallback.

Duplicated inputs are lifted to distinct triples (§3) transparently.
"""

from __future__ import annotations

from typing import Any, Literal, Sequence

from ..core.distribution import Distribution
from ..core.element import has_duplicates, tag_elements
from ..columnsort.matrix import dims_valid
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from .backends import BACKENDS, backend_unavailable_reason, choose_backend
from .even_collect import sort_even_collect
from .even_pk import SortResult, sort_even_pk
from .merge_sort import merge_sort
from .rank_sort import rank_sort
from .uneven import sort_uneven
from .virtual import sort_virtual

Strategy = Literal[
    "auto", "even-pk", "collect", "virtual", "virtual-merge",
    "uneven", "rank", "merge",
]


def choose_strategy(
    p: int, k: int, parts: dict[int, Sequence[Any]]
) -> Strategy:
    """The dispatch rule used by ``strategy="auto"``."""
    lengths = {len(v) for v in parts.values()}
    even = len(lengths) == 1
    if even:
        npp = lengths.pop()
        n = p * npp
        if p == k and dims_valid(npp, k):
            return "even-pk"
        if p % k == 0 and dims_valid(n // k, k):
            return "virtual"
    return "uneven"


def _resolve_backend(
    backend: str, strategy: Strategy, p: int, k: int,
    parts: dict[int, Sequence[Any]],
) -> str:
    """Resolve the even-pk backend axis (incl. the ``"auto"`` tuner).

    ``"auto"`` never raises: shapes no comparator network covers simply
    resolve to ``"columnsort"`` and flow to the other strategies.  An
    *explicit* non-columnsort backend must actually be runnable — a
    conflicting strategy, uneven shape, or unavailable network raises
    so the caller's request is never silently ignored.
    """
    if backend == "columnsort":
        return backend
    lengths = {len(v) for v in parts.values()}
    even = len(lengths) == 1
    m = lengths.pop() if even else 0
    if backend == "auto":
        if strategy in ("auto", "even-pk") and even and p == k:
            return choose_backend(p, k, p * m)
        return "columnsort"
    if strategy not in ("auto", "even-pk"):
        raise ConfigurationError(
            f"backend {backend!r} is an even-pk schedule family; it "
            f"cannot run under strategy {strategy!r}"
        )
    if not even or p != k:
        raise ConfigurationError(
            f"backend {backend!r} needs an even distribution on "
            f"p == k; got p={p}, k={k}, "
            f"{'even' if even else 'uneven'} distribution"
        )
    reason = backend_unavailable_reason(backend, p, k, m)
    if reason is not None:
        raise ConfigurationError(reason)
    return backend


def mcb_sort(
    net: MCBNetwork,
    dist: Distribution | dict[int, Sequence[Any]],
    *,
    strategy: Strategy = "auto",
    phase: str = "sort",
    engine: str = "generator",
    backend: str = "columnsort",
) -> SortResult:
    """Sort a distributed set on the network (paper's sorting spec §3).

    Parameters
    ----------
    net:
        The MCB network; costs accumulate in ``net.stats``.
    dist:
        A :class:`Distribution` or pid -> elements mapping.
    strategy:
        ``"auto"`` (default) picks per the paper; explicit values force a
        particular algorithm (``"rank"`` / ``"merge"`` are the
        single-channel §6.1 sorts on channel 1).
    engine:
        ``"generator"`` (default) or ``"vector"``.  The vector engine
        executes only the fully oblivious even-pk schedules (columnsort
        including its wrap/skip odd-k variant, plus every comparator
        network); the remaining strategies are adaptive (data-dependent
        or Listen-based), so requesting one with ``engine="vector"``
        raises a :class:`~repro.mcb.errors.ConfigurationError` instead
        of silently mis-executing.
    backend:
        The even ``p == k`` schedule family: ``"columnsort"``
        (default, the paper's §5.2 pipeline), ``"batcher"`` (Batcher's
        odd-even merge network — any even ``p == k`` shape, so it
        extends the fast path below columnsort's dimension rule), or
        ``"auto"`` to let the static cost model pick
        (:func:`repro.sort.backends.choose_backend`).  Non-columnsort
        backends apply only to the even-pk strategy; forcing one
        together with an incompatible strategy or shape raises.

    Returns
    -------
    SortResult
        pid -> descending segment, cardinalities preserved.
    """
    if engine not in ("generator", "vector"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    if backend != "auto" and backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(map(repr, BACKENDS))} or 'auto'"
        )
    parts = dist.parts if isinstance(dist, Distribution) else {
        pid: tuple(v) for pid, v in dist.items()
    }
    tagged = has_duplicates(parts)
    if tagged:
        parts = {
            pid: tuple(v) for pid, v in tag_elements(parts).items()
        }

    requested = strategy
    backend = _resolve_backend(backend, requested, net.p, net.k, parts)
    if strategy == "auto":
        strategy = (
            "even-pk" if backend != "columnsort"
            else choose_strategy(net.p, net.k, parts)
        )

    if engine == "vector" and strategy != "even-pk":
        raise ConfigurationError(
            "engine='vector' executes only the oblivious even-pk columnsort "
            f"schedule (wrap/skip included); strategy {strategy!r} is one of "
            "the adaptive strategies ('collect', 'virtual', 'virtual-merge', "
            "'uneven', 'rank', 'merge') that remain generator-driven — "
            "rerun with engine='generator'"
        )

    if strategy == "even-pk":
        result = sort_even_pk(
            net, {i: list(v) for i, v in parts.items()},
            phase=phase, engine=engine, backend=backend,
        )
    elif strategy == "collect":
        result = sort_even_collect(net, parts, phase=phase)
    elif strategy == "virtual":
        result = sort_virtual(net, parts, sorter="rank", phase=phase)
    elif strategy == "virtual-merge":
        result = sort_virtual(net, parts, sorter="merge", phase=phase)
    elif strategy == "uneven":
        result = sort_uneven(net, parts, phase=phase)
    elif strategy == "rank":
        result = rank_sort(net, parts, phase=phase)
    elif strategy == "merge":
        result = merge_sort(net, parts, phase=phase)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if tagged:
        result = SortResult(
            output={
                pid: tuple(e[0] for e in seg)
                for pid, seg in result.output.items()
            }
        )
    return result
