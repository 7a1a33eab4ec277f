"""Vector engine of the §8 filtering selection: the data plane.

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

Its *control* half — the network stages of each round — is
:class:`repro.select.filtering.NetworkControl`, the same on both
engines.

Every value leaving the store is converted back to its native Python
type (``.item()`` / ``tolist()``): NumPy scalars must never enter
network programs, where bit accounting and message fingerprints follow
the Python scalar rules.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..mcb.vector.executor import (
    _INT_LIMIT,
    compact_rows,
    detect_dtype_rows,
    masked_reduce,
)


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

    def ge_counts(self, med_star: Any) -> list[int]:
        """Each processor's count of live candidates ``>= med_star``, in
        pid order (Python ints — these become message payloads with
        exact bit accounting)."""
        if self.numeric:
            # int64 before the reduce: np.add on bools is logical-or.
            flags = (self.values >= med_star).astype(np.int64)
            return masked_reduce(flags, self._live()).tolist()
        return [
            sum(1 for e in self.values[i, : self.counts[i]] if e >= med_star)
            for i in range(self.p)
        ]

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
