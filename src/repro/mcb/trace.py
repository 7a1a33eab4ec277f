"""Cost accounting for MCB runs: cycles, messages, bits, memory, utilization.

Complexity in the MCB model "is measured in terms of the total number of
cycles and the total number of broadcast messages" (Section 2).  These are
the two headline counters; we additionally track bits, per-channel write
counts (utilization) and per-processor auxiliary-memory peaks because the
Section 6 experiments compare implementations along those axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PhaseStats:
    """Costs of one :meth:`MCBNetwork.run` invocation (one stage/phase)."""

    name: str
    cycles: int = 0
    messages: int = 0
    bits: int = 0
    #: writes per channel, 1-based index -> count
    channel_writes: dict[int, int] = field(default_factory=dict)
    #: per-processor auxiliary-memory peak, 1-based pid -> slots
    aux_peak: dict[int, int] = field(default_factory=dict)
    #: the network's true channel count, stamped by ``run()`` (0 for
    #: legacy hand-built stats, where it is inferred from the writes)
    k: int = 0
    #: cycles that elapsed while every live processor slept (included in
    #: ``cycles``; the engine fast-forwarded over them)
    fast_forward_cycles: int = 0
    #: concurrent-write incidents: survived ones under the §9 extended
    #: policies, or exactly 1 on an exclusive-model phase that aborted
    #: with :class:`~repro.mcb.errors.CollisionError` (the engine records
    #: the partial phase before raising so its costs are not lost)
    collisions: int = 0
    #: free-form annotations (e.g. ``run_simulated`` overhead factors)
    extra: dict = field(default_factory=dict)

    @property
    def max_aux_peak(self) -> int:
        """Largest per-processor auxiliary memory used during the phase."""
        return max(self.aux_peak.values(), default=0)

    def channel_utilization(self) -> float:
        """Fraction of channel-cycles actually carrying a message.

        Divides by the network's true ``k`` (stamped at ``run()`` time).
        Stats predating the stamp fall back to the highest channel index
        seen — which overstates utilization when high channels are idle,
        the historical behaviour.
        """
        if self.cycles == 0 or not self.channel_writes:
            return 0.0
        k = self.k if self.k > 0 else max(self.channel_writes)
        return self.messages / (self.cycles * k)

    def to_dict(self) -> dict:
        """JSON-friendly projection used by the obs exporters."""
        return {
            "name": self.name,
            "cycles": self.cycles,
            "messages": self.messages,
            "bits": self.bits,
            "k": self.k,
            "channel_writes": dict(sorted(self.channel_writes.items())),
            "max_aux_peak": self.max_aux_peak,
            "fast_forward_cycles": self.fast_forward_cycles,
            "collisions": self.collisions,
            "utilization": self.channel_utilization(),
            **({"extra": self.extra} if self.extra else {}),
        }


def _merge_into(merged: PhaseStats, ph: PhaseStats) -> None:
    """Fold ``ph`` into ``merged``: sum the counters and per-channel
    writes, keep the widest ``k`` and each processor's highest peak."""
    merged.cycles += ph.cycles
    merged.messages += ph.messages
    merged.bits += ph.bits
    merged.fast_forward_cycles += ph.fast_forward_cycles
    merged.collisions += ph.collisions
    if ph.k > merged.k:
        merged.k = ph.k
    if ph.extra:
        merged.extra.update(ph.extra)
    writes = merged.channel_writes
    for c, w in ph.channel_writes.items():
        writes[c] = writes.get(c, 0) + w
    peaks = merged.aux_peak
    for pid, peak in ph.aux_peak.items():
        old = peaks.get(pid, 0)
        peaks[pid] = peak if peak > old else old


@dataclass
class RunStats:
    """Accumulated costs across all phases run on a network so far."""

    phases: list[PhaseStats] = field(default_factory=list)

    def add(self, phase: PhaseStats) -> None:
        """Record one finished stage."""
        self.phases.append(phase)

    @property
    def cycles(self) -> int:
        return sum(ph.cycles for ph in self.phases)

    @property
    def messages(self) -> int:
        return sum(ph.messages for ph in self.phases)

    @property
    def bits(self) -> int:
        return sum(ph.bits for ph in self.phases)

    @property
    def max_aux_peak(self) -> int:
        return max((ph.max_aux_peak for ph in self.phases), default=0)

    def phase(self, name: str) -> PhaseStats:
        """Return the merged stats of all phases with the given name."""
        merged = PhaseStats(name=name)
        for ph in self.phases:
            if ph.name == name:
                _merge_into(merged, ph)
        return merged

    def merged_phases(self) -> list[PhaseStats]:
        """:meth:`phase` of every distinct name, in first-seen order,
        grouped in one pass over the phases."""
        merged: dict[str, PhaseStats] = {}
        for ph in self.phases:
            into = merged.get(ph.name)
            if into is None:
                into = merged[ph.name] = PhaseStats(name=ph.name)
            _merge_into(into, ph)
        return list(merged.values())

    def phase_names(self) -> list[str]:
        """Distinct phase names in first-seen order."""
        return list(dict.fromkeys(ph.name for ph in self.phases))

    def to_dict(self) -> dict:
        """JSON-friendly projection: totals + per-phase dicts in order."""
        return {
            "totals": {
                "cycles": self.cycles,
                "messages": self.messages,
                "bits": self.bits,
                "max_aux_peak": self.max_aux_peak,
            },
            "phases": [ph.to_dict() for ph in self.merged_phases()],
        }

    def breakdown(self) -> str:
        """Human-readable per-phase table (used by examples and benches)."""
        lines = [f"{'phase':<28}{'cycles':>10}{'messages':>10}{'bits':>12}"]
        for ph in self.merged_phases():
            lines.append(
                f"{ph.name:<28}{ph.cycles:>10}{ph.messages:>10}{ph.bits:>12}"
            )
        lines.append(
            f"{'TOTAL':<28}{self.cycles:>10}{self.messages:>10}{self.bits:>12}"
        )
        return "\n".join(lines)
