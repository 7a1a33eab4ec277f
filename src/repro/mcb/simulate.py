"""Simulating a larger MCB on a smaller one (Section 2 of the paper).

The paper notes that one cycle of an MCB(p', k') can be simulated on an
MCB(p, k), ``p' >= p``, ``k' >= k``, in ``O((p'/p)(k'/k))`` cycles using
``O(p'/p)`` messages per original message, by hosting ``p'/p`` virtual
processors per real processor and ``k'/k`` virtual channels per real
channel, repeating each message ``p'/p`` times.  This lemma is what lets
the algorithms assume w.l.o.g. that ``p`` is a power of two, that ``k``
divides ``p``, etc.

The paper's one-line argument glosses over a scheduling detail: a real
processor hosting several virtual writers (or readers) can touch only one
channel per cycle, and a virtual reader does not know *which host* holds
the writer of the channel it reads.  We therefore use a fully *oblivious*
schedule of

    R  =  v * v * S      real cycles per virtual cycle,

where ``v = ceil(p'/p)`` and ``S = ceil(k'/k)``:

* virtual channel ``c'`` is carried by real channel ``((c'-1) mod k)+1``
  in sub-slot ``t(c') = (c'-1) div k``;
* the block is indexed ``(rep, wrep, t)``: the writer of ``c'`` (a virtual
  processor with within-host index ``h``) writes in every cycle with
  ``wrep == h`` and ``t == t(c')`` — i.e. ``v`` repetitions, one per
  reader round ``rep``;
* a virtual reader with within-host index ``h`` collects its read during
  reader round ``rep == h``, scanning all ``wrep`` sub-rounds at sub-slot
  ``t(c')`` and keeping the unique non-empty result.

For the constant-factor uses in the paper (``v <= 2``, ``S <= 2``) this is
the same ``O((p'/p)(k'/k))`` overhead; in general it costs an extra factor
``v``.  Tests verify the exact overhead ``R`` per virtual cycle and ``v``
messages per original message.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional

from .errors import ConfigurationError
from .message import EMPTY
from .network import MCBNetwork
from .program import (
    IDLE,
    CollectiveOp,
    CycleOp,
    Listen,
    ProcContext,
    ProgramFn,
    Sleep,
    desugar_collective,
    listen_window,
)


def host_of(q: int, v: int) -> int:
    """Real (1-based) host processor of virtual processor ``q``."""
    return (q - 1) // v + 1

def host_index(q: int, v: int) -> int:
    """Within-host index (0-based) of virtual processor ``q``."""
    return (q - 1) % v

def real_channel(c: int, k: int) -> int:
    """Real channel carrying virtual channel ``c``."""
    return (c - 1) % k + 1

def subslot(c: int, k: int) -> int:
    """Sub-slot (0-based) within a round in which virtual channel ``c`` appears."""
    return (c - 1) // k


def simulation_overhead(p_virtual: int, k_virtual: int, p: int, k: int) -> tuple[int, int]:
    """Return ``(cycles_per_virtual_cycle, messages_per_message)``."""
    v = math.ceil(p_virtual / p)
    s = math.ceil(k_virtual / k)
    return v * v * s, v


def desugar(q: int, k: int, gen: Generator) -> Generator:
    """Run virtual program ``gen``, spelling ``Listen`` and collective
    ops out.

    The oblivious block schedule moves at most one read and one write per
    virtual processor per virtual cycle and has no parked readers or
    collective phases, so both simulators wrap every virtual program
    (virtual pid ``q`` on ``k`` virtual channels) in this generator.  A
    :class:`~repro.mcb.program.Listen` becomes exactly the per-cycle
    ``CycleOp(read=ch)`` yields that define it (``docs/MODEL.md``), and
    the program is resumed with the same bulk result an engine would
    deliver; a :class:`~repro.mcb.program.CollectiveOp` (a ``RunPlan``,
    Rank-Sort's ``SortGroup``, an ``Emit``) becomes its desugared
    program, itself spelled out the same way, whose return value resumes
    the program — so a virtual plan, group sort or write run never runs
    on the physical channels.  Everything else passes through.
    """
    got = None
    while True:
        try:
            op = gen.send(got)
        except StopIteration as stop:
            return stop.value
        if isinstance(op, CollectiveOp):
            got = yield from desugar(q, k, desugar_collective(q, op, k))
            continue
        if not isinstance(op, Listen):
            got = yield op
            continue
        window = listen_window(q, op)
        read = CycleOp(read=op.channel)
        if window is None:
            off = 0
            got = yield read
            while got is None or got is EMPTY:
                off += 1
                got = yield read
            got = (off, got)
        else:
            heard = []
            for off in range(window):
                r = yield read
                if r is not None and r is not EMPTY:
                    heard.append((off, r))
            got = heard


def run_simulated(
    net: MCBNetwork,
    p_virtual: int,
    k_virtual: int,
    programs: dict[int, ProgramFn],
    *,
    data: Optional[dict[int, Any]] = None,
    phase: str = "simulated",
) -> dict[int, Any]:
    """Run programs written for MCB(p_virtual, k_virtual) on ``net``.

    Parameters mirror :meth:`MCBNetwork.run`, except ``programs`` maps
    *virtual* processor ids ``1..p_virtual``.  Returns virtual pid ->
    program result.
    """
    p, k = net.p, net.k
    if p_virtual < p or k_virtual < k:
        raise ConfigurationError(
            f"can only simulate a larger network: MCB({p_virtual},{k_virtual}) "
            f"on MCB({p},{k})"
        )
    if k_virtual > p_virtual:
        raise ConfigurationError("virtual network requires k' <= p'")
    v = math.ceil(p_virtual / p)
    s = math.ceil(k_virtual / k)

    hosted: dict[int, list[int]] = {}
    for q in programs:
        if not 1 <= q <= p_virtual:
            raise ConfigurationError(f"virtual pid {q} out of range 1..{p_virtual}")
        hosted.setdefault(host_of(q, v), []).append(q)

    results: dict[int, Any] = {}

    def make_host(host_pid: int, vpids: list[int]):
        def host_program(ctx: ProcContext):
            gens: dict[int, Any] = {}
            vctxs: dict[int, ProcContext] = {}
            for q in sorted(vpids):
                vctx = ProcContext(
                    pid=q,
                    p=p_virtual,
                    k=k_virtual,
                    data=None if data is None else data.get(q),
                )
                vctxs[q] = vctx
                gens[q] = desugar(q, k_virtual, programs[q](vctx))
            inbox: dict[int, Any] = {q: None for q in gens}
            sleeping: dict[int, int] = {}  # q -> remaining idle virtual cycles

            while gens:
                # --- gather this virtual cycle's ops -------------------
                writes: dict[int, tuple[int, Any]] = {}  # q -> (chan, msg)
                reads: dict[int, int] = {}  # q -> chan
                for q in list(gens):
                    if sleeping.get(q, 0) > 0:
                        sleeping[q] -= 1
                        continue
                    try:
                        op = gens[q].send(inbox[q])
                    except StopIteration as stop:
                        results[q] = stop.value
                        del gens[q]
                        continue
                    finally:
                        inbox[q] = None
                    if isinstance(op, Sleep):
                        # This virtual cycle plus (cycles-1) further ones.
                        sleeping[q] = max(1, op.cycles) - 1
                        continue
                    if op.write is not None:
                        writes[q] = (op.write, op.payload)
                    if op.read is not None:
                        reads[q] = op.read
                        inbox[q] = EMPTY

                if not gens and not writes and not reads:
                    return None

                if not writes and not reads:
                    # All hosted virtual processors idle this virtual
                    # cycle; other hosts may still act, so the block's R
                    # real cycles must elapse here too to stay aligned.
                    yield Sleep(v * v * s)
                    continue

                # --- compile this virtual cycle's oblivious block -------
                # The op at block index (rep, wrep, t) depends only on
                # the (wrep, t) writer slot and the (rep, t) reader slot,
                # and host_index is injective on this host's vpids, so
                # each slot key names at most one virtual processor: the
                # two dicts below are exact replacements for the old
                # first-match scans over writes/reads inside the triple
                # loop (O(v^2 * s) lookups instead of O(v^2 * s * |ops|)).
                writer_at: dict[tuple[int, int], tuple[int, Any]] = {}
                for q, (chan, msg) in writes.items():
                    writer_at[host_index(q, v), subslot(chan, k)] = (
                        real_channel(chan, k),
                        msg,
                    )
                reader_at: dict[tuple[int, int], tuple[int, int]] = {}
                for q, chan in reads.items():
                    reader_at[host_index(q, v), subslot(chan, k)] = (
                        real_channel(chan, k),
                        q,
                    )

                # --- run the R-cycle oblivious block --------------------
                for rep in range(v):
                    for wrep in range(v):
                        for t in range(s):
                            w = writer_at.get((wrep, t))
                            r = reader_at.get((rep, t))
                            if w is None and r is None:
                                # Keep yielding a (shared) empty CycleOp,
                                # not Sleep: the block's idle sub-cycles
                                # must count as ordinary participation so
                                # fast_forward_cycles stays identical to
                                # the scan-based schedule.
                                yield IDLE
                                continue
                            got = yield CycleOp(
                                write=None if w is None else w[0],
                                payload=None if w is None else w[1],
                                read=None if r is None else r[0],
                            )
                            if r is not None and got is not EMPTY and got is not None:
                                inbox[r[1]] = got
            return None

        return host_program

    host_programs = {
        host_pid: make_host(host_pid, vpids) for host_pid, vpids in hosted.items()
    }
    net.run(host_programs, phase=phase)
    # Annotate the just-finished phase with the simulation geometry so
    # profiles/exports can normalize real costs back to virtual ones
    # (R = v*v*S real cycles per virtual cycle, v messages per message).
    if net.stats.phases:
        net.stats.phases[-1].extra["simulated"] = {
            "p_virtual": p_virtual,
            "k_virtual": k_virtual,
            "hosts": len(hosted),
            "v": v,
            "s": s,
            "cycles_per_virtual_cycle": v * v * s,
            "messages_per_message": v,
        }
    return results
