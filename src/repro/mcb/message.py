"""Broadcast messages and their bit-size accounting.

Section 2 of the paper: "A message consists of at most O(log beta) bits,
where beta is the value of the largest parameter or datum involved in the
computation."  We realize this as a small tuple of scalar *fields* plus a
short string *kind* tag; the network counts bits per message so benchmarks
can report total traffic in bits as well as in messages.
"""

from __future__ import annotations

import math
from typing import Any


class _Empty:
    """Singleton sentinel returned when reading an empty channel.

    The model explicitly allows detecting silence: "Processors reading a
    channel can detect that the channel is empty."  Algorithms in the paper
    rely on this (e.g. Merge-Sort detects a missing predecessor by silence).
    """

    _instance: "_Empty | None" = None

    def __new__(cls) -> "_Empty":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "EMPTY"

    def __bool__(self) -> bool:
        return False


#: The value delivered by a read of a channel nobody wrote this cycle.
EMPTY = _Empty()


def scalar_bits(value: Any) -> int:
    """Number of bits needed to encode one scalar message field.

    Integers are charged their two's-complement width, floats a fixed 64
    bits, short strings 8 bits per character, and ``None`` one bit.  The
    exact coding is unimportant; what matters is that it is
    :math:`O(\\log \\beta)` for the integer data the paper's algorithms send.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, int(value).bit_length()) + 1  # +1 sign bit
    if isinstance(value, float):
        return 64
    if isinstance(value, str):
        return 8 * max(1, len(value))
    raise TypeError(f"non-scalar message field: {value!r}")


class Message:
    """An immutable broadcast message: a kind tag plus scalar fields.

    Parameters
    ----------
    kind:
        Short label describing the role of the message (``"elem"``,
        ``"sum"``, ...).  Used for readable traces and for dispatch in
        multi-role protocols.
    fields:
        Scalar payload values (ints, floats, bools, short strings, None).
    """

    __slots__ = ("kind", "fields", "_bits")

    def __init__(self, kind: str, *fields: Any):
        self.kind = kind
        self.fields = fields
        self._bits = -1

    def bit_size(self) -> int:
        """Total encoded size of this message in bits (incl. kind tag).

        Cached after the first call — messages are immutable, and
        broadcast schedules frequently deliver one message object many
        times (every repetition of the Section 2 simulation, every
        reader round), so the engines charge bits without re-encoding.
        """
        bits = self._bits
        if bits < 0:
            # Exact ints (the common element field) skip the scalar_bits
            # dispatch; bool is an int subclass, so it still takes the
            # general path and keeps its 1 bit.
            bits = 8
            for f in self.fields:
                if f.__class__ is int:
                    bits += (f.bit_length() or 1) + 1
                else:
                    bits += scalar_bits(f)
            self._bits = bits
        return bits

    def __iter__(self):
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i: int) -> Any:
        return self.fields[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Message)
            and self.kind == other.kind
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.fields))

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Message({self.kind!r}, {inner})"


def log2ceil(x: int | float) -> int:
    """``ceil(log2 x)`` for positive ``x`` — used all over cost formulas."""
    if x <= 0:
        raise ValueError(f"log2ceil of non-positive value {x}")
    return max(0, math.ceil(math.log2(x)))
