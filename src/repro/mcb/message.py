"""Broadcast messages and their bit-size accounting.

Section 2 of the paper: "A message consists of at most O(log beta) bits,
where beta is the value of the largest parameter or datum involved in the
computation."  We realize this as a small tuple of scalar *fields* plus a
short string *kind* tag; the network counts bits per message so benchmarks
can report total traffic in bits as well as in messages.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Any, Optional, Sequence


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


def pack_elem(e: Any) -> tuple:
    """Element -> message fields: a scalar is one field, a tuple element
    (e.g. the §3 ``(value, pid, idx)`` triple) one field per component."""
    return tuple(e) if isinstance(e, tuple) else (e,)


def unpack_elem(fields: Sequence[Any]) -> Any:
    """Message fields -> element (scalar or tuple); inverse of
    :func:`pack_elem`."""
    return fields[0] if len(fields) == 1 else tuple(fields)


def _fields(vals: list, max_fields: int) -> Optional[tuple[list, set]]:
    """The message fields of elements ``vals`` and their types, or
    ``None``.  With no plain tuple among them the fields are the
    elements themselves; if all are plain tuples (none of length 1, at
    most ``max_fields`` fields) they are flattened.  When every field
    is an exact int or float, each element arrives unchanged."""
    if max_fields < 1:
        return None
    types = set(map(type, vals))
    if tuple not in types:
        return vals, types
    if types != {tuple}:
        return None
    lens = set(map(len, vals))
    if max(lens) > max_fields or 1 in lens:
        return None
    fields = list(chain.from_iterable(vals))
    return fields, set(map(type, fields))


def plain_fields(vals: list, max_fields: int) -> Optional[list]:
    """The message fields of elements ``vals``, flattened, if they are
    all exact ints or all plain tuples of exact ints (none of length 1)
    of at most ``max_fields`` fields; ``None`` otherwise.

    Such elements arrive unchanged (``unpack_elem(pack_elem(v)) == v``,
    same type), order like their fields and are sized by
    :func:`bulk_bits`.
    """
    got = _fields(vals, max_fields)
    return got[0] if got is not None and got[1] <= {int} else None


def bulk_bits(messages: int, fields: list) -> int:
    """:meth:`Message.bit_size` summed over ``messages`` messages whose
    fields, all exact ints, are ``fields`` (see :func:`plain_fields`):
    8 bits of kind per message, and per field a sign bit plus the
    magnitude's width (zero takes one bit)."""
    return (
        8 * messages + len(fields)
        + sum(map(int.bit_length, fields)) + fields.count(0)
    )


def numeric_bits(messages: int, fields: list) -> Optional[int]:
    """:func:`bulk_bits` for fields that are exact ints or exact floats,
    a float costing 64 bits (:func:`scalar_bits`); ``None`` if some
    field is of another type (a ``bool`` included)."""
    types = set(map(type, fields))
    if types <= {int}:
        return bulk_bits(messages, fields)
    if not types <= {int, float}:
        return None
    ints = [f for f in fields if f.__class__ is int]
    return bulk_bits(messages, ints) + 64 * (len(fields) - len(ints))


def delivered(
    vals: list, kind: str, max_fields: int
) -> Optional[tuple[list, int]]:
    """What writing each of ``vals`` delivers, and the bits charged.

    A write of ``v`` sends ``Message(kind, *pack_elem(v))``, and its
    reader stores ``unpack_elem`` of the fields.  Returns ``None`` if
    some write would fail an engine's write guard (more than
    ``max_fields`` fields) or its bit sizing, so that stepping raises
    the error at its cycle.  Elements whose fields are all exact ints
    or floats (:func:`numeric_bits`), as scalars or as plain tuples,
    arrive unchanged and are sized in bulk; any other element builds
    its ``Message``.
    """
    flat = _fields(vals, max_fields)
    if flat is not None:
        bits = numeric_bits(len(vals), flat[0])
        if bits is not None:
            return vals, bits
    got = []
    bits = 0
    for v in vals:
        packed = pack_elem(v)
        if len(packed) > max_fields:
            return None  # stepping raises MessageSizeError
        try:
            bits += Message(kind, *packed).bit_size()
        except TypeError:
            return None  # a non-scalar field: stepping raises it
        got.append(unpack_elem(packed))
    return got, bits


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
