"""Canonical binary primitives shared by the wire payloads and digests.

Little-endian fixed-width integers and IEEE-754 doubles; composite
fields are count-prefixed by their encoders. Every field and every
fixed run of fields has one precompiled ``struct.Struct``: the writer
packs a run into its buffer with one call, and the reader unpacks a run
at its offset with one call, without slicing. The reader bounds-checks
every access before unpacking, so arbitrary input can never over-read or
crash a decoder: running past the end raises ``TruncatedInput``, a
decoder that stops short of the end raises ``TrailingInput``, and a flag
byte other than 0 or 1 raises ``BadFlag``, so each value has exactly one
encoding.
"""

from __future__ import annotations

import struct
from itertools import starmap

U8 = struct.Struct("<B")
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
ID = struct.Struct("<BQ")  # keyframe or map id: origin u8, counter u64


class TruncatedInput(Exception):
    """Reader ran past the end of the buffer."""


class TrailingInput(ValueError):
    """Bytes remained after a complete value was read."""


class BadFlag(ValueError):
    """A flag byte held a value other than 0 or 1."""


def flag(v: int) -> bool:
    """The bool a decoded flag byte encodes; only 0 and 1 are canonical."""
    if v > 1:
        raise BadFlag(f"flag byte {v}")
    return v == 1


class Writer:
    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, v: int) -> "Writer":
        self._buf += U8.pack(v)
        return self

    def u32(self, v: int) -> "Writer":
        self._buf += U32.pack(v)
        return self

    def u64(self, v: int) -> "Writer":
        self._buf += U64.pack(v)
        return self

    def pack(self, fmt: struct.Struct, *values) -> "Writer":
        """Append a fixed run of fields packed with one call."""
        self._buf += fmt.pack(*values)
        return self

    def pack_many(self, fmt: struct.Struct, rows) -> "Writer":
        """Append one run of fmt's fields per row, in row order."""
        self._buf += b"".join(starmap(fmt.pack, rows))
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos

    def unpack(self, fmt: struct.Struct) -> tuple:
        """Read a fixed run of fields with one call."""
        pos = self._pos
        end = pos + fmt.size
        if end > len(self._data):
            raise TruncatedInput(f"need {fmt.size} bytes at offset {pos}")
        self._pos = end
        return fmt.unpack_from(self._data, pos)

    def unpack_many(self, fmt: struct.Struct, n: int) -> list[tuple]:
        """Read n consecutive runs of the same fields with one call."""
        pos = self._pos
        end = pos + fmt.size * n
        if end > len(self._data):
            raise TruncatedInput(f"need {n} x {fmt.size} bytes at offset {pos}")
        self._pos = end
        return list(fmt.iter_unpack(memoryview(self._data)[pos:end]))

    def u8(self) -> int:
        return self.unpack(U8)[0]

    def u32(self) -> int:
        return self.unpack(U32)[0]

    def u64(self) -> int:
        return self.unpack(U64)[0]

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos == len(self._data)
