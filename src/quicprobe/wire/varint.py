"""QUIC variable-length integers.

The top two bits of the first byte select an encoded length of 1, 2, 4 or
8 bytes; the remaining bits carry the value big-endian. Values larger than
2^62 - 1 cannot be represented.
"""

from __future__ import annotations

import struct

from .errors import TruncationError, WireRangeError

VARINT_MAX = (1 << 62) - 1

# per two-bit length prefix: the mask of the value bits and the smallest
# value that needs that length, below which the encoding is not minimal
_MASKS = (0x3F, 0x3FFF, 0x3FFFFFFF, VARINT_MAX)
_MIN_VALUES = (0, 0x40, 0x4000, 0x40000000)


def varint_size(value: int) -> int:
    """Minimal encoded size in bytes for ``value``."""
    if value < 0 or value > VARINT_MAX:
        raise WireRangeError(f"varint out of range: {value}")
    if value <= 0x3F:
        return 1
    if value <= 0x3FFF:
        return 2
    if value <= 0x3FFFFFFF:
        return 4
    return 8


def encode_varint(value: int) -> bytes:
    """Encode ``value`` using the minimal-length form."""
    size = varint_size(value)
    if size == 1:
        return struct.pack(">B", value)
    if size == 2:
        return struct.pack(">H", value | 0x4000)
    if size == 4:
        return struct.pack(">I", value | 0x80000000)
    return struct.pack(">Q", value | 0xC000000000000000)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int, bool]:
    """Decode one varint starting at ``offset``.

    Returns ``(value, consumed, minimal)``. Non-minimal encodings decode
    normally but come back with ``minimal=False`` so callers can record
    the peer's sloppiness instead of masking it.
    """
    if offset >= len(buf):
        raise TruncationError("varint: empty buffer", offset=offset)
    first = buf[offset]
    if first < 0x40:
        return first, 1, True
    prefix = first >> 6
    size = 1 << prefix
    if offset + size > len(buf):
        raise TruncationError(
            f"varint: length prefix declares {size} bytes, {len(buf) - offset} available",
            offset=offset,
        )
    value = int.from_bytes(buf[offset : offset + size], "big") & _MASKS[prefix]
    return value, size, value >= _MIN_VALUES[prefix]
