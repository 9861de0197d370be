"""Transport parameter encoding: a sequence of (id, length, value) entries.

Integer-valued parameters are read and written through ``get_int`` and
``set_int``; every value is kept byte-exact so traces can report what the
peer actually sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, TruncationError
from .varint import decode_varint, encode_varint

TP_ORIGINAL_DCID = 0x00
TP_MAX_IDLE_TIMEOUT = 0x01
TP_INITIAL_MAX_DATA = 0x04
TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL = 0x05
TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE = 0x06
TP_INITIAL_MAX_STREAMS_BIDI = 0x08
TP_MAX_ACK_DELAY = 0x0B
TP_INITIAL_SCID = 0x0F


@dataclass
class TransportParameters:
    """Ordered id -> raw value map with integer accessors."""

    entries: dict[int, bytes] = field(default_factory=dict)

    def get_int(self, param_id: int) -> int | None:
        raw = self.entries.get(param_id)
        if raw is None:
            return None
        value, used, _ = decode_varint(raw)
        if used != len(raw):
            raise ParseError(f"transport parameter 0x{param_id:x} has trailing bytes")
        return value

    def set_int(self, param_id: int, value: int) -> None:
        self.entries[param_id] = encode_varint(value)

    @property
    def initial_max_data(self) -> int | None:
        return self.get_int(TP_INITIAL_MAX_DATA)

    @initial_max_data.setter
    def initial_max_data(self, value: int) -> None:
        self.set_int(TP_INITIAL_MAX_DATA, value)

    def as_report(self) -> dict[str, str]:
        """Hex dump of every entry, keyed by id, for trace results."""
        return {f"0x{param_id:02x}": raw.hex() for param_id, raw in self.entries.items()}


def encode_transport_parameters(tp: TransportParameters) -> bytes:
    out = bytearray()
    for param_id, raw in tp.entries.items():
        out += encode_varint(param_id)
        out += encode_varint(len(raw))
        out += raw
    return bytes(out)


def decode_transport_parameters(buf: bytes) -> TransportParameters:
    """Strict decode: duplicate parameter ids are an error."""
    entries: dict[int, bytes] = {}
    pos = 0
    while pos < len(buf):
        try:
            param_id, used, _ = decode_varint(buf, pos)
            pos += used
            length, used, _ = decode_varint(buf, pos)
            pos += used
        except TruncationError as exc:
            raise ParseError(f"truncated transport parameter header: {exc}", offset=pos)
        if pos + length > len(buf):
            raise TruncationError(
                f"transport parameter 0x{param_id:x} value truncated", offset=pos
            )
        if param_id in entries:
            raise ParseError(f"duplicate transport parameter 0x{param_id:x}", offset=pos)
        entries[param_id] = buf[pos : pos + length]
        pos += length
    return TransportParameters(entries=entries)


def lenient_decode_tp(raw: bytes) -> TransportParameters:
    """Best-effort decode: first occurrence wins, trailing garbage dropped."""
    entries: dict[int, bytes] = {}
    pos = 0
    while pos < len(raw):
        try:
            param_id, used, _ = decode_varint(raw, pos)
            pos += used
            length, used, _ = decode_varint(raw, pos)
            pos += used
        except ParseError:
            break
        value = raw[pos : pos + length]
        pos += length
        if len(value) < length:
            break
        entries.setdefault(param_id, value)
    return TransportParameters(entries=entries)


__all__ = [
    "TransportParameters",
    "encode_transport_parameters",
    "decode_transport_parameters",
    "lenient_decode_tp",
    "TP_ORIGINAL_DCID",
    "TP_MAX_IDLE_TIMEOUT",
    "TP_INITIAL_MAX_DATA",
    "TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL",
    "TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE",
    "TP_INITIAL_MAX_STREAMS_BIDI",
    "TP_MAX_ACK_DELAY",
    "TP_INITIAL_SCID",
]
