"""Long and short packet headers, including version negotiation.

``read_header`` is the one reader of a packet's public header, the part
header protection leaves readable; it takes protected or cleartext
bytes. ``parse_header`` expects cleartext bytes, i.e. packets whose
header protection has already been removed (or was never applied, as
for version negotiation), and adds the fixed and reserved bits and the
packet number. The packet number field holds the value as it appears on
the wire; widening a truncated number back to the full packet number
needs receive state and lives with packet protection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParseError, SerializeError, TruncationError
from .varint import decode_varint, encode_varint

QUIC_V1 = 0x00000001

ConnectionID = bytes


def check_connection_id(cid: bytes, limit: int = 20) -> bytes:
    if len(cid) > limit:
        raise SerializeError(f"connection id too long: {len(cid)} bytes")
    return cid


class PacketType(Enum):
    INITIAL = "initial"
    ZERO_RTT = "zero_rtt"
    HANDSHAKE = "handshake"
    RETRY = "retry"
    VERSION_NEGOTIATION = "version_negotiation"
    ONE_RTT = "one_rtt"


_LONG_TYPE_BITS = {
    PacketType.INITIAL: 0,
    PacketType.ZERO_RTT: 1,
    PacketType.HANDSHAKE: 2,
    PacketType.RETRY: 3,
}
_LONG_TYPE_FROM_BITS = {v: k for k, v in _LONG_TYPE_BITS.items()}


@dataclass
class PacketHeader:
    packet_type: PacketType
    version: int = QUIC_V1
    dcid: ConnectionID = b""
    scid: ConnectionID = b""
    token: bytes = b""
    length: int = 0  # long headers: varint covering pn + protected payload
    packet_number: int = 0
    pn_length: int = 1
    supported_versions: list[int] = field(default_factory=list)

    @property
    def is_long(self) -> bool:
        return self.packet_type is not PacketType.ONE_RTT


def serialize_header(header: PacketHeader) -> bytes:
    return join_header(split_header(header), header.length)


def split_header(header: PacketHeader) -> tuple[bytes, bytes | None]:
    """``serialize_header``'s bytes, split where a long header's Length
    field goes: the bytes before it and the packet number field after
    it. A header without a Length field (short, Retry, Version
    Negotiation) is all in the first part, and the second is None. A
    sender builds this once and joins it with each Length it needs."""
    # a Version Negotiation packet echoes connection ids of any version,
    # which RFC 8999 section 5.1 allows up to 255 bytes
    limit = 255 if header.packet_type is PacketType.VERSION_NEGOTIATION else 20
    check_connection_id(header.dcid, limit)
    check_connection_id(header.scid, limit)
    if header.packet_type is PacketType.VERSION_NEGOTIATION:
        out = bytearray([0xC0])
        out += struct.pack(">I", 0)
        out += bytes([len(header.dcid)]) + header.dcid
        out += bytes([len(header.scid)]) + header.scid
        for version in header.supported_versions:
            out += struct.pack(">I", version)
        return bytes(out), None

    if not 1 <= header.pn_length <= 4:
        raise SerializeError(f"pn_length must be 1-4, got {header.pn_length}")
    pn_bytes = header.packet_number.to_bytes(8, "big")[-header.pn_length :]

    if header.packet_type is PacketType.ONE_RTT:
        first = 0x40 | (header.pn_length - 1)
        return bytes([first]) + header.dcid + pn_bytes, None

    first = 0x80 | 0x40 | (_LONG_TYPE_BITS[header.packet_type] << 4)
    out = bytearray()
    out += struct.pack(">I", header.version)
    out += bytes([len(header.dcid)]) + header.dcid
    out += bytes([len(header.scid)]) + header.scid
    if header.packet_type is PacketType.INITIAL:
        out += encode_varint(len(header.token)) + header.token
    if header.packet_type is PacketType.RETRY:
        return bytes([first]) + bytes(out) + header.token, None
    first |= header.pn_length - 1
    return bytes([first]) + bytes(out), pn_bytes


def join_header(parts: tuple[bytes, bytes | None], length: int) -> bytes:
    """The header ``split_header`` split into ``parts``, with ``length``
    in its Length field if it has one."""
    head, pn_bytes = parts
    if pn_bytes is None:
        return head
    return head + encode_varint(length) + pn_bytes


def packet_type_of(buf: bytes) -> PacketType:
    """The type a version 1 endpoint reads from a packet's first byte and
    version field alone: a short header is 1-RTT, version 0 is Version
    Negotiation, and any other long header, even one cut short of its
    version, has the type its type bits name."""
    if not buf:
        raise TruncationError("empty packet", offset=0)
    if not buf[0] & 0x80:
        return PacketType.ONE_RTT
    if buf[1:5] == b"\x00\x00\x00\x00":
        return PacketType.VERSION_NEGOTIATION
    return _LONG_TYPE_FROM_BITS[(buf[0] & 0x30) >> 4]


def read_header(buf: bytes, short_dcid_len: int = 8) -> tuple[PacketHeader, int, int]:
    """Read what header protection leaves readable of the packet that
    starts ``buf``, protected or not.

    Returns the header, the offset of its packet number field and the
    offset where the packet ends. A long header has the invariants of
    RFC 8999; a version 1 one adds the Initial token and the Length
    field, so it ends ``length`` bytes past its packet number offset,
    which may lie past ``buf`` when it holds only a header. A short
    header takes ``short_dcid_len`` for its connection id and runs to
    the end of ``buf``. Version Negotiation (with its version list),
    Retry (with its token and integrity tag as ``token``) and other
    versions have no packet number: both offsets are ``len(buf)``. The
    type is ``packet_type_of``'s, so a long header of another version
    has the type its type bits would name in version 1.

    Neither the packet number nor its length is read: header protection
    hides them, and ``packet_number``/``pn_length`` keep their defaults.
    """
    packet_type = packet_type_of(buf)
    if packet_type is PacketType.ONE_RTT:
        pos = 1 + short_dcid_len
        _need(buf, 1, short_dcid_len, "dcid")
        return PacketHeader(packet_type=packet_type, dcid=buf[1:pos]), pos, len(buf)

    _need(buf, 1, 4, "version")
    version = int.from_bytes(buf[1:5], "big")
    # RFC 9000 section 17.2 limits version 1 connection ids to 20 bytes
    limit = 20 if version == QUIC_V1 else 255
    dcid, pos = _read_cid(buf, 5, limit, "dcid")
    scid, pos = _read_cid(buf, pos, limit, "scid")
    header = PacketHeader(packet_type=packet_type, version=version, dcid=dcid, scid=scid)

    if packet_type is PacketType.VERSION_NEGOTIATION:
        if (len(buf) - pos) % 4 != 0:
            raise ParseError("version list not a multiple of 4 bytes", offset=pos)
        header.supported_versions = [
            int.from_bytes(buf[at : at + 4], "big") for at in range(pos, len(buf), 4)
        ]
        return header, len(buf), len(buf)
    if version != QUIC_V1:
        return header, len(buf), len(buf)

    if packet_type is PacketType.INITIAL:
        token_len, used, _ = decode_varint(buf, pos)
        pos += used
        _need(buf, pos, token_len, "token")
        header.token = buf[pos : pos + token_len]
        pos += token_len
    elif packet_type is PacketType.RETRY:
        if len(buf) - pos < 16:
            raise TruncationError("retry packet shorter than integrity tag", offset=pos)
        header.token = buf[pos:]
        return header, len(buf), len(buf)

    header.length, used, _ = decode_varint(buf, pos)
    pos += used
    return header, pos, pos + header.length


def _read_cid(buf: bytes, pos: int, limit: int, name: str) -> tuple[bytes, int]:
    """A connection id and its length byte at ``pos``, and the offset past it."""
    if pos >= len(buf):
        raise TruncationError(f"truncated {name} length", offset=pos)
    size = buf[pos]
    if size > limit:
        raise ParseError(f"{name} length {size} exceeds {limit}", offset=pos)
    end = pos + 1 + size
    if end > len(buf):
        raise TruncationError(f"truncated {name}", offset=pos + 1)
    return buf[pos + 1 : end], end


def check_first_byte(header: PacketHeader, first: int) -> None:
    """The checks RFC 9000 section 17 makes of a version 1 first byte with
    header protection removed: the fixed bit is set and, in packets with a
    packet number, the reserved bits are clear."""
    if not first & 0x40:
        raise ParseError("fixed bit is zero", offset=0)
    if header.packet_type is PacketType.RETRY:
        return
    if header.is_long and first & 0x0C:
        raise ParseError("reserved bits set in long header", offset=0)
    if not header.is_long and first & 0x18:
        raise ParseError("reserved bits set in short header", offset=0)


def parse_header(buf: bytes, short_dcid_len: int = 8) -> tuple[PacketHeader, int]:
    """Parse one cleartext header, returning it and the payload offset.

    ``short_dcid_len`` supplies the connection id length for short
    headers, which do not encode it.
    """
    header, pn_offset, _ = read_header(buf, short_dcid_len)
    if header.version != QUIC_V1:
        return header, pn_offset
    check_first_byte(header, buf[0])
    if header.packet_type is PacketType.RETRY:
        return header, pn_offset
    header.pn_length = (buf[0] & 0x03) + 1
    _need(buf, pn_offset, header.pn_length, "packet number")
    header.packet_number = int.from_bytes(buf[pn_offset : pn_offset + header.pn_length], "big")
    return header, pn_offset + header.pn_length


def _need(buf: bytes, pos: int, count: int, what: str) -> None:
    if pos + count > len(buf):
        raise TruncationError(f"truncated {what}", offset=pos)
