"""Frame parsing and serialization for the QUIC version 1 payload grammar.

Parsing is strict about evidence: unknown frame types raise instead of
being skipped, and misbehaviour we are required to observe (empty
non-fin STREAM frames, ACK ranges running below zero) is flagged on the
parsed frame rather than rejected. Serialization refuses to produce the
same misbehaviour.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError, SerializeError, TruncationError
from .varint import decode_varint, encode_varint

FRAME_PADDING = 0x00
FRAME_PING = 0x01
FRAME_ACK = 0x02
FRAME_ACK_ECN = 0x03
FRAME_CRYPTO = 0x06
FRAME_STREAM_BASE = 0x08  # 0x08-0x0f, low bits: OFF=0x04 LEN=0x02 FIN=0x01
FRAME_MAX_DATA = 0x10
FRAME_MAX_STREAM_DATA = 0x11
FRAME_STREAM_DATA_BLOCKED = 0x15
FRAME_NEW_CONNECTION_ID = 0x18
FRAME_CONNECTION_CLOSE = 0x1C
FRAME_CONNECTION_CLOSE_APP = 0x1D
FRAME_HANDSHAKE_DONE = 0x1E

# A run of one-byte PADDING types: every client Initial carries hundreds.
_PADDING_RUN = re.compile(b"\x00+")


@dataclass
class PaddingFrame:
    count: int = 1


@dataclass
class PingFrame:
    pass


@dataclass
class AckFrame:
    largest_acked: int
    ack_delay: int = 0
    first_range: int = 0
    ranges: list[tuple[int, int]] = field(default_factory=list)
    ecn_counts: tuple[int, int, int] | None = None
    # set when decoding the ranges walked below packet number zero
    range_sanity_error: bool = False

    def decoded_ranges(self) -> list[tuple[int, int]]:
        """Acknowledged [low, high] intervals, highest first.

        Stops at the first interval that would underflow; the frame keeps
        its ``range_sanity_error`` flag in that case.
        """
        out = []
        high = self.largest_acked
        low = high - self.first_range
        if low < 0:
            return out
        out.append((low, high))
        for gap, length in self.ranges:
            high = low - gap - 2
            low = high - length
            if low < 0 or high < 0:
                break
            out.append((low, high))
        return out


@dataclass
class CryptoFrame:
    offset: int
    data: bytes


@dataclass
class StreamFrame:
    stream_id: int
    offset: int
    data: bytes
    fin: bool = False

    @property
    def is_empty_non_fin(self) -> bool:
        return not self.fin and len(self.data) == 0


@dataclass
class MaxDataFrame:
    max_data: int


@dataclass
class MaxStreamDataFrame:
    stream_id: int
    max_stream_data: int


@dataclass
class StreamDataBlockedFrame:
    stream_id: int
    limit: int


@dataclass
class NewConnectionIdFrame:
    sequence: int
    retire_prior_to: int
    connection_id: bytes
    reset_token: bytes


@dataclass
class ConnectionCloseFrame:
    error_code: int
    frame_type: int | None  # None for the application-close variant
    reason: str


@dataclass
class HandshakeDoneFrame:
    pass


Frame = (
    PaddingFrame
    | PingFrame
    | AckFrame
    | CryptoFrame
    | StreamFrame
    | MaxDataFrame
    | MaxStreamDataFrame
    | StreamDataBlockedFrame
    | NewConnectionIdFrame
    | ConnectionCloseFrame
    | HandshakeDoneFrame
)

# Everything except ACK, PADDING and CONNECTION_CLOSE elicits an acknowledgement.
NON_ACK_ELICITING = (AckFrame, PaddingFrame, ConnectionCloseFrame)


def is_ack_eliciting(frames: list[Frame]) -> bool:
    return any(not isinstance(f, NON_ACK_ELICITING) for f in frames)


def parse_frames(plaintext: bytes) -> list[Frame]:
    """Parse a decrypted packet payload into its frame list.

    Consumes the whole buffer; runs of PADDING coalesce into a single
    frame. Empty non-fin STREAM frames and underflowing ACK ranges parse
    successfully and carry flags so scenarios can report the exact bug.
    """
    frames: list[Frame] = []
    pos = 0
    end = len(plaintext)
    while pos < end:
        start = pos
        if plaintext[pos] == FRAME_PADDING:
            pos = _PADDING_RUN.match(plaintext, pos).end()
            frame = PaddingFrame(count=pos - start)
        else:
            try:
                ftype, used, _ = decode_varint(plaintext, pos)
            except TruncationError:
                raise ParseError("truncated frame type", offset=pos)
            pos += used
            try:
                frame, pos = _parse_one(plaintext, pos, ftype)
            except TruncationError as exc:
                raise ParseError(f"truncated frame 0x{ftype:02x}: {exc}", offset=start)
        if isinstance(frame, PaddingFrame) and frames and isinstance(frames[-1], PaddingFrame):
            frames[-1].count += frame.count
        else:
            frames.append(frame)
    return frames


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    value, used, _ = decode_varint(buf, pos)
    return value, pos + used


def _read_bytes(buf: bytes, pos: int, length: int) -> tuple[bytes, int]:
    if pos + length > len(buf):
        raise TruncationError(f"need {length} bytes, {len(buf) - pos} available", offset=pos)
    return buf[pos : pos + length], pos + length


def _parse_one(buf: bytes, pos: int, ftype: int) -> tuple[Frame, int]:
    if ftype == FRAME_PADDING:
        return PaddingFrame(count=1), pos
    if ftype == FRAME_PING:
        return PingFrame(), pos
    if ftype in (FRAME_ACK, FRAME_ACK_ECN):
        return _parse_ack(buf, pos, ecn=ftype == FRAME_ACK_ECN)
    if ftype == FRAME_CRYPTO:
        offset, pos = _read_varint(buf, pos)
        length, pos = _read_varint(buf, pos)
        data, pos = _read_bytes(buf, pos, length)
        return CryptoFrame(offset=offset, data=data), pos
    if FRAME_STREAM_BASE <= ftype <= FRAME_STREAM_BASE | 0x07:
        return _parse_stream(buf, pos, ftype)
    if ftype == FRAME_MAX_DATA:
        max_data, pos = _read_varint(buf, pos)
        return MaxDataFrame(max_data=max_data), pos
    if ftype == FRAME_MAX_STREAM_DATA:
        stream_id, pos = _read_varint(buf, pos)
        max_stream_data, pos = _read_varint(buf, pos)
        return MaxStreamDataFrame(stream_id=stream_id, max_stream_data=max_stream_data), pos
    if ftype == FRAME_STREAM_DATA_BLOCKED:
        stream_id, pos = _read_varint(buf, pos)
        limit, pos = _read_varint(buf, pos)
        return StreamDataBlockedFrame(stream_id=stream_id, limit=limit), pos
    if ftype == FRAME_NEW_CONNECTION_ID:
        sequence, pos = _read_varint(buf, pos)
        retire, pos = _read_varint(buf, pos)
        cid_len, pos = _read_bytes(buf, pos, 1)
        cid, pos = _read_bytes(buf, pos, cid_len[0])
        token, pos = _read_bytes(buf, pos, 16)
        return NewConnectionIdFrame(sequence, retire, cid, token), pos
    if ftype in (FRAME_CONNECTION_CLOSE, FRAME_CONNECTION_CLOSE_APP):
        error_code, pos = _read_varint(buf, pos)
        trigger = None
        if ftype == FRAME_CONNECTION_CLOSE:
            trigger, pos = _read_varint(buf, pos)
        reason_len, pos = _read_varint(buf, pos)
        reason, pos = _read_bytes(buf, pos, reason_len)
        return ConnectionCloseFrame(error_code, trigger, reason.decode("utf-8", "replace")), pos
    if ftype == FRAME_HANDSHAKE_DONE:
        return HandshakeDoneFrame(), pos
    raise ParseError(f"unknown frame type 0x{ftype:02x}", offset=pos - 1)


def _parse_ack(buf: bytes, pos: int, ecn: bool) -> tuple[AckFrame, int]:
    largest, pos = _read_varint(buf, pos)
    delay, pos = _read_varint(buf, pos)
    count, pos = _read_varint(buf, pos)
    first_range, pos = _read_varint(buf, pos)
    ranges = []
    for _ in range(count):
        gap, pos = _read_varint(buf, pos)
        length, pos = _read_varint(buf, pos)
        ranges.append((gap, length))
    ecn_counts = None
    if ecn:
        ect0, pos = _read_varint(buf, pos)
        ect1, pos = _read_varint(buf, pos)
        ce, pos = _read_varint(buf, pos)
        ecn_counts = (ect0, ect1, ce)
    frame = AckFrame(
        largest_acked=largest,
        ack_delay=delay,
        first_range=first_range,
        ranges=ranges,
        ecn_counts=ecn_counts,
    )
    frame.range_sanity_error = len(frame.decoded_ranges()) != len(ranges) + 1
    return frame, pos


def _parse_stream(buf: bytes, pos: int, ftype: int) -> tuple[StreamFrame, int]:
    has_offset = bool(ftype & 0x04)
    has_length = bool(ftype & 0x02)
    fin = bool(ftype & 0x01)
    stream_id, pos = _read_varint(buf, pos)
    offset = 0
    if has_offset:
        offset, pos = _read_varint(buf, pos)
    if has_length:
        length, pos = _read_varint(buf, pos)
        data, pos = _read_bytes(buf, pos, length)
    else:
        data, pos = buf[pos:], len(buf)
    return StreamFrame(stream_id=stream_id, offset=offset, data=data, fin=fin), pos


def serialize_frames(frames: list[Frame]) -> bytes:
    """Serialize a non-empty frame list into a packet payload."""
    if not frames:
        raise SerializeError("a packet must carry at least one frame")
    return b"".join(serialize_frame(f) for f in frames)


def serialize_frame(frame: Frame) -> bytes:
    if isinstance(frame, PaddingFrame):
        if frame.count < 1:
            raise SerializeError("PADDING count must be >= 1")
        return b"\x00" * frame.count
    if isinstance(frame, PingFrame):
        return bytes([FRAME_PING])
    if isinstance(frame, AckFrame):
        out = bytearray()
        out += encode_varint(FRAME_ACK_ECN if frame.ecn_counts else FRAME_ACK)
        out += encode_varint(frame.largest_acked)
        out += encode_varint(frame.ack_delay)
        out += encode_varint(len(frame.ranges))
        out += encode_varint(frame.first_range)
        for gap, length in frame.ranges:
            out += encode_varint(gap)
            out += encode_varint(length)
        if frame.ecn_counts:
            for n in frame.ecn_counts:
                out += encode_varint(n)
        return bytes(out)
    if isinstance(frame, CryptoFrame):
        return (
            encode_varint(FRAME_CRYPTO)
            + encode_varint(frame.offset)
            + encode_varint(len(frame.data))
            + frame.data
        )
    if isinstance(frame, StreamFrame):
        if frame.is_empty_non_fin:
            raise SerializeError("refusing to serialize an empty non-fin STREAM frame")
        ftype = FRAME_STREAM_BASE | 0x02  # explicit length, deterministic layout
        if frame.offset:
            ftype |= 0x04
        if frame.fin:
            ftype |= 0x01
        out = encode_varint(ftype) + encode_varint(frame.stream_id)
        if frame.offset:
            out += encode_varint(frame.offset)
        out += encode_varint(len(frame.data)) + frame.data
        return out
    if isinstance(frame, MaxDataFrame):
        return encode_varint(FRAME_MAX_DATA) + encode_varint(frame.max_data)
    if isinstance(frame, MaxStreamDataFrame):
        return (
            encode_varint(FRAME_MAX_STREAM_DATA)
            + encode_varint(frame.stream_id)
            + encode_varint(frame.max_stream_data)
        )
    if isinstance(frame, StreamDataBlockedFrame):
        return (
            encode_varint(FRAME_STREAM_DATA_BLOCKED)
            + encode_varint(frame.stream_id)
            + encode_varint(frame.limit)
        )
    if isinstance(frame, NewConnectionIdFrame):
        if len(frame.reset_token) != 16:
            raise SerializeError("reset token must be 16 bytes")
        if not 1 <= len(frame.connection_id) <= 20:
            raise SerializeError("NEW_CONNECTION_ID cid must be 1-20 bytes")
        return (
            encode_varint(FRAME_NEW_CONNECTION_ID)
            + encode_varint(frame.sequence)
            + encode_varint(frame.retire_prior_to)
            + bytes([len(frame.connection_id)])
            + frame.connection_id
            + frame.reset_token
        )
    if isinstance(frame, ConnectionCloseFrame):
        reason = frame.reason.encode("utf-8")
        if frame.frame_type is None:
            out = encode_varint(FRAME_CONNECTION_CLOSE_APP) + encode_varint(frame.error_code)
        else:
            out = (
                encode_varint(FRAME_CONNECTION_CLOSE)
                + encode_varint(frame.error_code)
                + encode_varint(frame.frame_type)
            )
        return out + encode_varint(len(reason)) + reason
    if isinstance(frame, HandshakeDoneFrame):
        return bytes([FRAME_HANDSHAKE_DONE])
    raise SerializeError(f"cannot serialize {type(frame).__name__}")
