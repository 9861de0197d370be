"""Minimal QUIC version 1 responder with an injectable fault matrix.

Compliant mode covers exactly the scenario surface: version negotiation
for unknown versions, the scripted 1-RTT exchange, flow-control-bounded
responses to plain GET requests, reordered stream openings and 0-RTT.
It deliberately runs its own small state machine rather than the client
agent framework, so the two sides cannot mask each other's bugs; the
dissector cross-checks bytes independently. Many connections at once,
one per client address: a fresh client hello replaces only the
connection of its own address. Optionally it answers client hellos with
Retry while it is busy, as servers under load do.
"""

from __future__ import annotations

import hashlib
import select
import socket
import threading
import time
from dataclasses import dataclass, field

from ..protection import (
    SPACE_FOR_LEVEL,
    DecryptError,
    EncryptionLevel,
    cleartext_packet_bytes,
    derive_initial_keys,
    protect,
    retry_integrity_tag,
    unprotect,
)
from ..protection.provider import DEFAULT_PROVIDER_SEED, NullHandshakeProvider
from ..wire import (
    QUIC_V1,
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PacketHeader,
    PacketType,
    PaddingFrame,
    ParseError,
    StreamDataBlockedFrame,
    StreamFrame,
    TransportParameters,
    decode_varint,
    encode_transport_parameters,
    encode_varint,
    is_ack_eliciting,
    lenient_decode_tp,
    parse_frames,
    serialize_frames,
    serialize_header,
)
from ..wire.transport_params import (
    TP_INITIAL_MAX_DATA,
    TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL,
    TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE,
    TP_INITIAL_MAX_STREAMS_BIDI,
    TP_MAX_IDLE_TIMEOUT,
)
from ..conn.agents import build_ack
from ..conn.streams import StreamRecv
from .faults import BLOCKED_FRAME_COUNT, PRE_VALIDATION_BYTES, FaultSpec

SERVER_PN_LENGTH = 2
RESPONSE_CHUNK = 900
RETRY_TOKEN_PREFIX = b"faultsrv-retry:"  # followed by the client's first dcid


def server_scid(seed: int) -> bytes:
    """The connection id every connection of a server with ``seed`` uses."""
    return hashlib.sha256(b"faultsrv-scid:%d" % seed).digest()[:8]


def default_body(size: int = 160) -> bytes:
    """An HTML-ish body of exactly ``size`` bytes (needs >= 14)."""
    head, tail = b"<html>", b"</html>"
    filler = size - len(head) - len(tail)
    if filler < 0:
        raise ValueError("body size too small")
    return head + b"x" * filler + b"</html>"


def default_transport_parameters() -> TransportParameters:
    tp = TransportParameters()
    tp.set_int(TP_MAX_IDLE_TIMEOUT, 30_000)
    tp.set_int(TP_INITIAL_MAX_DATA, 65_536)
    tp.set_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE, 65_536)
    tp.set_int(TP_INITIAL_MAX_STREAMS_BIDI, 16)
    tp.entries[0x0BF9] = b"\x2a"  # unknown id, exercises client passthrough
    return tp


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 picks an ephemeral port
    seed: int = DEFAULT_PROVIDER_SEED
    resources: dict[str, bytes] = field(default_factory=lambda: {"/index.html": default_body()})
    transport_parameters: TransportParameters | None = None
    fault: FaultSpec = field(default_factory=FaultSpec)
    # answer a client hello that carries no token of ours with Retry while
    # this many handshakes are in progress; None never sends Retry
    retry_above: int | None = None

    def __post_init__(self):
        index = self.resources.get("/index.html")
        if index is not None and len(index) < 160:
            raise ValueError("/index.html body must be at least 160 bytes")


class _ServerStream:
    def __init__(self, stream_id: int, limit: int):
        self.stream_id = stream_id
        self.recv = StreamRecv()
        self.touched = False
        self.responded = False
        self.body = b""
        self.sent_offset = 0
        self.fin_sent = False
        self.limit = limit
        self.blocked_at: set[int] = set()
        self.first_chunk_sent = False


class _Space:
    def __init__(self):
        self.next_pn = 0
        self.largest_received = -1
        self.received: set[int] = set()


class _ServerConn:
    """State machine for one client connection."""

    def __init__(self, server: "FaultServer", addr, original_dcid: bytes, client_scid: bytes):
        self.server = server
        self.config = server.config
        self.fault = server.config.fault
        self.addr = addr
        self.client_scid = client_scid
        self.scid = server_scid(self.config.seed)
        self.last_seen = time.monotonic()

        client_km, server_km = derive_initial_keys(original_dcid)
        self.keys = {
            (EncryptionLevel.INITIAL, "client"): client_km,
            (EncryptionLevel.INITIAL, "server"): server_km,
        }
        self.provider = NullHandshakeProvider(
            seed=self.config.seed,
            is_client=False,
            local_tp=server.tp_blob,
            issue_tickets=not self.fault.active("no_ticket"),
            accept_early_data=not self.fault.active("reject_0rtt"),
        )
        self.spaces = {"initial": _Space(), "handshake": _Space(), "application": _Space()}
        self.crypto: dict[EncryptionLevel, StreamRecv] = {}
        self.crypto_consumed: dict[EncryptionLevel, int] = {}
        self.streams: dict[int, _ServerStream] = {}
        self.peer_tp: TransportParameters | None = None

        self.validated = False
        self.bytes_received = 0
        self.bytes_sent = 0
        self.conn_limit = 0
        self.conn_sent = 0
        self.livelocked = False
        self.closed = False
        self.handshake_done_sent = False

        self.pending: list[list] = []  # [level, frames, raw_prefix]
        self.deferred: list[bytes] = []

    # -- receive ---------------------------------------------------------

    def handle_datagram(self, data: bytes, level: EncryptionLevel) -> None:
        self.bytes_received += len(data)
        self.last_seen = time.monotonic()
        if self.livelocked:
            return
        keys = self.keys.get((level, "client"))
        if keys is None:
            return  # e.g. 0-RTT while not accepting early data
        space = self.spaces[SPACE_FOR_LEVEL[level]]
        try:
            header, plaintext = unprotect(
                data, keys, largest_pn=space.largest_received, short_dcid_len=len(self.scid)
            )
        except (DecryptError, ParseError):
            return
        was_largest = space.largest_received
        space.received.add(header.packet_number)
        space.largest_received = max(space.largest_received, header.packet_number)
        if level in (EncryptionLevel.HANDSHAKE, EncryptionLevel.ONE_RTT) and not self.validated:
            self.validated = True
            self._flush_deferred()
        try:
            frames = parse_frames(plaintext)
        except ParseError:
            return

        for frame in frames:
            self._handle_frame(level, frame)
            if self.livelocked:
                self.pending.clear()
                return

        if is_ack_eliciting(frames):
            ack_level = EncryptionLevel.ONE_RTT if level is EncryptionLevel.ZERO_RTT else level
            if (
                self.fault.active("ack_gap_overflow")
                and 0 <= header.packet_number < was_largest
            ):
                buggy = AckFrame(
                    largest_acked=space.largest_received,
                    ack_delay=0,
                    first_range=0,
                    # a gap this large walks the ranges below zero: the
                    # "absurd number of missing packets" bug
                    ranges=[((1 << 62) - 1, 0)],
                )
                self.queue_frames(ack_level, [buggy])
            else:
                self.queue_frames(ack_level, [build_ack(space.received)])
        self.flush()

    def _handle_frame(self, level: EncryptionLevel, frame) -> None:
        if isinstance(frame, CryptoFrame):
            self._handle_crypto(level, frame)
        elif isinstance(frame, StreamFrame):
            self._handle_stream(level, frame)
        elif isinstance(frame, MaxStreamDataFrame):
            stream = self._stream(frame.stream_id)
            stream.limit = max(stream.limit, frame.max_stream_data)
            self._pump_stream(stream)
        elif isinstance(frame, MaxDataFrame):
            self.conn_limit = max(self.conn_limit, frame.max_data)
            for stream in self.streams.values():
                self._pump_stream(stream)
        elif isinstance(frame, ConnectionCloseFrame):
            self.closed = True

    def _handle_crypto(self, level: EncryptionLevel, frame: CryptoFrame) -> None:
        recv = self.crypto.setdefault(level, StreamRecv())
        recv.add(frame.offset, frame.data, fin=False)
        done = self.crypto_consumed.get(level, 0)
        fresh = recv.delivered[done:]
        if not fresh:
            return
        self.crypto_consumed[level] = len(recv.delivered)
        had_ch = self.provider.peer_tp_raw is not None
        outputs = self.provider.consume(level, fresh)
        for km in self.provider.exported_secrets():
            self.keys.setdefault((km.level, km.direction), km)
        for out_level, data in outputs:
            if self.fault.active("stall_after_sh") and out_level is EncryptionLevel.HANDSHAKE:
                continue  # hello goes out, the handshake flight never does
            self.queue_frames(out_level, [CryptoFrame(offset=0, data=data)])
        if not had_ch and self.provider.peer_tp_raw is not None:
            self.peer_tp = lenient_decode_tp(self.provider.peer_tp_raw)
            self.conn_limit = self.peer_tp.initial_max_data or (1 << 30)
            if self.fault.active("no_amplification_limit"):
                remaining = PRE_VALIDATION_BYTES
                while remaining > 0:
                    size = min(1200, remaining)
                    self.pending.append([EncryptionLevel.HANDSHAKE, [PaddingFrame(size)], b""])
                    remaining -= size
        if self.provider.handshake_complete and not self.handshake_done_sent:
            self.handshake_done_sent = True
            self.queue_frames(EncryptionLevel.ONE_RTT, [HandshakeDoneFrame()])

    def _stream_limit(self) -> int:
        # data we send on a client-initiated bidi stream is capped by the
        # client's "local bidi" parameter
        if self.peer_tp is None:
            return 0
        limit = self.peer_tp.get_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL)
        return (1 << 30) if limit is None else limit

    def _stream(self, stream_id: int) -> _ServerStream:
        stream = self.streams.get(stream_id)
        if stream is None:
            stream = _ServerStream(stream_id, self._stream_limit())
            self.streams[stream_id] = stream
        return stream

    def _handle_stream(self, level: EncryptionLevel, frame: StreamFrame) -> None:
        stream = self._stream(frame.stream_id)
        if self.fault.active("reorder_livelock") and not stream.touched and frame.offset > 0:
            self.livelocked = True
            return
        stream.touched = True
        stream.recv.add(frame.offset, frame.data, frame.fin)
        if not stream.responded and b"\r\n" in stream.recv.delivered:
            line = stream.recv.delivered.split(b"\r\n", 1)[0]
            if line.startswith(b"GET "):
                path = line[4:].decode("utf-8", "replace").strip()
                stream.body = self.config.resources.get(path, b"")
                stream.responded = True
                self._pump_stream(stream)

    def _pump_stream(self, stream: _ServerStream) -> None:
        if not stream.responded or stream.fin_sent:
            return
        limit = (1 << 62) - 1 if self.fault.active("ignore_stream_limit") else stream.limit
        duplicate_second_half = (
            self.fault.active("stream_blocked_spam") and stream.sent_offset > 0
        )
        while stream.sent_offset < len(stream.body):
            room = min(
                limit - stream.sent_offset,
                self.conn_limit - self.conn_sent,
                len(stream.body) - stream.sent_offset,
                RESPONSE_CHUNK,
            )
            if room <= 0:
                break
            chunk = stream.body[stream.sent_offset : stream.sent_offset + room]
            fin = stream.sent_offset + room >= len(stream.body)
            out = StreamFrame(
                stream_id=stream.stream_id, offset=stream.sent_offset, data=chunk, fin=fin
            )
            raw = b""
            if self.fault.active("empty_stream_frames") and not stream.first_chunk_sent:
                # zero-length non-fin STREAM frame (type 0x0a: LEN, no OFF/FIN),
                # hand-encoded because the serializer refuses to emit it
                raw = bytes([0x0A]) + encode_varint(stream.stream_id) + encode_varint(0)
            stream.first_chunk_sent = True
            self.pending.append([EncryptionLevel.ONE_RTT, [out], raw])
            if duplicate_second_half:
                self.pending.append([EncryptionLevel.ONE_RTT, [out], b""])
            stream.sent_offset += room
            self.conn_sent += room
            stream.fin_sent = fin
        if (
            stream.sent_offset < len(stream.body)
            and stream.sent_offset >= limit
            and limit not in stream.blocked_at
        ):
            stream.blocked_at.add(limit)
            count = BLOCKED_FRAME_COUNT if self.fault.active("stream_blocked_spam") else 1
            blocked = [
                StreamDataBlockedFrame(stream_id=stream.stream_id, limit=limit)
                for _ in range(count)
            ]
            self.queue_frames(EncryptionLevel.ONE_RTT, blocked)

    # -- send ---------------------------------------------------------------

    def queue_frames(self, level: EncryptionLevel, frames: list, raw: bytes = b"") -> None:
        for entry in self.pending:
            if entry[0] is level and not entry[2] and len(entry[1]) + len(frames) <= 12:
                entry[1].extend(frames)
                return
        self.pending.append([level, list(frames), raw])

    def flush(self) -> None:
        pending, self.pending = self.pending, []
        for level, frames, raw in pending:
            keys = self.keys.get((level, "server"))
            if keys is None:
                continue
            space = self.spaces[SPACE_FOR_LEVEL[level]]
            pn = space.next_pn
            space.next_pn += 1
            payload = raw + (serialize_frames(frames) if frames else b"")
            if len(payload) < 4 - SERVER_PN_LENGTH:
                payload += b"\x00" * (4 - SERVER_PN_LENGTH - len(payload))
            if level is EncryptionLevel.ONE_RTT:
                header = PacketHeader(
                    packet_type=PacketType.ONE_RTT,
                    dcid=self.client_scid,
                    packet_number=pn,
                    pn_length=SERVER_PN_LENGTH,
                )
            else:
                header = PacketHeader(
                    packet_type=(
                        PacketType.INITIAL
                        if level is EncryptionLevel.INITIAL
                        else PacketType.HANDSHAKE
                    ),
                    version=QUIC_V1,
                    dcid=self.client_scid,
                    scid=self.scid,
                    packet_number=pn,
                    pn_length=SERVER_PN_LENGTH,
                )
            packet = bytearray(protect(header, payload, keys))
            corrupted = False
            if (
                self.fault.active("bad_1rtt_protection")
                and level is EncryptionLevel.ONE_RTT
                and not raw
                and not any(isinstance(f, (StreamFrame, CryptoFrame)) for f in frames)
            ):
                packet[-1] ^= 0xFF
                corrupted = True
            self.server.log_sent(level, cleartext_packet_bytes(header, payload), corrupted)
            self._send_datagram(bytes(packet))

    def _send_datagram(self, datagram: bytes) -> None:
        gate_off = self.fault.active("no_amplification_limit")
        if not self.validated and not gate_off:
            if self.bytes_sent + len(datagram) > 3 * self.bytes_received:
                self.deferred.append(datagram)
                return
        self.bytes_sent += len(datagram)
        self.server.sendto(datagram, self.addr)

    def _flush_deferred(self) -> None:
        deferred, self.deferred = self.deferred, []
        for datagram in deferred:
            self.bytes_sent += len(datagram)
            self.server.sendto(datagram, self.addr)


def _peek_long_header(data: bytes) -> tuple[int, bytes, bytes] | None:
    """(version, dcid, scid) read with the version-invariant layout."""
    if len(data) < 7:
        return None
    version = int.from_bytes(data[1:5], "big")
    pos = 5
    dcid_len = data[pos]
    pos += 1
    if pos + dcid_len + 1 > len(data):
        return None
    dcid = data[pos : pos + dcid_len]
    pos += dcid_len
    scid_len = data[pos]
    pos += 1
    if pos + scid_len > len(data):
        return None
    scid = data[pos : pos + scid_len]
    return version, dcid, scid


def _initial_token(data: bytes, dcid: bytes, scid: bytes) -> bytes:
    """The token of a long-header Initial whose cids were peeked."""
    pos = 7 + len(dcid) + len(scid)
    try:
        length, used, _ = decode_varint(data, pos)
    except ParseError:
        return b""
    return data[pos + used : pos + used + length]


class FaultServer:
    """Runs the responder in a background thread that sleeps until a
    datagram arrives or stop() wakes it."""

    def __init__(self, config: ServerConfig):
        self.config = config
        tp = config.transport_parameters
        if tp is None:
            tp = default_transport_parameters()
        self.tp_blob = encode_transport_parameters(tp)
        idle_ms = tp.get_int(TP_MAX_IDLE_TIMEOUT)
        self.idle_timeout_s = idle_ms / 1000 if idle_ms else None
        if config.fault.active("tp_duplicate"):
            self.tp_blob += (
                encode_varint(0x04) + encode_varint(len(encode_varint(65_536))) + encode_varint(65_536)
            )
        self.sock: socket.socket | None = None
        # keyed by client address, not by connection ID: every _ServerConn
        # takes the same SCID from the seed (RFC 9000 section 5.2 matching)
        self.conns: dict[tuple, _ServerConn] = {}
        self.sent_log: list[dict] = []
        self.errors: list[str] = []  # handler exceptions, one repr each
        self._thread: threading.Thread | None = None
        # (read end, write end): one byte written to it ends the read loop
        self._wake: tuple[socket.socket, socket.socket] | None = None
        self._lock = threading.Lock()

    @property
    def port(self) -> int:
        assert self.sock is not None
        return self.sock.getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    def start(self) -> "FaultServer":
        info = socket.getaddrinfo(
            self.config.host, self.config.port, type=socket.SOCK_DGRAM, flags=socket.AI_PASSIVE
        )
        family, socktype, proto, _, addr = info[0]
        self.sock = socket.socket(family, socktype, proto)
        try:
            self.sock.bind(addr)
        except OSError:
            self.sock.close()
            self.sock = None
            raise
        self.sock.setblocking(False)
        self._wake = socket.socketpair()
        self._thread = threading.Thread(target=self._run, name="faultsrv", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._wake is None:
            return
        self._wake[1].send(b"\x00")
        self._thread.join(timeout=2)
        self._thread = None
        for sock in (self.sock, *self._wake):
            sock.close()
        self.sock = self._wake = None

    def __enter__(self) -> "FaultServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def sendto(self, datagram: bytes, addr) -> None:
        if self.sock is not None:
            try:
                self.sock.sendto(datagram, addr)
            except OSError:
                pass

    def log_sent(self, level: EncryptionLevel, cleartext: bytes, corrupted: bool) -> None:
        with self._lock:
            self.sent_log.append(
                {"level": level.label, "cleartext_hex": cleartext.hex(), "corrupted": corrupted}
            )

    def _run(self) -> None:
        wake = self._wake[0]
        while True:
            readable, _, _ = select.select([self.sock, wake], [], [])
            if wake in readable:
                return
            while True:
                try:
                    data, addr = self.sock.recvfrom(65535)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    return
                try:
                    self._handle_datagram(data, addr)
                except Exception as exc:  # a handling bug must not kill the server
                    self.errors.append(repr(exc))

    def _handle_datagram(self, data: bytes, addr) -> None:
        if not data:
            return
        first = data[0]
        if first & 0x80:
            peeked = _peek_long_header(data)
            if peeked is None:
                return
            version, dcid, scid = peeked
            if version != QUIC_V1:
                self._answer_version_negotiation(version, dcid, scid, addr)
                return
            packet_type = (first & 0x30) >> 4
            if packet_type == 0:  # initial
                conn = self.conns.get(addr)
                if conn is None or conn.client_scid != scid:
                    if self._answer_retry(data, dcid, scid, addr):
                        return
                    self._drop_idle()
                    self.conns[addr] = _ServerConn(self, addr, original_dcid=dcid, client_scid=scid)
                level = EncryptionLevel.INITIAL
            else:
                level = EncryptionLevel.ZERO_RTT if packet_type == 1 else EncryptionLevel.HANDSHAKE
        else:
            level = EncryptionLevel.ONE_RTT
        conn = self.conns.get(addr)
        if conn is None:
            return
        conn.handle_datagram(data, level)
        if conn.closed:
            del self.conns[addr]

    def _drop_idle(self) -> None:
        """Forget connections silent for longer than the advertised idle
        timeout: a client that went away without a close, or whose close
        was lost or ignored, leaves its entry behind."""
        if self.idle_timeout_s is None:
            return
        now = time.monotonic()
        for addr in [a for a, c in self.conns.items() if now - c.last_seen > self.idle_timeout_s]:
            del self.conns[addr]

    def _answer_retry(self, data: bytes, dcid: bytes, scid: bytes, addr) -> bool:
        """Send Retry instead of starting a connection, if the server is
        busy and the client hello carries no token of ours."""
        limit = self.config.retry_above
        if limit is None or _initial_token(data, dcid, scid).startswith(RETRY_TOKEN_PREFIX):
            return False
        if sum(1 for c in self.conns.values() if not c.provider.handshake_complete) < limit:
            return False
        header = PacketHeader(
            packet_type=PacketType.RETRY,
            dcid=scid,
            scid=server_scid(self.config.seed),
            token=RETRY_TOKEN_PREFIX + dcid,
        )
        body = serialize_header(header)
        datagram = body + retry_integrity_tag(body, dcid)
        self.log_sent(EncryptionLevel.INITIAL, datagram, corrupted=False)
        self.sendto(datagram, addr)
        return True

    def _answer_version_negotiation(self, version: int, dcid: bytes, scid: bytes, addr) -> None:
        fault = self.config.fault
        if fault.active("vn_silent"):
            return
        versions = [version, QUIC_V1] if fault.active("vn_echo_reserved") else [QUIC_V1]
        header = PacketHeader(
            packet_type=PacketType.VERSION_NEGOTIATION,
            dcid=scid,  # echo the client's cids, swapped
            scid=dcid,
            supported_versions=versions,
        )
        datagram = serialize_header(header)
        self.log_sent(EncryptionLevel.INITIAL, datagram, corrupted=False)
        self.sendto(datagram, addr)


def serve(config: ServerConfig) -> FaultServer:
    """Start a server; the handle's stop() interrupts its read loop."""
    return FaultServer(config).start()
