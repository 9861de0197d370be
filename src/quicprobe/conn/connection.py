"""Per-connection event bus, packet spaces and the client send path.

One connection is one scenario execution: single-threaded, sequential
dispatch, agents invoked in a fixed order so traces are reproducible.
"""

from __future__ import annotations

import os
import select
import socket
import time
import typing
from dataclasses import dataclass, field
from enum import Enum

from ..protection import (
    EncryptionLevel,
    KeyMaterial,
    PACKET_TYPE_FOR_LEVEL,
    SPACE_FOR_LEVEL,
    cleartext_packet_bytes,
    derive_initial_keys,
    packet_number_length,
    protect,
)
from ..wire import (
    QUIC_V1,
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    MaxStreamDataFrame,
    PacketHeader,
    PaddingFrame,
    StreamFrame,
    TransportParameters,
    encode_varint,
    is_ack_eliciting,
    serialize_frames,
)
from ..wire.transport_params import TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE
from .events import Event, PacketSent, Timeout
from .streams import FlowControlAssertion, StreamState

MAX_DATAGRAM_SIZE = 1252
INITIAL_DATAGRAM_MIN = 1200
RETRANSMISSION_TIMER_MS = 500

# fixed dispatch order, so event handling is reproducible
AGENT_ORDER = (
    "parser",
    "tls",
    "ack",
    "flow_control",
    "handshake",
    "retransmission",
    "bundler",
    "closing",
)
FULL_ROSTER = frozenset(AGENT_ORDER)


class PrerequisiteError(Exception):
    """The connection could not even be attempted (maps to trace Error)."""


class HandshakeStage(Enum):
    NO_RESPONSE = "no_response"
    VERSION_MISMATCH = "version_mismatch"
    INCOMPLETE = "handshake_incomplete"


@dataclass
class SentPacket:
    frames: list[Frame]
    sent_at: float
    ack_eliciting: bool
    level: EncryptionLevel


@dataclass
class PacketSpace:
    next_pn: int = 0
    largest_acked: int = -1
    largest_received: int = -1
    received: set[int] = field(default_factory=set)
    sent: dict[int, SentPacket] = field(default_factory=dict)


class Connection:
    """Client-side QUIC connection driven by a roster of agents."""

    def __init__(
        self,
        host: str,
        port: int,
        provider,
        trace,
        roster: frozenset[str] | set[str] = FULL_ROSTER,
        version: int = QUIC_V1,
        assumed_peer_tp: TransportParameters | None = None,
        hold_client_finished: bool = False,
    ):
        self.host = host
        self.port = port
        self.provider = provider
        self.roster = frozenset(roster)
        self.trace = trace
        self.version = version

        self.original_dcid = os.urandom(8)
        self.dcid = self.original_dcid
        self.scid = os.urandom(8)
        self._server_cid_seen = False
        self.retry_token = b""  # from the server's Retry, sent in every later Initial

        self.spaces = {
            "initial": PacketSpace(),
            "handshake": PacketSpace(),
            "application": PacketSpace(),
        }
        self.keys: dict[tuple[EncryptionLevel, str], KeyMaterial] = {}
        self.queues: dict[EncryptionLevel, list[Frame]] = {level: [] for level in EncryptionLevel}
        self.streams: dict[int, StreamState] = {}
        self.retransmit_at: float | None = None  # monotonic deadline of the one timer

        self._bus: list[Event] = []
        self._agents: dict[str, object] = {}  # the roster's agents, in AGENT_ORDER
        self._subscribers: dict[type, list] = {}  # event type -> its agents, in order
        self._held_crypto: list[tuple[EncryptionLevel, bytes]] = []
        self._crypto_offsets: dict[EncryptionLevel, int] = {}

        self.sock: socket.socket | None = None
        self.closed = False
        self.close_received: tuple[int, str] | None = None

        # connection-level flow control (what the peer lets us send)
        self.peer_tp: TransportParameters | None = None
        self.peer_tp_error: str | None = None
        self.connection_send_limit = 0
        self.connection_bytes_sent = 0
        if assumed_peer_tp is not None:
            self.apply_peer_tp(assumed_peer_tp)

        self.hold_client_finished = hold_client_finished
        self.handshake_complete = False
        self.client_finished_sent = False

        # observations scenarios read back
        self.bytes_received = 0
        self.bytes_sent = 0
        self.port_refused = False  # the peer's host answered port unreachable
        self.decrypt_failures: dict[EncryptionLevel, int] = {}
        self.version_negotiation: PacketHeader | None = None
        self.malformed_version_negotiation: str | None = None
        self.empty_stream_frames_received = 0
        self.blocked_frames_received = 0
        self.flagged_acks_received = 0
        self.agent_errors: list[tuple[str, str]] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Build the roster's agents, bind the socket and let the agents
        take their first actions."""
        from .agents import AGENT_TYPES

        unknown = self.roster - FULL_ROSTER
        if unknown:
            raise ValueError(f"unknown agents: {sorted(unknown)}")
        self._agents = {name: AGENT_TYPES[name]() for name in AGENT_ORDER if name in self.roster}
        self._subscribers = {
            event_type: [a for a in self._agents.values() if issubclass(event_type, a.subscriptions)]
            for event_type in typing.get_args(Event)
        }
        try:
            info = socket.getaddrinfo(self.host, self.port, type=socket.SOCK_DGRAM)
        except socket.gaierror as exc:
            raise PrerequisiteError(f"cannot resolve {self.host}: {exc}")
        family, socktype, proto, _, addr = info[0]
        try:
            self.sock = socket.socket(family, socktype, proto)
            self.sock.connect(addr)
            self.sock.setblocking(False)
        except OSError as exc:
            raise PrerequisiteError(f"cannot open socket to {self.host}:{self.port}: {exc}")

        # probes offering an unknown version still protect their Initial with
        # v1 keys; the server must answer from the header alone
        client_keys, server_keys = derive_initial_keys(self.original_dcid, version=QUIC_V1)
        self.keys[(EncryptionLevel.INITIAL, "client")] = client_keys
        self.keys[(EncryptionLevel.INITIAL, "server")] = server_keys

        for agent in self._agents.values():
            self._run_handler(agent.name, agent.start, self)
        self._flush()

    def stop(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    # -- event bus ------------------------------------------------------

    def emit(self, event: Event) -> None:
        self._bus.append(event)

    def dispatch(self, event: Event) -> None:
        """Run every agent subscribed to the event's type on it, in the
        fixed order. A failing handler is isolated and recorded; dispatch
        continues."""
        for agent in self._subscribers[type(event)]:
            self._run_handler(agent.name, agent.handle, self, event)

    def _run_handler(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except FlowControlAssertion:
            raise
        except Exception as exc:  # isolate the failing agent
            self.agent_errors.append((name, repr(exc)))
            self.trace.note("agent_error", {"agent": name, "error": repr(exc)})

    def _drain_bus(self) -> None:
        while self._bus:
            event = self._bus.pop(0)
            self.dispatch(event)

    # -- pumping ----------------------------------------------------------

    def pump(self, wait: float = 0.05) -> None:
        """Send what is queued, wait up to ``wait`` seconds for datagrams,
        or less if the retransmission deadline falls sooner, then process
        events, the deadline and the send path until quiescent."""
        if self.sock is None:
            return
        # a deadline set by this send bounds the wait below
        self._flush()
        self._drain_bus()
        if self.retransmit_at is not None:
            wait = min(wait, self.retransmit_at - time.monotonic())
        readable, _, _ = select.select([self.sock], [], [], max(wait, 0))
        if readable:
            while True:
                try:
                    datagram = self.sock.recv(65535)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    # e.g. the ICMP port-unreachable answer to an earlier send
                    if isinstance(exc, ConnectionRefusedError):
                        self.port_refused = True
                    self.trace.note("socket_error", {"errno": exc.errno, "error": exc.strerror})
                    break
                if not datagram:
                    break
                self.bytes_received += len(datagram)
                parser = self._agents.get("parser")
                if parser is not None:
                    self._run_handler("parser", parser.datagram, self, datagram)
                # finish this datagram (e.g. install the keys it unlocked)
                # before parsing the next one
                self._drain_bus()
        self._drain_bus()
        self._check_deadline()
        self._drain_bus()
        self._flush()
        self._drain_bus()

    def run_until(self, predicate, timeout: float) -> bool:
        """Pump until ``predicate()`` holds or ``timeout`` seconds pass.
        Connection state changes only when a datagram arrives or the
        retransmission deadline passes, so each wait lasts until one of
        those or ``timeout``. A port that refused our datagrams and never
        answered ends the wait: nothing listens there to answer later."""
        deadline = time.monotonic() + timeout
        while True:
            if predicate():
                return True
            now = time.monotonic()
            if now >= deadline or (self.port_refused and self.bytes_received == 0):
                return bool(predicate())
            self.pump(deadline - now)

    def settle(self, seconds: float) -> None:
        """Pump for the whole window, however many datagrams arrive and
        whenever: a window in which a violating peer would keep sending."""
        self.run_until(lambda: False, seconds)

    def _check_deadline(self) -> None:
        if self.retransmit_at is not None and time.monotonic() >= self.retransmit_at:
            self.retransmit_at = None
            self.emit(Timeout())

    # -- keys -------------------------------------------------------------

    def install_key(self, km: KeyMaterial) -> bool:
        slot = (km.level, km.direction)
        if slot in self.keys:
            return False
        self.keys[slot] = km
        return True

    def send_keys(self, level: EncryptionLevel) -> KeyMaterial | None:
        return self.keys.get((level, "client"))

    def recv_keys(self, level: EncryptionLevel) -> KeyMaterial | None:
        if level is EncryptionLevel.ZERO_RTT:
            return None  # servers never send 0-RTT
        return self.keys.get((level, "server"))

    def follow_retry(self, scid: bytes, token: bytes) -> None:
        """Start over as the server's Retry asks (RFC 9000 section
        17.2.5.2): its connection id as destination, Initial keys derived
        from that id, its token in every later Initial, and the frames of
        every Initial and 0-RTT packet sent so far queued again, because
        the server kept none of them. Packet numbers go on."""
        self.dcid = scid
        self.retry_token = token
        client_keys, server_keys = derive_initial_keys(scid)
        self.keys[(EncryptionLevel.INITIAL, "client")] = client_keys
        self.keys[(EncryptionLevel.INITIAL, "server")] = server_keys
        for name in ("initial", "application"):
            space = self.spaces[name]
            self.requeue(space, list(space.sent))

    def requeue(self, space: PacketSpace, packet_numbers) -> None:
        """Forget these sent packets and queue their frames again at their
        own levels, all but ACK and PADDING, in packet-number order."""
        for pn in sorted(packet_numbers):
            packet = space.sent.pop(pn)
            self.queues[packet.level].extend(
                f for f in packet.frames if not isinstance(f, (AckFrame, PaddingFrame))
            )

    # -- send path ----------------------------------------------------------

    def space(self, level: EncryptionLevel) -> PacketSpace:
        return self.spaces[SPACE_FOR_LEVEL[level]]

    def queue_frame(self, level: EncryptionLevel, frame: Frame) -> None:
        self.queues[level].append(frame)

    def queue_crypto(self, level: EncryptionLevel, data: bytes, offset: int | None = None) -> None:
        start = offset if offset is not None else self._crypto_offsets.setdefault(level, 0)
        self.queues[level].append(CryptoFrame(offset=start, data=data))
        if offset is None:
            self._crypto_offsets[level] = start + len(data)

    def send_stream(
        self,
        stream_id: int,
        data: bytes,
        fin: bool = False,
        level: EncryptionLevel = EncryptionLevel.ONE_RTT,
    ) -> None:
        """Queue stream data, enforcing the peer-advertised limits."""
        stream = self.stream(stream_id)
        end = stream.send.offset + len(data)
        if end > stream.send.limit:
            raise FlowControlAssertion(
                f"stream {stream_id}: sending to offset {end} exceeds limit {stream.send.limit}"
            )
        if self.connection_bytes_sent + len(data) > self.connection_send_limit:
            raise FlowControlAssertion(
                f"connection: {self.connection_bytes_sent + len(data)} exceeds "
                f"limit {self.connection_send_limit}"
            )
        frame = StreamFrame(stream_id=stream_id, offset=stream.send.offset, data=data, fin=fin)
        stream.send.offset = end
        self.connection_bytes_sent += len(data)
        self.queue_frame(level, frame)

    def stream(self, stream_id: int) -> StreamState:
        state = self.streams.get(stream_id)
        if state is None:
            state = StreamState(stream_id=stream_id)
            state.send.limit = self._initial_send_limit(stream_id)
            self.streams[stream_id] = state
        return state

    def _initial_send_limit(self, stream_id: int) -> int:
        if self.peer_tp is None:
            return 0
        # client-initiated bidirectional streams: the server caps our
        # sending through its "remote bidi" parameter
        return self.peer_tp.get_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE) or 0

    def apply_peer_tp(self, tp: TransportParameters) -> None:
        self.peer_tp = tp
        self.connection_send_limit = max(self.connection_send_limit, tp.initial_max_data or 0)
        for stream in self.streams.values():
            stream.send.limit = max(stream.send.limit, self._initial_send_limit(stream.stream_id))

    def raise_stream_limit(self, stream_id: int, new_limit: int) -> None:
        self.queue_frame(
            EncryptionLevel.ONE_RTT,
            MaxStreamDataFrame(stream_id=stream_id, max_stream_data=new_limit),
        )

    @property
    def client_finished_ready(self) -> bool:
        """True once the held handshake finish is waiting for release."""
        return bool(self._held_crypto)

    def release_client_finished(self) -> None:
        self.hold_client_finished = False
        held, self._held_crypto = self._held_crypto, []
        for level, data in held:
            self.queue_crypto(level, data)
        self._flush()

    def close(self, error_code: int = 0, reason: str = "") -> None:
        if self.closed or self.sock is None:
            return
        level = EncryptionLevel.ONE_RTT
        if self.send_keys(level) is None:
            level = (
                EncryptionLevel.HANDSHAKE
                if self.send_keys(EncryptionLevel.HANDSHAKE)
                else EncryptionLevel.INITIAL
            )
        self.queues[level].append(
            ConnectionCloseFrame(error_code=error_code, frame_type=0, reason=reason)
        )
        self._flush()
        self.closed = True

    # -- packet construction ------------------------------------------------

    def _header_overhead(self, level: EncryptionLevel, pn_length: int) -> int:
        if level is EncryptionLevel.ONE_RTT:
            return 1 + len(self.dcid) + pn_length
        base = 1 + 4 + 1 + len(self.dcid) + 1 + len(self.scid) + 2 + pn_length
        if level is EncryptionLevel.INITIAL:
            base += len(encode_varint(len(self.retry_token))) + len(self.retry_token)
        return base

    def send_packet(
        self,
        level: EncryptionLevel,
        frames: list[Frame],
        packet_number: int | None = None,
    ) -> PacketSent:
        """Build, protect and transmit one packet immediately."""
        keys = self.send_keys(level)
        if keys is None:
            raise PrerequisiteError(f"no send keys at {level.label}")
        space = self.space(level)
        pn = space.next_pn if packet_number is None else packet_number
        space.next_pn = max(space.next_pn, pn + 1)
        pn_length = packet_number_length(pn, space.largest_acked)

        frames = list(frames)
        plaintext = serialize_frames(frames)
        min_payload = 4 - pn_length + 1  # header-protection sample reach
        if len(plaintext) < min_payload:
            frames.append(PaddingFrame(count=min_payload - len(plaintext)))
            plaintext = serialize_frames(frames)

        header = PacketHeader(
            packet_type=PACKET_TYPE_FOR_LEVEL[level],
            version=self.version,
            dcid=self.dcid,
            scid=self.scid if level is not EncryptionLevel.ONE_RTT else b"",
            token=self.retry_token,  # written in Initial headers only
            packet_number=pn,
            pn_length=pn_length,
        )
        packet = protect(header, plaintext, keys)
        self._sendto(packet)
        space.sent[pn] = SentPacket(
            frames=frames,
            sent_at=time.monotonic(),
            ack_eliciting=is_ack_eliciting(frames),
            level=level,
        )
        self.trace.log_packet(
            "tx", level.label, cleartext_packet_bytes(header, plaintext), len(self.dcid)
        )
        event = PacketSent(header=header, frames=frames, level=level)
        self.emit(event)
        return event

    def _sendto(self, datagram: bytes) -> None:
        if self.sock is None:
            raise PrerequisiteError("socket closed")
        self.sock.send(datagram)
        self.bytes_sent += len(datagram)

    def _flush(self) -> None:
        bundler = self._agents.get("bundler")
        if bundler is not None:
            self._run_handler("bundler", bundler.flush, self)

    # -- receive path ---------------------------------------------------------

    def record_received(self, level: EncryptionLevel, pn: int) -> None:
        space = self.space(level)
        space.received.add(pn)
        space.largest_received = max(space.largest_received, pn)

    def note_decrypt_failure(self, level: EncryptionLevel, raw: bytes) -> None:
        self.decrypt_failures[level] = self.decrypt_failures.get(level, 0) + 1
        self.trace.log_undecryptable(level.label, raw)


def perform_handshake(conn: Connection, timeout_s: float) -> HandshakeStage | None:
    """Drive the connection until the 1-RTT exchange finished and return
    None, or return the stage the handshake is stuck at. A complete
    handshake has both 1-RTT keys: the handshake agent waits for them."""
    conn.run_until(lambda: conn.handshake_complete or conn.closed, timeout_s)
    return None if conn.handshake_complete else unfinished_stage(conn)


def unfinished_stage(conn: Connection) -> HandshakeStage:
    """The stage a handshake that has not finished is stuck at."""
    if conn.version_negotiation is not None:
        return HandshakeStage.VERSION_MISMATCH
    if conn.bytes_received == 0:
        return HandshakeStage.NO_RESPONSE
    return HandshakeStage.INCOMPLETE
