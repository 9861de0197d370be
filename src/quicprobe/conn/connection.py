"""One client connection: its agents' hooks, packet spaces and send path.

One connection is one scenario execution. It never waits itself: each
wait is a generator step that ``drive`` resumes, so every connection of
a run shares the caller's thread. Each packet received, each packet sent
and the retransmission deadline call one hook on the roster's agents,
directly and in a fixed order, so traces are reproducible.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from enum import Enum

from ..protection import (
    EncryptionLevel,
    KeyMaterial,
    PACKET_TYPE_FOR_LEVEL,
    SPACE_FOR_LEVEL,
    derive_initial_keys,
    packet_number_length,
    seal_packet,
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
    ParseError,
    StreamFrame,
    TransportParameters,
    encode_varint,
    is_ack_eliciting,
    serialize_frames,
)
from ..wire.transport_params import TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE, TP_MAX_ACK_DELAY
from .agents import AGENT_ORDER, AGENT_TYPES, FULL_ROSTER, HOOKS, Agent, Packet
from .streams import FlowControlAssertion, StreamState

# RFC 9000 section 18.2: max_ack_delay when the peer announced none
DEFAULT_MAX_ACK_DELAY_MS = 25


class PrerequisiteError(Exception):
    """The connection could not even be attempted (maps to trace Error)."""


def resolve(host: str, port: int) -> tuple:
    """The first ``getaddrinfo`` entry for a UDP peer at ``host``:``port``;
    raises PrerequisiteError when the name does not resolve, including a
    name with a label that IDNA cannot encode."""
    try:
        return socket.getaddrinfo(host, port, type=socket.SOCK_DGRAM)[0]
    except (OSError, UnicodeError) as exc:
        raise PrerequisiteError(f"cannot resolve {host}: {exc}")


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
        address: tuple | None = None,
    ):
        self.host = host
        self.port = port
        self.address = address  # a ``resolve`` result; None resolves at start
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

        self._agents: dict[str, object] = {}  # the roster's agents, in AGENT_ORDER
        self._hooks: dict[str, list] = {}  # hook -> the agents that define it, in order
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
        self.first_sent_at: float | None = None  # monotonic
        self.last_received_at: float | None = None  # monotonic
        self.rtt: float | None = None  # first datagram sent to first received, seconds
        self.decrypt_failures: dict[EncryptionLevel, int] = {}
        self.version_negotiation: PacketHeader | None = None
        self.malformed_version_negotiation: str | None = None
        self.empty_stream_frames_received = 0
        self.blocked_frames_received = 0
        self.flagged_acks_received = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Build the roster's agents, bind the socket and let the agents
        take their first actions."""
        unknown = self.roster - FULL_ROSTER
        if unknown:
            raise ValueError(f"unknown agents: {sorted(unknown)}")
        self._agents = {name: AGENT_TYPES[name]() for name in AGENT_ORDER if name in self.roster}
        # a hook runs only on the agents whose class overrides it
        agents = self._agents.values()
        self._hooks = {
            hook: [a for a in agents if getattr(type(a), hook) is not getattr(Agent, hook)]
            for hook in HOOKS
        }
        if self.address is None:
            self.address = resolve(self.host, self.port)
        family, socktype, proto, _, addr = self.address
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

        self.run_hook("start")
        self._flush()

    def stop(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    # -- agents -----------------------------------------------------------

    def run_hook(self, hook: str, *args) -> None:
        """Call ``hook`` on every roster agent that defines it, in the
        fixed order. A failing agent is isolated and noted in the trace;
        the others still run."""
        for agent in self._hooks[hook]:
            self._run_handler(agent.name, getattr(agent, hook), self, *args)

    def _run_handler(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except FlowControlAssertion:
            raise
        except Exception as exc:  # isolate the failing agent
            self.trace.note("agent_error", {"agent": name, "error": repr(exc)})

    # -- pumping ----------------------------------------------------------

    def pump(self, wait: float):
        """Send what is queued, wait up to ``wait`` seconds for datagrams,
        or less if the retransmission deadline falls sooner, then hand each
        datagram to ``receive``, check the deadline and send what that
        queued. A generator: it yields its wait to ``drive``, which resumes
        it with the time of the first select that saw the socket readable,
        the arrival time of every datagram read then, or with None once the
        wait is over. That select may come before the wait's turn to run,
        while other connections start, so the RTT sample does not include
        their start-up."""
        if self.sock is None:
            return
        # a deadline set by this send bounds the wait below
        self._flush()
        if self.retransmit_at is not None:
            wait = min(wait, self.retransmit_at - time.monotonic())
        arrived = yield self.sock, max(wait, 0)
        if arrived is not None:
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
                self.receive(datagram, arrived)
        self._check_deadline()
        self._flush()

    def receive(self, datagram: bytes, arrived: float) -> None:
        """Take one datagram that arrived at monotonic time ``arrived``:
        stamp it, count it and hand it to the parser. An empty datagram
        holds no QUIC packet; it is noted, not parsed or counted."""
        if not datagram:
            self.trace.note("empty_datagram", "zero-length datagram skipped")
            return
        self.last_received_at = arrived
        if self.rtt is None and self.first_sent_at is not None:
            self.rtt = arrived - self.first_sent_at
        self.bytes_received += len(datagram)
        parser = self._agents.get("parser")
        if parser is not None:
            self._run_handler("parser", parser.datagram, self, datagram)

    def run_until(self, predicate, timeout: float):
        """Pump until ``predicate()`` holds or ``timeout`` seconds pass;
        return whether it holds. Connection state changes only when a
        datagram arrives or the retransmission deadline passes, so each
        wait lasts until one of those or ``timeout``. A port that refused
        our datagrams and never answered ends the wait: nothing listens
        there to answer later. A generator, like ``pump``."""
        deadline = time.monotonic() + timeout
        while True:
            if predicate():
                return True
            now = time.monotonic()
            if now >= deadline or (self.port_refused and self.bytes_received == 0):
                return bool(predicate())
            yield from self.pump(deadline - now)

    def settle(self, seconds: float):
        """Pump until no datagram has arrived for one probe timeout since
        the settle began, or for the whole window of ``seconds``, whichever
        ends first: the window in which a violating peer would keep
        sending. Every datagram that arrives restarts the quiet period, so
        a peer that keeps sending is watched for the whole window; without
        an RTT sample there is no probe timeout, and the settle runs the
        whole window. A ``settle`` note in the trace says which ended it.
        A generator, like ``pump``."""
        start = time.monotonic()
        window_end = start + seconds
        pto = self.probe_timeout()
        end = window_end
        while True:
            if pto is not None:
                end = min(window_end, max(start, self.last_received_at or start) + pto)
            now = time.monotonic()
            if now >= end:
                break
            yield from self.pump(end - now)
        self.trace.note(
            "settle",
            {
                "window_ms": round(seconds * 1000, 1),
                "rtt_ms": None if self.rtt is None else round(self.rtt * 1000, 1),
                "quiet_ms": None if pto is None else round(pto * 1000, 1),
                "waited_ms": round((now - start) * 1000, 1),
                "ended": "window" if end >= window_end else "quiet",
            },
        )

    def probe_timeout(self) -> float | None:
        """RFC 9002's probe timeout after the first RTT sample,
        3 * rtt + max_ack_delay, in seconds; None before that sample.
        max_ack_delay is the peer's transport parameter, or its default
        when the peer sent none or one that does not decode."""
        if self.rtt is None:
            return None
        try:
            peer_value = self.peer_tp.get_int(TP_MAX_ACK_DELAY) if self.peer_tp else None
        except ParseError:
            peer_value = None
        max_ack_delay_ms = DEFAULT_MAX_ACK_DELAY_MS if peer_value is None else peer_value
        return 3 * self.rtt + max_ack_delay_ms / 1000

    def _check_deadline(self) -> None:
        if self.retransmit_at is not None and time.monotonic() >= self.retransmit_at:
            self.retransmit_at = None
            self.run_hook("timeout")

    # -- keys -------------------------------------------------------------

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

    def queue_crypto(self, level: EncryptionLevel, data: bytes) -> None:
        start = self._crypto_offsets.get(level, 0)
        self.queues[level].append(CryptoFrame(offset=start, data=data))
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
        """Send CONNECTION_CLOSE at the highest level with send keys. Under
        a version other than 1, or after any Version Negotiation, nothing
        is sent: the attempt is abandoned (RFC 9000 section 6.2), and a
        server holds no connection for a version it does not speak."""
        if self.closed or self.sock is None:
            return
        if (
            self.version != QUIC_V1
            or self.version_negotiation is not None
            or self.malformed_version_negotiation is not None
        ):
            self.closed = True
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
    ) -> Packet:
        """Build, protect and transmit one packet immediately, then run
        the agents' ``sent`` hook on it."""
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
        packet, cleartext = seal_packet(header, plaintext, keys)
        self._sendto(packet)
        space.sent[pn] = SentPacket(
            frames=frames,
            sent_at=time.monotonic(),
            ack_eliciting=is_ack_eliciting(frames),
            level=level,
        )
        self.trace.log_packet("tx", level.label, cleartext, len(self.dcid))
        sent = Packet(header=header, frames=frames, level=level)
        self.run_hook("sent", sent)
        return sent

    def _sendto(self, datagram: bytes) -> None:
        if self.sock is None:
            raise PrerequisiteError("socket closed")
        # stamped before the send: the peer may answer before it returns
        if self.first_sent_at is None:
            self.first_sent_at = time.monotonic()
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


def perform_handshake(conn: Connection, timeout_s: float):
    """Pump the connection until the 1-RTT exchange finished and return
    None, or return the stage the handshake is stuck at. A complete
    handshake has both 1-RTT keys: the handshake agent waits for them.
    A generator, like ``Connection.pump``."""
    yield from conn.run_until(lambda: conn.handshake_complete or conn.closed, timeout_s)
    return None if conn.handshake_complete else unfinished_stage(conn)


def unfinished_stage(conn: Connection) -> HandshakeStage:
    """The stage a handshake that has not finished is stuck at."""
    if conn.version_negotiation is not None:
        return HandshakeStage.VERSION_MISMATCH
    if conn.bytes_received == 0:
        return HandshakeStage.NO_RESPONSE
    return HandshakeStage.INCOMPLETE
