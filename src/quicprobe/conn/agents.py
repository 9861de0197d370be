"""The eight standard agents.

Each one owns a reusable slice of client behaviour; scenarios enable
exactly the subset they need. Agents are confined to one connection and
communicate only through the event bus and the connection state. The
parser is fed datagrams by ``Connection.pump`` and the bundler is
flushed by it; the others act on the events they subscribe to.
"""

from __future__ import annotations

import time

from ..protection import (
    AEAD_TAG_LEN,
    DecryptError,
    EncryptionLevel,
    cleartext_packet_bytes,
    packet_number_length,
    retry_integrity_tag,
    unprotect,
)
from ..wire import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    ParseError,
    StreamDataBlockedFrame,
    StreamFrame,
    is_ack_eliciting,
    lenient_decode_tp,
    parse_frames,
    parse_header,
    serialize_frame,
)
from .connection import MAX_DATAGRAM_SIZE, INITIAL_DATAGRAM_MIN, RETRANSMISSION_TIMER_MS
from .events import NewKeysAvailable, PacketReceived, PacketSent, Timeout
from .streams import StreamRecv

_LONG_TYPE_LEVELS = (
    EncryptionLevel.INITIAL,
    EncryptionLevel.ZERO_RTT,
    EncryptionLevel.HANDSHAKE,
)


class Agent:
    name = "agent"
    subscriptions: tuple = ()

    def start(self, conn) -> None:
        pass

    def handle(self, conn, event) -> None:
        pass


class ParserAgent(Agent):
    """Turns incoming datagrams into PacketReceived events: removes packet
    protection, parses frames, and files version-negotiation/undecryptable
    observations on the connection."""

    name = "parser"
    subscriptions = ()

    def datagram(self, conn, data: bytes) -> None:
        first = data[0]
        if first & 0x80:
            version = int.from_bytes(data[1:5], "big") if len(data) >= 5 else None
            if version == 0:
                try:
                    header, _ = parse_header(data)
                except ParseError as exc:
                    # a broken negotiation reply is evidence, not silence
                    conn.malformed_version_negotiation = str(exc)
                    if conn.trace:
                        conn.trace.note("malformed_version_negotiation", str(exc))
                    return
                conn.version_negotiation = header
                if conn.trace:
                    conn.trace.log_packet("rx", "none", data, len(conn.scid))
                return
            packet_type = (first & 0x30) >> 4
            if packet_type == 3:
                self._retry(conn, data)
                return
            level = _LONG_TYPE_LEVELS[packet_type]
        else:
            level = EncryptionLevel.ONE_RTT

        keys = conn.recv_keys(level)
        if keys is None:
            conn.note_decrypt_failure(level, data)
            return
        space = conn.space(level)
        try:
            header, plaintext = unprotect(
                data, keys, largest_pn=space.largest_received, short_dcid_len=len(conn.scid)
            )
        except DecryptError:
            conn.note_decrypt_failure(level, data)
            return
        except ParseError as exc:
            if conn.trace:
                conn.trace.note("header_parse_error", {"level": level.label, "error": str(exc)})
            return

        if header.is_long and not conn._server_cid_seen:
            conn.dcid = header.scid
            conn._server_cid_seen = True
        conn.record_received(level, header.packet_number)

        try:
            frames = parse_frames(plaintext)
        except ParseError as exc:
            if conn.trace:
                conn.trace.note("frame_parse_error", {"level": level.label, "error": str(exc)})
            return

        for frame in frames:
            if isinstance(frame, StreamFrame) and frame.is_empty_non_fin:
                conn.empty_stream_frames_received += 1
            elif isinstance(frame, AckFrame) and frame.range_sanity_error:
                conn.flagged_acks_received += 1
            elif isinstance(frame, StreamDataBlockedFrame):
                conn.blocked_frames_received += 1

        if conn.trace:
            conn.trace.log_packet(
                "rx", level.label, cleartext_packet_bytes(header, plaintext), len(conn.scid)
            )
        conn.emit(PacketReceived(header=header, frames=frames, level=level))

    @staticmethod
    def _retry(conn, data: bytes) -> None:
        try:
            header, _ = parse_header(data)
        except ParseError:
            return
        if conn.trace:
            conn.trace.log_packet("rx", "none", data, len(conn.scid))
        token, tag = header.token[:-AEAD_TAG_LEN], header.token[-AEAD_TAG_LEN:]
        # one Retry at most, none once the server has answered otherwise,
        # and only one whose tag proves it answers our first Initial
        if conn._server_cid_seen or conn.retry_token:
            reason = "not the server's first answer"
        elif not token:
            reason = "empty token"
        elif tag != retry_integrity_tag(data[:-AEAD_TAG_LEN], conn.original_dcid):
            reason = "integrity tag mismatch"
        else:
            conn.follow_retry(header.scid, token)
            return
        if conn.trace:
            conn.trace.note("retry_discarded", reason)


class TlsAgent(Agent):
    """Feeds reassembled CRYPTO data to the handshake provider, installs the
    secrets it exports and surfaces the peer's transport parameters."""

    name = "tls"
    subscriptions = (PacketReceived,)

    def __init__(self):
        self._reassembly: dict[EncryptionLevel, StreamRecv] = {}
        self._consumed: dict[EncryptionLevel, int] = {}
        self._tp_applied = False

    def handle(self, conn, event: PacketReceived) -> None:
        crypto = [f for f in event.frames if isinstance(f, CryptoFrame)]
        if not crypto:
            return
        recv = self._reassembly.setdefault(event.level, StreamRecv())
        for frame in crypto:
            recv.add(frame.offset, frame.data, fin=False)
        done = self._consumed.get(event.level, 0)
        fresh = recv.delivered[done:]
        if not fresh:
            return
        self._consumed[event.level] = len(recv.delivered)

        outputs = conn.provider.consume(event.level, fresh)
        for level, data in outputs:
            if conn.hold_client_finished and level is EncryptionLevel.HANDSHAKE:
                conn._held_crypto.append((level, data))
            else:
                conn.queue_crypto(level, data)
        drain_secrets(conn)

        if not self._tp_applied and conn.provider.peer_tp_raw is not None:
            self._tp_applied = True
            try:
                tp = conn.provider.peer_transport_parameters()
            except ParseError as exc:
                conn.peer_tp_error = str(exc)
                tp = lenient_decode_tp(conn.provider.peer_tp_raw)
            conn.apply_peer_tp(tp)


def drain_secrets(conn) -> None:
    fresh_levels = []
    for km in conn.provider.exported_secrets():
        if conn.install_key(km) and km.level not in fresh_levels:
            fresh_levels.append(km.level)
    for level in fresh_levels:
        conn.emit(NewKeysAvailable(level=level))


class AckAgent(Agent):
    """Queues an ACK for every ack-eliciting packet received."""

    name = "ack"
    subscriptions = (PacketReceived,)

    def handle(self, conn, event: PacketReceived) -> None:
        if not is_ack_eliciting(event.frames):
            return
        space = conn.space(event.level)
        if not space.received:
            return
        conn.queue_frame(event.level, build_ack(space.received))


def build_ack(received: set[int]) -> AckFrame:
    pns = sorted(received, reverse=True)
    runs: list[tuple[int, int]] = []  # (high, low), descending
    high = low = pns[0]
    for pn in pns[1:]:
        if pn == low - 1:
            low = pn
        else:
            runs.append((high, low))
            high = low = pn
    runs.append((high, low))
    ranges = []
    prev_low = runs[0][1]
    for hi, lo in runs[1:]:
        ranges.append((prev_low - hi - 2, hi - lo))
        prev_low = lo
    return AckFrame(
        largest_acked=runs[0][0],
        ack_delay=0,
        first_range=runs[0][0] - runs[0][1],
        ranges=ranges,
    )


class FlowControlAgent(Agent):
    """Maintains stream reassembly and both send-side ledgers, and applies
    the limit raises the peer advertises."""

    name = "flow_control"
    subscriptions = (PacketReceived,)

    def handle(self, conn, event: PacketReceived) -> None:
        for frame in event.frames:
            if isinstance(frame, StreamFrame):
                conn.stream(frame.stream_id).recv.add(frame.offset, frame.data, frame.fin)
            elif isinstance(frame, MaxStreamDataFrame):
                stream = conn.stream(frame.stream_id)
                stream.send.limit = max(stream.send.limit, frame.max_stream_data)
            elif isinstance(frame, MaxDataFrame):
                conn.connection_send_limit = max(conn.connection_send_limit, frame.max_data)


class HandshakeAgent(Agent):
    """Kicks off the handshake and tracks its completion."""

    name = "handshake"
    subscriptions = (PacketReceived, PacketSent, NewKeysAvailable)

    def start(self, conn) -> None:
        for level, data in conn.provider.start():
            conn.queue_crypto(level, data)
        drain_secrets(conn)

    def handle(self, conn, event) -> None:
        if isinstance(event, PacketSent) and event.level is EncryptionLevel.HANDSHAKE:
            if any(isinstance(f, CryptoFrame) for f in event.frames):
                conn.client_finished_sent = True
        if (
            not conn.handshake_complete
            and conn.provider.handshake_complete
            and conn.client_finished_sent
            and conn.send_keys(EncryptionLevel.ONE_RTT) is not None
            and conn.recv_keys(EncryptionLevel.ONE_RTT) is not None
        ):
            conn.handshake_complete = True


class RetransmissionAgent(Agent):
    """Timer-only loss recovery: anything ack-eliciting still unacked after
    the fixed timer is declared lost, and its data frames (everything but
    ACK and PADDING) are queued again at its level."""

    name = "retransmission"
    subscriptions = (PacketReceived, PacketSent, Timeout)

    def handle(self, conn, event) -> None:
        if isinstance(event, PacketSent):
            packet = conn.space(event.level).sent.get(event.header.packet_number)
            if packet and packet.ack_eliciting and packet.retransmittable:
                if "retrans" not in conn.timers:
                    conn.arm_timer("retrans", RETRANSMISSION_TIMER_MS)
            return
        if isinstance(event, PacketReceived):
            space = conn.space(event.level)
            for frame in event.frames:
                if not isinstance(frame, AckFrame):
                    continue
                for low, high in frame.decoded_ranges():
                    for pn in [p for p in space.sent if low <= p <= high]:
                        del space.sent[pn]
                    space.largest_acked = max(space.largest_acked, high)
            return
        if isinstance(event, Timeout) and event.timer_id == "retrans":
            expired = time.monotonic() - RETRANSMISSION_TIMER_MS / 1000
            for space in conn.spaces.values():
                lost = [
                    pn
                    for pn, sp in space.sent.items()
                    if sp.ack_eliciting and sp.retransmittable and sp.sent_at <= expired
                ]
                conn.requeue(space, lost)
            # what was just declared lost re-arms the timer when it goes out again
            if any(
                sp.ack_eliciting and sp.retransmittable
                for space in conn.spaces.values()
                for sp in space.sent.values()
            ):
                conn.arm_timer("retrans", RETRANSMISSION_TIMER_MS)


class BundlerAgent(Agent):
    """Drains frame queues into protected packets, splitting oversized data
    frames and padding client Initial datagrams to the required floor.
    Flushed by the connection rather than by events."""

    name = "bundler"

    def flush(self, conn) -> None:
        if conn.sock is None:
            return
        for level in (
            EncryptionLevel.INITIAL,
            EncryptionLevel.ZERO_RTT,
            EncryptionLevel.HANDSHAKE,
            EncryptionLevel.ONE_RTT,
        ):
            queue = conn.queues[level]
            if not queue:
                continue
            if conn.send_keys(level) is None:
                continue  # deferred: a later flush sends it once keys exist
            while queue:
                self._send_one(conn, level, queue)

    def _send_one(self, conn, level, queue):
        space = conn.space(level)
        pn_length = packet_number_length(space.next_pn, space.largest_acked)
        budget = MAX_DATAGRAM_SIZE - conn._header_overhead(level, pn_length) - AEAD_TAG_LEN
        taken = []
        used = 0
        while queue:
            frame = queue[0]
            size = len(serialize_frame(frame))
            if used + size <= budget:
                taken.append(queue.pop(0))
                used += size
                continue
            if isinstance(frame, (CryptoFrame, StreamFrame)) and len(frame.data) > 0:
                head, tail = _split_data_frame(frame, budget - used)
                if head is not None:
                    queue[0] = tail
                    taken.append(head)
                    used += len(serialize_frame(head))
            break
        if not taken:
            # a single unsplittable frame larger than a datagram is a bug
            raise ValueError(f"frame too large to bundle at {level.label}")
        if level is EncryptionLevel.INITIAL:
            floor = INITIAL_DATAGRAM_MIN - conn._header_overhead(level, pn_length) - AEAD_TAG_LEN
            if used < floor:
                taken.append(PaddingFrame(count=floor - used))
        return conn.send_packet(level, taken)


def _split_data_frame(frame, room: int):
    """Split a CRYPTO/STREAM frame so its head fits in ``room`` bytes."""
    if isinstance(frame, CryptoFrame):
        base = serialize_frame(CryptoFrame(offset=frame.offset, data=b""))
    else:
        base = serialize_frame(
            StreamFrame(stream_id=frame.stream_id, offset=frame.offset, data=b"\x00", fin=False)
        )
    overhead = len(base) + 4  # slack for the length varint growing
    take = min(room - overhead, len(frame.data) - 1)
    if take <= 0:
        return None, frame
    if isinstance(frame, CryptoFrame):
        head = CryptoFrame(offset=frame.offset, data=frame.data[:take])
        tail = CryptoFrame(offset=frame.offset + take, data=frame.data[take:])
    else:
        head = StreamFrame(
            stream_id=frame.stream_id, offset=frame.offset, data=frame.data[:take], fin=False
        )
        tail = StreamFrame(
            stream_id=frame.stream_id,
            offset=frame.offset + take,
            data=frame.data[take:],
            fin=frame.fin,
        )
    return head, tail


class ClosingAgent(Agent):
    """Observes CONNECTION_CLOSE and marks the connection drained."""

    name = "closing"
    subscriptions = (PacketReceived,)

    def handle(self, conn, event: PacketReceived) -> None:
        for frame in event.frames:
            if isinstance(frame, ConnectionCloseFrame):
                conn.close_received = (frame.error_code, frame.reason)
                conn.closed = True


def build_agents(conn) -> dict[str, Agent]:
    agents = (
        ParserAgent(),
        TlsAgent(),
        AckAgent(),
        FlowControlAgent(),
        HandshakeAgent(),
        RetransmissionAgent(),
        BundlerAgent(),
        ClosingAgent(),
    )
    return {agent.name: agent for agent in agents}
