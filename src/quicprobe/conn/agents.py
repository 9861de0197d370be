"""The eight standard agents.

Each one owns a reusable slice of client behaviour; scenarios enable
exactly the subset they need. Agents are confined to one connection and
share only the connection's state. The connection calls each hook an
agent's class overrides (``start``, ``received``, ``sent``,
``timeout``) on the roster's agents in a fixed order. The parser is fed
datagrams by ``Connection.receive`` and calls ``received`` for each
packet it opens; the bundler is flushed by the connection. This module
owns the agents' fixed order and the send policy they apply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..protection import (
    AEAD_TAG_LEN,
    LEVEL_FOR_PACKET_TYPE,
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
    Frame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PacketHeader,
    PacketType,
    PaddingFrame,
    ParseError,
    StreamDataBlockedFrame,
    StreamFrame,
    is_ack_eliciting,
    lenient_decode_tp,
    packet_type_of,
    parse_frames,
    parse_header,
    serialize_frame,
)
from .streams import StreamRecv

MAX_DATAGRAM_SIZE = 1252
INITIAL_DATAGRAM_MIN = 1200
RETRANSMISSION_TIMER_MS = 500


@dataclass
class Packet:
    """One packet as the agents' hooks see it, received or sent."""

    header: PacketHeader
    frames: list[Frame]
    level: EncryptionLevel


class Agent:
    """The hooks a connection calls; each is a no-op until overridden."""

    name = "agent"

    def start(self, conn) -> None:
        """The connection is open: take the first actions."""

    def received(self, conn, packet: Packet) -> None:
        """A packet arrived and was opened."""

    def sent(self, conn, packet: Packet) -> None:
        """A packet went out."""

    def timeout(self, conn) -> None:
        """The retransmission deadline passed."""


HOOKS = ("start", "received", "sent", "timeout")


class ParserAgent(Agent):
    """Opens incoming datagrams for the others' ``received`` hook: removes
    packet protection, parses frames, and files version-negotiation and
    undecryptable observations on the connection."""

    name = "parser"

    def datagram(self, conn, data: bytes) -> None:
        packet_type = packet_type_of(data)
        if packet_type is PacketType.VERSION_NEGOTIATION:
            try:
                header, _ = parse_header(data)
            except ParseError as exc:
                # a broken negotiation reply is evidence, not silence
                conn.malformed_version_negotiation = str(exc)
                conn.trace.note("malformed_version_negotiation", str(exc))
                return
            conn.version_negotiation = header
            conn.trace.log_packet("rx", "none", data, len(conn.scid))
            return
        if packet_type is PacketType.RETRY:
            self._retry(conn, data)
            return
        # without keys for its level a packet is undecryptable, whatever
        # the rest of its header holds
        level = LEVEL_FOR_PACKET_TYPE[packet_type]
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
            conn.trace.note("header_parse_error", {"level": level.label, "error": str(exc)})
            return

        if header.is_long and not conn._server_cid_seen:
            conn.dcid = header.scid
            conn._server_cid_seen = True
        conn.record_received(level, header.packet_number)

        try:
            frames = parse_frames(plaintext)
        except ParseError as exc:
            conn.trace.note("frame_parse_error", {"level": level.label, "error": str(exc)})
            return

        for frame in frames:
            if isinstance(frame, StreamFrame) and frame.is_empty_non_fin:
                conn.empty_stream_frames_received += 1
            elif isinstance(frame, AckFrame) and frame.range_sanity_error:
                conn.flagged_acks_received += 1
            elif isinstance(frame, StreamDataBlockedFrame):
                conn.blocked_frames_received += 1

        conn.trace.log_packet(
            "rx", level.label, cleartext_packet_bytes(header, plaintext), len(conn.scid)
        )
        conn.run_hook("received", Packet(header=header, frames=frames, level=level))

    @staticmethod
    def _retry(conn, data: bytes) -> None:
        try:
            header, _ = parse_header(data)
        except ParseError as exc:
            conn.trace.note("header_parse_error", {"level": "none", "error": str(exc)})
            return
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
        conn.trace.note("retry_discarded", reason)


class TlsAgent(Agent):
    """Feeds reassembled CRYPTO data to the handshake provider, installs the
    secrets it exports and surfaces the peer's transport parameters."""

    name = "tls"

    def __init__(self):
        self._reassembly: dict[EncryptionLevel, StreamRecv] = {}
        self._tp_applied = False

    def received(self, conn, packet: Packet) -> None:
        crypto = [f for f in packet.frames if isinstance(f, CryptoFrame)]
        if not crypto:
            return
        recv = self._reassembly.setdefault(packet.level, StreamRecv())
        for frame in crypto:
            recv.add(frame.offset, frame.data, fin=False)
        fresh = recv.read()
        if not fresh:
            return

        outputs = conn.provider.consume(packet.level, fresh)
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
    """Install the keys the provider exported; a key already installed for
    the same level and direction stays."""
    for km in conn.provider.exported_secrets():
        conn.keys.setdefault((km.level, km.direction), km)


class AckAgent(Agent):
    """Queues an ACK for every ack-eliciting packet received."""

    name = "ack"

    def received(self, conn, packet: Packet) -> None:
        if not is_ack_eliciting(packet.frames):
            return
        space = conn.space(packet.level)
        if not space.received:
            return
        conn.queue_frame(packet.level, build_ack(space.received))


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

    def received(self, conn, packet: Packet) -> None:
        for frame in packet.frames:
            if isinstance(frame, StreamFrame):
                conn.stream(frame.stream_id).recv.add(frame.offset, frame.data, frame.fin)
            elif isinstance(frame, MaxStreamDataFrame):
                stream = conn.stream(frame.stream_id)
                stream.send.limit = max(stream.send.limit, frame.max_stream_data)
            elif isinstance(frame, MaxDataFrame):
                conn.connection_send_limit = max(conn.connection_send_limit, frame.max_data)


class HandshakeAgent(Agent):
    """Kicks off the handshake and tracks its completion: the provider is
    done, the client's finish has gone out and both 1-RTT keys are
    installed. The tls agent installs keys before this agent's
    ``received`` hook runs on the same packet."""

    name = "handshake"

    def start(self, conn) -> None:
        for level, data in conn.provider.start():
            conn.queue_crypto(level, data)
        drain_secrets(conn)

    def received(self, conn, packet: Packet) -> None:
        self._check_complete(conn)

    def sent(self, conn, packet: Packet) -> None:
        if packet.level is EncryptionLevel.HANDSHAKE and any(
            isinstance(f, CryptoFrame) for f in packet.frames
        ):
            conn.client_finished_sent = True
        self._check_complete(conn)

    @staticmethod
    def _check_complete(conn) -> None:
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
    ACK and PADDING) are queued again at its level. The connection keeps
    the timer's one deadline, ``retransmit_at``."""

    name = "retransmission"

    def received(self, conn, packet: Packet) -> None:
        space = conn.space(packet.level)
        for frame in packet.frames:
            if not isinstance(frame, AckFrame):
                continue
            for low, high in frame.decoded_ranges():
                for pn in [p for p in space.sent if low <= p <= high]:
                    del space.sent[pn]
                space.largest_acked = max(space.largest_acked, high)

    def sent(self, conn, packet: Packet) -> None:
        sent = conn.space(packet.level).sent.get(packet.header.packet_number)
        if sent and sent.ack_eliciting and conn.retransmit_at is None:
            conn.retransmit_at = time.monotonic() + RETRANSMISSION_TIMER_MS / 1000

    def timeout(self, conn) -> None:
        now = time.monotonic()
        expired = now - RETRANSMISSION_TIMER_MS / 1000
        for space in conn.spaces.values():
            lost = [
                pn for pn, sp in space.sent.items() if sp.ack_eliciting and sp.sent_at <= expired
            ]
            conn.requeue(space, lost)
        # what was just declared lost re-arms the timer when it goes out again
        if any(
            sp.ack_eliciting for space in conn.spaces.values() for sp in space.sent.values()
        ):
            conn.retransmit_at = now + RETRANSMISSION_TIMER_MS / 1000


class BundlerAgent(Agent):
    """Drains frame queues into protected packets, splitting oversized data
    frames and padding client Initial datagrams to the required floor.
    Flushed by the connection; it defines no hook."""

    name = "bundler"

    def flush(self, conn) -> None:
        if conn.sock is None:
            return
        for level, queue in conn.queues.items():  # in EncryptionLevel order
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

    def received(self, conn, packet: Packet) -> None:
        for frame in packet.frames:
            if isinstance(frame, ConnectionCloseFrame):
                conn.close_received = (frame.error_code, frame.reason)
                conn.closed = True


AGENT_TYPES: dict[str, type[Agent]] = {
    cls.name: cls
    for cls in (
        ParserAgent,
        TlsAgent,
        AckAgent,
        FlowControlAgent,
        HandshakeAgent,
        RetransmissionAgent,
        BundlerAgent,
        ClosingAgent,
    )
}
# fixed hook order, so packet handling is reproducible
AGENT_ORDER = tuple(AGENT_TYPES)
FULL_ROSTER = frozenset(AGENT_TYPES)
