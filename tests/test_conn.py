import dataclasses
import socket
import threading

import pytest
from hypothesis import given, strategies as st

from quicprobe.conn import (
    Connection,
    FULL_ROSTER,
    HandshakeStage,
    NewKeysAvailable,
    PrerequisiteError,
    StreamRecv,
    build_ack,
    perform_handshake,
)
from quicprobe.conn import events
from quicprobe.conn.agents import Agent, build_agents
from quicprobe.conn.streams import FlowControlAssertion
from quicprobe.protection import (
    EncryptionLevel,
    NullHandshakeProvider,
    derive_initial_keys,
    protect,
    retry_integrity_tag,
    unprotect,
)
from quicprobe.scenarios.base import default_client_tp
from quicprobe.traces import TraceBuilder
from quicprobe.wire import (
    AckFrame,
    CryptoFrame,
    PacketHeader,
    PacketType,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    encode_transport_parameters,
    parse_frames,
    serialize_header,
)


@pytest.fixture
def silent_peer():
    """A bound UDP socket that never answers."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    yield sock.getsockname()
    sock.close()


def new_trace():
    return TraceBuilder("handshake", 1, {"name": "t"})


def make_conn(silent_peer, roster=FULL_ROSTER, trace=None, **kwargs):
    tp = default_client_tp()
    provider = NullHandshakeProvider(
        seed=1, is_client=True, local_tp=encode_transport_parameters(tp)
    )
    trace = trace if trace is not None else new_trace()
    conn = Connection(silent_peer[0], silent_peer[1], provider, trace, roster=roster, **kwargs)
    conn.start()
    return conn


def server_packet(conn, frames, pn=0):
    """Craft a server->client Initial packet under the connection's keys."""
    _, server_keys = derive_initial_keys(conn.original_dcid)
    header = PacketHeader(
        packet_type=PacketType.INITIAL,
        dcid=conn.scid,
        scid=b"\xaa" * 8,
        packet_number=pn,
        pn_length=2,
    )
    from quicprobe.wire import serialize_frames

    payload = serialize_frames(frames)
    payload += b"\x00" * max(0, 4 - header.pn_length - len(payload))
    return protect(header, payload, server_keys)


def feed(conn, datagram):
    conn._agents["parser"].datagram(conn, datagram)
    conn._drain_bus()
    conn._flush()
    conn._drain_bus()


class TestStart:
    def test_full_roster_queues_client_hello_at_initial(self, silent_peer):
        conn = make_conn(silent_peer)
        # the hello went out already: padded Initial carrying CRYPTO
        sent = conn.space(EncryptionLevel.INITIAL).sent
        assert len(sent) == 1
        frames = next(iter(sent.values())).frames
        assert any(isinstance(f, CryptoFrame) for f in frames)
        assert conn.bytes_sent >= 1200
        conn.stop()

    def test_unresolvable_host_is_prerequisite_error(self):
        provider = NullHandshakeProvider(seed=1, is_client=True)
        conn = Connection("nonexistent.invalid.", 443, provider, new_trace())
        with pytest.raises(PrerequisiteError):
            conn.start()

    def test_builds_only_the_roster_in_dispatch_order(self, silent_peer):
        conn = make_conn(silent_peer, roster={"closing", "bundler", "parser"})
        assert list(conn._agents) == ["parser", "bundler", "closing"]
        conn.stop()

    def test_unknown_agent_rejected(self, silent_peer):
        provider = NullHandshakeProvider(seed=1, is_client=True)
        conn = Connection(
            silent_peer[0], silent_peer[1], provider, new_trace(), roster={"parser", "nope"}
        )
        with pytest.raises(ValueError):
            conn.start()


class TestDispatch:
    def test_ack_agent_queues_ack_for_received_packet(self, silent_peer):
        conn = make_conn(silent_peer)
        feed(conn, server_packet(conn, [PingFrame()], pn=3))
        acks = [
            f
            for packet in conn.space(EncryptionLevel.INITIAL).sent.values()
            for f in packet.frames
            if isinstance(f, AckFrame)
        ]
        assert acks and acks[0].largest_acked == 3
        conn.stop()

    def test_without_ack_agent_no_ack_ever_sent(self, silent_peer):
        roster = FULL_ROSTER - {"ack"}
        conn = make_conn(silent_peer, roster=roster)
        feed(conn, server_packet(conn, [PingFrame()], pn=0))
        feed(conn, server_packet(conn, [PingFrame()], pn=1))
        for space in conn.spaces.values():
            for packet in space.sent.values():
                assert not any(isinstance(f, AckFrame) for f in packet.frames)
        assert not any(
            isinstance(f, AckFrame) for q in conn.queues.values() for f in q
        )
        conn.stop()

    def test_loss_detected_requeues_frames_at_same_level(self, silent_peer):
        # no bundler: what the timer re-queues stays in the queue
        conn = make_conn(silent_peer, roster={"retransmission"})
        crypto = CryptoFrame(offset=100, data=b"lost-data")
        sent = conn.send_packet(
            EncryptionLevel.INITIAL, [AckFrame(largest_acked=0), crypto, PaddingFrame(20)]
        )
        conn.run_until(lambda: bool(conn.queues[EncryptionLevel.INITIAL]), 2.0)
        assert conn.queues[EncryptionLevel.INITIAL] == [crypto]
        assert sent.header.packet_number not in conn.space(EncryptionLevel.INITIAL).sent
        conn.stop()

    def test_event_without_subscriber_is_no_effect(self, silent_peer):
        conn = make_conn(silent_peer, roster={"parser"})
        conn.dispatch(NewKeysAvailable(level=EncryptionLevel.ONE_RTT))
        assert all(not queue for queue in conn.queues.values())
        assert conn.retransmit_at is None
        assert all(not space.sent for space in conn.spaces.values())
        assert conn.agent_errors == []
        conn.stop()

    def test_failing_agent_is_isolated(self, silent_peer):
        conn = make_conn(silent_peer)

        def explode(conn_, event):
            raise RuntimeError("boom")

        conn._agents["tls"].handle = explode
        feed(conn, server_packet(conn, [CryptoFrame(offset=0, data=b"x"), PingFrame()], pn=0))
        assert conn.agent_errors and conn.agent_errors[0][0] == "tls"
        # the ack agent still ran for the same event
        acks = [
            f
            for packet in conn.space(EncryptionLevel.INITIAL).sent.values()
            for f in packet.frames
            if isinstance(f, AckFrame)
        ]
        assert acks
        conn.stop()

    def test_events_dispatched_fifo(self, silent_peer):
        conn = make_conn(silent_peer, roster={"parser", "flow_control"})
        seen = []
        agent = conn._agents["flow_control"]
        original = agent.handle
        agent.handle = lambda c, e: (seen.append(e.header.packet_number), original(c, e))[1]
        feed(conn, server_packet(conn, [PingFrame()], pn=0))
        feed(conn, server_packet(conn, [PingFrame()], pn=1))
        feed(conn, server_packet(conn, [PingFrame()], pn=2))
        assert seen == [0, 1, 2]
        conn.stop()


class TestBundler:
    def test_frames_queued_together_share_a_packet(self, silent_peer):
        conn = make_conn(silent_peer, roster={"bundler"})
        conn.queues[EncryptionLevel.INITIAL].append(AckFrame(largest_acked=0))
        conn.queues[EncryptionLevel.INITIAL].append(CryptoFrame(offset=0, data=b"fin"))
        conn._flush()
        sent = list(conn.space(EncryptionLevel.INITIAL).sent.values())
        assert len(sent) == 1
        kinds = [type(f).__name__ for f in sent[0].frames]
        assert "AckFrame" in kinds and "CryptoFrame" in kinds
        assert conn.queues[EncryptionLevel.INITIAL] == []
        conn.stop()

    def test_oversized_stream_split_preserves_bytes_and_order(self, silent_peer):
        conn = make_conn(silent_peer, roster={"bundler"})
        payload = bytes(range(256)) * 8  # 2048 bytes > one datagram
        conn.queues[EncryptionLevel.ONE_RTT].append(
            StreamFrame(stream_id=0, offset=0, data=payload, fin=True)
        )
        km = conn.keys[(EncryptionLevel.INITIAL, "client")]
        from quicprobe.protection import KeyMaterial

        conn.keys[(EncryptionLevel.ONE_RTT, "client")] = KeyMaterial(
            level=EncryptionLevel.ONE_RTT,
            direction="client",
            key=km.key,
            iv=km.iv,
            header_protection_key=km.header_protection_key,
        )
        conn._flush()
        sent = sorted(conn.space(EncryptionLevel.ONE_RTT).sent.items())
        assert len(sent) == 2
        pieces = []
        for _, packet in sent:
            stream_frames = [f for f in packet.frames if isinstance(f, StreamFrame)]
            assert len(stream_frames) == 1
            pieces.append(stream_frames[0])
        assert pieces[0].offset == 0
        assert pieces[1].offset == len(pieces[0].data)
        assert pieces[0].data + pieces[1].data == payload
        assert not pieces[0].fin and pieces[1].fin
        conn.stop()

    def test_empty_queue_sends_nothing(self, silent_peer):
        conn = make_conn(silent_peer, roster={"bundler"})
        before = conn.bytes_sent
        conn._flush()
        assert conn.bytes_sent == before
        conn.stop()

    def test_client_initial_padded_to_1200(self, silent_peer):
        conn = make_conn(silent_peer)  # start() sends the hello
        assert conn.bytes_sent >= 1200
        conn.stop()

    def test_deferred_without_keys(self, silent_peer):
        conn = make_conn(silent_peer, roster={"bundler"})
        conn.queues[EncryptionLevel.ONE_RTT].append(PingFrame())
        before = conn.bytes_sent
        conn._flush()
        assert conn.bytes_sent == before
        assert not conn.space(EncryptionLevel.ONE_RTT).sent
        assert conn.queues[EncryptionLevel.ONE_RTT]  # still queued
        conn.stop()


class TestBundleAndSend:
    """Flushing one level's queue: one packet out, the queue drained."""

    def test_builds_one_packet_from_the_queue(self, silent_peer):
        conn = make_conn(silent_peer, roster={"bundler"})
        conn.queues[EncryptionLevel.INITIAL].append(PingFrame())
        conn._flush()
        sent = list(conn.space(EncryptionLevel.INITIAL).sent.values())
        assert len(sent) == 1
        assert any(isinstance(f, PingFrame) for f in sent[0].frames)
        assert conn.queues[EncryptionLevel.INITIAL] == []
        conn.stop()

    def test_empty_queue_returns_none(self, silent_peer):
        conn = make_conn(silent_peer, roster={"bundler"})
        before = conn.bytes_sent
        conn._flush()
        assert conn.bytes_sent == before
        assert not conn.space(EncryptionLevel.INITIAL).sent
        conn.stop()


class TestFlowLedger:
    def test_send_beyond_stream_limit_asserts(self, silent_peer):
        conn = make_conn(silent_peer)
        tp = default_client_tp()
        tp.set_int(0x06, 10)
        conn.apply_peer_tp(tp)
        with pytest.raises(FlowControlAssertion):
            conn.send_stream(0, b"x" * 11)
        conn.stop()

    def test_send_beyond_connection_limit_asserts(self, silent_peer):
        conn = make_conn(silent_peer)
        tp = default_client_tp()
        tp.set_int(0x04, 5)
        tp.set_int(0x06, 100)
        conn.apply_peer_tp(tp)
        with pytest.raises(FlowControlAssertion):
            conn.send_stream(0, b"x" * 6)
        conn.stop()


def test_parser_survives_garbage_datagrams(silent_peer):
    import random

    conn = make_conn(silent_peer)
    rng = random.Random(5)
    parser = conn._agents["parser"]
    for _ in range(300):
        blob = rng.randbytes(rng.randint(1, 120))
        conn._run_handler("parser", lambda d=blob: parser.datagram(conn, d))
        conn._drain_bus()
    # still alive and still speaking
    conn.queue_frame(EncryptionLevel.INITIAL, PingFrame())
    conn._flush()
    assert conn.space(EncryptionLevel.INITIAL).sent
    conn.stop()


def test_parser_flags_malformed_version_negotiation(silent_peer):
    conn = make_conn(silent_peer)
    reply = bytes([0xC0]) + b"\x00" * 4 + b"\x00" + b"\x00" + b"\x00\x00\x01"
    feed(conn, reply)
    assert conn.version_negotiation is None
    assert "multiple of 4" in conn.malformed_version_negotiation
    conn.stop()


def test_parser_notes_header_parse_error_in_trace(silent_peer):
    trace = TraceBuilder("handshake", 1, {"name": "t", "host": "127.0.0.1", "port": 1})
    conn = make_conn(silent_peer, trace=trace)
    packet = server_packet(conn, [PingFrame(), PaddingFrame(40)])
    # the Length field still counts the 10 bytes cut off the datagram
    feed(conn, packet[:-10])
    notes = [note for note in trace.notes if note["kind"] == "header_parse_error"]
    assert len(notes) == 1
    assert notes[0]["detail"]["level"] == EncryptionLevel.INITIAL.label
    assert "declared length exceeds datagram" in notes[0]["detail"]["error"]
    assert conn.space(EncryptionLevel.INITIAL).largest_received == -1
    conn.stop()


def test_perform_handshake_no_response(silent_peer):
    conn = make_conn(silent_peer)
    assert perform_handshake(conn, 0.15) is HandshakeStage.NO_RESPONSE
    conn.stop()


def test_queued_frame_goes_out_before_the_wait(silent_peer):
    trace = TraceBuilder("handshake", 1, {"name": "t"})
    conn = make_conn(silent_peer, roster={"retransmission", "bundler"}, trace=trace)
    conn.queue_frame(EncryptionLevel.INITIAL, PingFrame())
    conn.run_until(lambda: False, 1.5)
    sent_ms = [entry["timestamp_ms"] for entry in trace.packets if entry["direction"] == "tx"]
    conn.stop()
    # sent at once, and the timer that send armed brings the resend at
    # 500 ms, not at the deadline
    assert sent_ms[0] < 100, sent_ms
    assert 450 <= sent_ms[1] < 900, sent_ms


def test_settle_sees_a_datagram_that_arrives_late():
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    conn = make_conn(peer.getsockname(), roster=frozenset())
    client = conn.sock.getsockname()
    late = threading.Timer(0.1, peer.sendto, (b"\x00" * 70, client))
    try:
        peer.sendto(b"\x00" * 50, client)
        late.start()
        conn.settle(0.3)
        assert conn.bytes_received == 120
    finally:
        late.join()
        conn.stop()
        peer.close()


class TestRetry:
    """The client follows one valid Retry and discards every other."""

    @pytest.fixture
    def peer(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2.0)
        yield sock
        sock.close()

    @staticmethod
    def read_initial(peer, dcid):
        """The next client Initial: (header, CRYPTO bytes), opened with the
        Initial keys of ``dcid``."""
        data, addr = peer.recvfrom(65535)
        client_keys, _ = derive_initial_keys(dcid)
        header, plaintext = unprotect(data, client_keys)
        crypto = b"".join(f.data for f in parse_frames(plaintext) if isinstance(f, CryptoFrame))
        return header, crypto, len(data), addr

    @staticmethod
    def retry(conn, scid, token, tag_dcid=None):
        body = serialize_header(
            PacketHeader(packet_type=PacketType.RETRY, dcid=conn.scid, scid=scid, token=token)
        )
        return body + retry_integrity_tag(body, tag_dcid or conn.original_dcid)

    def test_follows_a_valid_retry_once(self, peer):
        conn = make_conn(peer.getsockname(), trace=TraceBuilder("handshake", 1, {"name": "t"}))
        try:
            first, hello, _, addr = self.read_initial(peer, conn.original_dcid)
            assert first.token == b""
            peer.sendto(self.retry(conn, b"\x11" * 8, b"tok"), addr)
            conn.pump(1.0)
            again, crypto, size, _ = self.read_initial(peer, b"\x11" * 8)
            assert (again.dcid, again.token, crypto) == (b"\x11" * 8, b"tok", hello)
            assert again.packet_number > first.packet_number  # numbers go on
            assert size >= 1200
            # a second Retry is not followed
            peer.sendto(self.retry(conn, b"\x22" * 8, b"tok2"), addr)
            conn.pump(1.0)
            assert (conn.dcid, conn.retry_token) == (b"\x11" * 8, b"tok")
            assert [n["detail"] for n in conn.trace.notes if n["kind"] == "retry_discarded"] == [
                "not the server's first answer"
            ]
        finally:
            conn.stop()

    @pytest.mark.parametrize(
        "scid_token_tag, reason",
        [
            ((b"\x11" * 8, b"tok", b"\x99" * 8), "integrity tag mismatch"),
            ((b"\x11" * 8, b"", None), "empty token"),
        ],
    )
    def test_discards_an_invalid_retry(self, peer, scid_token_tag, reason):
        conn = make_conn(peer.getsockname(), trace=TraceBuilder("handshake", 1, {"name": "t"}))
        try:
            _, _, _, addr = self.read_initial(peer, conn.original_dcid)
            peer.sendto(self.retry(conn, *scid_token_tag), addr)
            conn.pump(1.0)
            assert (conn.dcid, conn.retry_token) == (conn.original_dcid, b"")
            assert [n["detail"] for n in conn.trace.notes] == [reason]
        finally:
            conn.stop()


def test_every_event_type_is_acted_on():
    """Each event type has a subscriber whose own ``handle`` can act on it,
    and no agent subscribes to events it would ignore."""
    event_types = [
        value
        for value in vars(events).values()
        if dataclasses.is_dataclass(value) and value.__module__ == events.__name__
    ]
    agents = build_agents().values()
    for agent in agents:
        if agent.subscriptions:
            assert type(agent).handle is not Agent.handle, agent.name
    for event_type in event_types:
        acting = [
            agent.name
            for agent in agents
            if issubclass(event_type, agent.subscriptions)
            and type(agent).handle is not Agent.handle
        ]
        assert acting, event_type.__name__


class TestBuildAck:
    def test_single_run(self):
        ack = build_ack({0, 1, 2})
        assert ack.largest_acked == 2
        assert ack.first_range == 2
        assert ack.ranges == []
        assert ack.decoded_ranges() == [(0, 2)]

    def test_gappy_runs(self):
        ack = build_ack({0, 1, 5, 6, 9})
        assert ack.decoded_ranges() == [(9, 9), (5, 6), (0, 1)]
        assert not ack.range_sanity_error


class TestStreamRecv:
    def test_out_of_order_fin_first(self):
        recv = StreamRecv()
        recv.add(17, b"", fin=True)
        assert not recv.finished
        recv.add(0, b"GET /index.html\r\n", fin=False)
        assert recv.finished
        assert recv.delivered == b"GET /index.html\r\n"

    def test_overlap_dedupe(self):
        recv = StreamRecv()
        recv.add(0, b"abcd", fin=False)
        recv.add(2, b"cdef", fin=False)
        assert recv.delivered == b"abcdef"

    @given(
        payload=st.binary(min_size=1, max_size=300),
        seed=st.integers(min_value=0, max_value=1 << 32),
    )
    def test_reassembly_property(self, payload, seed):
        import random

        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, len(payload) + 1), min(len(payload), 5)))
        segments = []
        prev = 0
        for cut in cuts:
            segments.append((prev, payload[prev:cut]))
            prev = cut
        if prev < len(payload):
            segments.append((prev, payload[prev:]))
        rng.shuffle(segments)
        if rng.random() < 0.5:  # duplicate a random segment
            segments.append(rng.choice(segments))
        recv = StreamRecv()
        for offset, data in segments:
            recv.add(offset, data, fin=False)
        recv.add(len(payload), b"", fin=True)
        assert recv.finished
        assert recv.delivered == payload
