import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from quicprobe.conn import (
    Connection,
    FULL_ROSTER,
    HandshakeStage,
    PrerequisiteError,
    StreamRecv,
    build_ack,
    drive,
    perform_handshake,
)
from quicprobe.conn.agents import AGENT_TYPES, HOOKS, Agent
from quicprobe.conn.streams import FlowControlAssertion
from quicprobe.faultsrv import ServerConfig, serve
from quicprobe.protection import (
    EncryptionLevel,
    NullHandshakeProvider,
    derive_initial_keys,
    retry_integrity_tag,
    seal_packet,
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
    TransportParameters,
    encode_transport_parameters,
    encode_varint,
    parse_frames,
    read_header,
    serialize_header,
)
from quicprobe.wire.transport_params import TP_MAX_ACK_DELAY

from .exchange import CLIENT_ADDR, Exchange


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
    return seal_packet(header, payload, server_keys)[0]


def feed(conn, datagram):
    conn.receive(datagram, time.monotonic())
    conn._flush()


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
        drive([conn.run_until(lambda: bool(conn.queues[EncryptionLevel.INITIAL]), 2.0)])
        assert conn.queues[EncryptionLevel.INITIAL] == [crypto]
        assert sent.header.packet_number not in conn.space(EncryptionLevel.INITIAL).sent
        conn.stop()

    def test_hook_no_roster_agent_defines_has_no_effect(self, silent_peer):
        conn = make_conn(silent_peer, roster={"parser"})
        assert conn._hooks == {hook: [] for hook in HOOKS}
        conn.run_hook("timeout")
        assert all(not queue for queue in conn.queues.values())
        assert conn.retransmit_at is None
        assert all(not space.sent for space in conn.spaces.values())
        assert not conn.trace.notes
        conn.stop()

    def test_failing_agent_is_isolated(self, silent_peer):
        conn = make_conn(silent_peer)

        def explode(conn_, packet):
            raise RuntimeError("boom")

        conn._agents["tls"].received = explode
        feed(conn, server_packet(conn, [CryptoFrame(offset=0, data=b"x"), PingFrame()], pn=0))
        errors = [note["detail"] for note in conn.trace.notes if note["kind"] == "agent_error"]
        assert errors == [{"agent": "tls", "error": "RuntimeError('boom')"}]
        # the ack agent still ran for the same event
        acks = [
            f
            for packet in conn.space(EncryptionLevel.INITIAL).sent.values()
            for f in packet.frames
            if isinstance(f, AckFrame)
        ]
        assert acks
        conn.stop()

    def test_received_hook_sees_packets_in_arrival_order(self, silent_peer):
        conn = make_conn(silent_peer, roster={"parser", "flow_control"})
        seen = []
        agent = conn._agents["flow_control"]
        original = agent.received
        agent.received = lambda c, p: (seen.append(p.header.packet_number), original(c, p))[1]
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


def test_parser_survives_garbage_datagrams():
    """Random datagrams, one of them empty, reach the client's receive
    path and the reference server, and one-byte changes of a real client
    hello reach the server: neither raises, and the client still speaks
    afterwards. Each header byte takes every other value; each later
    byte, which only the AEAD open reads, is flipped once."""
    import random

    rng = random.Random(5)
    blobs = [rng.randbytes(rng.randint(1, 120)) for _ in range(300)] + [b""]
    exchange = Exchange()
    conn = exchange.conn
    for blob in blobs:
        exchange.receive(blob)
    assert [n for n in exchange.trace.notes if n["kind"] == "agent_error"] == []
    conn.queue_frame(EncryptionLevel.INITIAL, PingFrame())
    sent = len(exchange.to_server)
    conn._flush()
    assert len(exchange.to_server) == sent + 1
    exchange.stop()

    hello = exchange.to_server[0]
    server = exchange.server
    def mutated(at, value):
        return hello[:at] + bytes([value]) + hello[at + 1 :]

    mutations = [mutated(at, hello[at] ^ 0xFF) for at in range(len(hello))]
    _, pn_offset, _ = read_header(hello)
    for at in range(pn_offset + 4):
        mutations += [mutated(at, value) for value in range(256) if value != hello[at]]
    for datagram in blobs + mutations:
        server._handle_datagram(datagram, CLIENT_ADDR)
    assert server.errors == []


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
    assert drive([perform_handshake(conn, 0.15)]) == [HandshakeStage.NO_RESPONSE]
    conn.stop()


def test_queued_frame_goes_out_before_the_wait(silent_peer):
    trace = TraceBuilder("handshake", 1, {"name": "t"})
    conn = make_conn(silent_peer, roster={"retransmission", "bundler"}, trace=trace)
    conn.queue_frame(EncryptionLevel.INITIAL, PingFrame())
    drive([conn.run_until(lambda: False, 1.5)])
    sent_ms = [entry["timestamp_ms"] for entry in trace.packets if entry["direction"] == "tx"]
    conn.stop()
    # sent at once, and the timer that send armed brings the resend at
    # 500 ms, not at the deadline
    assert sent_ms[0] < 100, sent_ms
    assert 450 <= sent_ms[1] < 900, sent_ms


def test_the_rtt_sample_starts_before_the_send(monkeypatch):
    # a peer can answer before the send returns, so the clock must start
    # before it: here each send stalls 20 ms before its datagram goes out,
    # and the sample must hold those 20 ms
    class StallingSocket(socket.socket):
        def send(self, data, *args):
            time.sleep(0.02)
            return super().send(data, *args)

    server = serve(ServerConfig(seed=1))  # make_conn's provider seed
    try:
        monkeypatch.setattr(socket, "socket", StallingSocket)
        conn = make_conn(("127.0.0.1", server.port))
        monkeypatch.undo()
        drive([conn.run_until(lambda: conn.rtt is not None, 2.0)])
        conn.stop()
    finally:
        server.stop()
    assert server.errors == []
    assert conn.rtt is not None and 0.02 <= conn.rtt < 0.5, conn.rtt


def test_settle_sees_a_datagram_that_arrives_late():
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    conn = make_conn(peer.getsockname(), roster=frozenset())
    client = conn.sock.getsockname()
    late = threading.Timer(0.1, peer.sendto, (b"\x00" * 70, client))
    try:
        peer.sendto(b"\x00" * 50, client)
        late.start()
        drive([conn.settle(0.3)])
        assert conn.bytes_received == 120
    finally:
        late.join()
        conn.stop()
        peer.close()


def test_an_empty_datagram_is_noted_and_the_next_one_read():
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    conn = make_conn(peer.getsockname(), roster=frozenset())
    client = conn.sock.getsockname()

    def stamped(pump):
        """Run ``pump`` and return what the driver resumed it with."""
        arrived = yield next(pump)
        with pytest.raises(StopIteration):
            pump.send(arrived)
        return arrived

    try:
        peer.sendto(b"", client)
        peer.sendto(b"\x00" * 60, client)
        (arrived,) = drive([stamped(conn.pump(1.0))])
        assert arrived is not None
        assert conn.bytes_received == 60 and conn.last_received_at == arrived
        assert [note["kind"] for note in conn.trace.notes] == ["empty_datagram"]
    finally:
        conn.stop()
        peer.close()


@pytest.fixture
def scripted_peer():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(2.0)
    yield sock
    sock.close()


def sampled_conn(peer, delay=0.0, **kwargs):
    """A connection whose first datagram the peer answers ``delay``
    seconds late, so it holds one RTT sample; and the client's address."""
    conn = make_conn(peer.getsockname(), roster={"bundler"}, **kwargs)
    conn.queue_frame(EncryptionLevel.INITIAL, PingFrame())
    drive([conn.pump(0)])
    _, client = peer.recvfrom(65535)
    time.sleep(delay)
    peer.sendto(b"\x00" * 30, client)
    drive([conn.pump(1.0)])
    assert conn.rtt is not None and conn.rtt >= delay
    return conn, client


@pytest.mark.parametrize(
    "entries, max_ack_delay_ms",
    [
        ({}, 25),
        ({TP_MAX_ACK_DELAY: encode_varint(150)}, 150),
        ({TP_MAX_ACK_DELAY: b"\x10\x00"}, 25),  # trailing byte: as if absent
    ],
)
def test_settle_ends_one_probe_timeout_after_the_peer_fell_silent(
    scripted_peer, entries, max_ack_delay_ms
):
    conn, _ = sampled_conn(scripted_peer, assumed_peer_tp=TransportParameters(entries=entries))
    try:
        pto = 3 * conn.rtt + max_ack_delay_ms / 1000
        assert conn.probe_timeout() == pytest.approx(pto)
        t0 = time.monotonic()
        drive([conn.settle(1.0)])
        waited = time.monotonic() - t0
    finally:
        conn.stop()
    assert pto <= waited < 0.5
    note = conn.trace.notes[-1]
    assert note["kind"] == "settle"
    assert note["detail"] == {
        "window_ms": 1000.0,
        "rtt_ms": round(conn.rtt * 1000, 1),
        "quiet_ms": round(pto * 1000, 1),
        "waited_ms": pytest.approx(waited * 1000, abs=1),
        "ended": "quiet",
    }


def test_settle_watches_a_peer_that_keeps_sending_for_the_whole_window(scripted_peer):
    # 30 ms away: the probe timeout is over 115 ms, the peer's gaps 20 ms
    conn, client = sampled_conn(scripted_peer, delay=0.03)
    received = conn.bytes_received
    start = time.monotonic()

    def send_every_20ms():
        for k in range(1, 13):
            time.sleep(max(0.0, start + 0.02 * k - time.monotonic()))
            scripted_peer.sendto(b"\x00" * 40, client)

    sender = threading.Thread(target=send_every_20ms)
    sender.start()
    try:
        drive([conn.settle(0.3)])
        waited = time.monotonic() - start
    finally:
        sender.join(2.0)
        conn.stop()
    assert not sender.is_alive()
    assert waited >= 0.3
    assert conn.bytes_received == received + 12 * 40
    assert conn.trace.notes[-1]["detail"]["ended"] == "window"


def test_settle_without_an_rtt_sample_runs_the_whole_window(silent_peer):
    conn = make_conn(silent_peer, roster=frozenset())
    try:
        drive([conn.settle(0.1)])
    finally:
        conn.stop()
    detail = conn.trace.notes[-1]["detail"]
    assert detail["waited_ms"] >= 100
    assert (detail["rtt_ms"], detail["quiet_ms"], detail["ended"]) == (None, None, "window")


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
            drive([conn.pump(1.0)])
            again, crypto, size, _ = self.read_initial(peer, b"\x11" * 8)
            assert (again.dcid, again.token, crypto) == (b"\x11" * 8, b"tok", hello)
            assert again.packet_number > first.packet_number  # numbers go on
            assert size >= 1200
            # a second Retry is not followed
            peer.sendto(self.retry(conn, b"\x22" * 8, b"tok2"), addr)
            drive([conn.pump(1.0)])
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
            drive([conn.pump(1.0)])
            assert (conn.dcid, conn.retry_token) == (conn.original_dcid, b"")
            assert [n["detail"] for n in conn.trace.notes] == [reason]
        finally:
            conn.stop()


def test_every_agent_method_is_a_hook():
    """Hooks are found by override, so a misspelled one would never run:
    every public method an agent type defines is a hook or one the
    connection calls by name, and every hook but ``start`` has an agent."""
    called_by_name = {"datagram", "flush"}
    for cls in AGENT_TYPES.values():
        methods = {
            attr for attr in vars(cls) if not attr.startswith("_") and callable(getattr(cls, attr))
        }
        assert methods <= set(HOOKS) | called_by_name, cls.__name__
    assert set(vars(Agent)) >= set(HOOKS)
    for hook in set(HOOKS) - {"start"}:
        defining = [cls for cls in AGENT_TYPES.values() if hook in vars(cls)]
        assert defining, hook


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
        reads = []
        for offset, data in segments:
            recv.add(offset, data, fin=False)
            reads.append(recv.read())
        recv.add(len(payload), b"", fin=True)
        assert recv.finished
        assert recv.delivered == payload
        assert b"".join(reads) == payload and recv.read() == b""
