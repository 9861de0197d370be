"""Direct checks of each fault's wire-level behaviour, beyond the error
codes the scenario matrix asserts."""

import contextlib
import socket
import sys
import time

import pytest

from quicprobe.conn import FULL_ROSTER, Connection, drive, perform_handshake
from quicprobe.faultsrv import (
    FaultServer,
    FaultSpec,
    ServerConfig,
    default_transport_parameters,
    serve,
)
from quicprobe.protection import EncryptionLevel, NullHandshakeProvider
from quicprobe.scenarios import SuitePlan, codes, run_scenario, run_suite
from quicprobe.scenarios.base import default_client_tp, stream_frames_from_trace
from quicprobe.traces import TraceBuilder
from quicprobe.wire import encode_transport_parameters
from quicprobe.wire.transport_params import (
    TP_INITIAL_MAX_DATA,
    TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL,
    TP_MAX_IDLE_TIMEOUT,
)
from quicprobe.wire.varint import decode_varint


def new_trace():
    return TraceBuilder("handshake", 1, {"name": "loopback"})


def connect(server, client_tp=None):
    tp = client_tp or default_client_tp()
    provider = NullHandshakeProvider(
        seed=7, is_client=True, local_tp=encode_transport_parameters(tp)
    )
    conn = Connection("127.0.0.1", server.port, provider, new_trace(), roster=FULL_ROSTER)
    conn.start()
    return conn


@contextlib.contextmanager
def fault_server(fault: str):
    """A running fault server; on a clean exit it must have recorded no
    handler errors."""
    server = serve(ServerConfig(fault=FaultSpec(name=fault)))
    try:
        yield server
    finally:
        server.stop()
    assert server.errors == []


def tp_ids(raw: bytes) -> list[int]:
    ids = []
    pos = 0
    while pos < len(raw):
        param_id, used, _ = decode_varint(raw, pos)
        pos += used
        length, used, _ = decode_varint(raw, pos)
        pos += used + length
        ids.append(param_id)
    return ids


def test_interleaved_connections_on_one_server():
    with fault_server("none") as server:
        # both Initials reach the server before either handshake goes on
        conns = [connect(server), connect(server)]
        for conn in conns:
            assert drive([perform_handshake(conn, 3.0)]) == [None]
        for conn in conns:
            conn.send_stream(0, b"GET /index.html\r\n", fin=True)
            drive([conn.run_until(lambda: conn.stream(0).recv.finished, 3.0)])
            assert conn.stream(0).recv.delivered.endswith(b"</html>")

        def close(conn):
            conn.close()
            conn.stop()
            yield from ()

        # the server handles both closes before drive returns
        drive([close(conn) for conn in conns])
        assert server.conns == {}


def test_reordered_pair_is_never_resent():
    # the reordering scenario runs without the retransmission agent, so
    # its two packets go out once however long the server stays silent;
    # 1200 ms outlasts the 500 ms retransmission timer twice over
    with fault_server("reorder_livelock") as server:
        target = {"name": "loopback", "host": "127.0.0.1", "port": server.port}
        trace = run_scenario("stream_opening_reordering", target, timeout_ms=1200)
    assert trace.error_code == codes.SOR_NO_RESPONSE
    assert len(stream_frames_from_trace(trace, 0, "tx")) == 2


def test_idle_connections_are_forgotten():
    # a livelocked connection never sees the client's close, so only its
    # advertised idle timeout ends its entry
    tp = default_transport_parameters()
    tp.set_int(TP_MAX_IDLE_TIMEOUT, 500)
    server = serve(ServerConfig(fault=FaultSpec(name="reorder_livelock"), transport_parameters=tp))
    try:
        plan = SuitePlan(
            targets=[{"name": "l", "host": "127.0.0.1", "port": server.port}],
            scenarios=["stream_opening_reordering"],
            timeout_ms=1000,
        )
        assert run_suite(plan)[0].error_code == codes.SOR_NO_RESPONSE
        first = set(server.conns)
        assert len(first) == 1
        time.sleep(0.6)
        assert run_suite(plan)[0].error_code == codes.SOR_NO_RESPONSE
        assert len(server.conns) == 1 and not first & set(server.conns)
    finally:
        server.stop()
    assert server.errors == []


def test_tp_duplicate_blob_contains_initial_max_data_twice():
    with fault_server("tp_duplicate") as server:
        conn = connect(server)
        assert drive([perform_handshake(conn, 3.0)]) == [None]
        ids = tp_ids(conn.provider.peer_tp_raw)
        assert ids.count(0x04) == 2
        conn.close()
        conn.stop()


def test_stream_blocked_spam_sends_25_blocked_and_duplicates_second_half():
    with fault_server("stream_blocked_spam") as server:
        tp = default_client_tp({TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL: 80, TP_INITIAL_MAX_DATA: 4096})
        conn = connect(server, client_tp=tp)
        assert drive([perform_handshake(conn, 3.0)]) == [None]
        conn.send_stream(0, b"GET /index.html\r\n", fin=True)
        drive(
            [
                conn.run_until(
                    lambda: conn.stream(0).recv.highest_offset >= 80
                    and conn.blocked_frames_received >= 25,
                    3.0,
                )
            ]
        )
        assert conn.blocked_frames_received >= 25
        # raise the limit anyway: the second half must arrive duplicated
        conn.raise_stream_limit(0, 160)
        drive([conn.run_until(lambda: conn.stream(0).recv.finished, 3.0)])
        assert conn.stream(0).recv.delivered.endswith(b"</html>")
        # count server STREAM frames at offset 80: the duplicate retransmission
        from quicprobe.wire import StreamFrame, parse_frames, parse_header

        at_80 = 0
        for entry in server.sent_log:
            raw = bytes.fromhex(entry["cleartext_hex"])
            header, offset = parse_header(raw, short_dcid_len=8)
            if header.packet_type.value in ("version_negotiation", "retry"):
                continue
            for frame in parse_frames(raw[offset:]):
                if isinstance(frame, StreamFrame) and frame.offset == 80 and frame.data:
                    at_80 += 1
        assert at_80 >= 2
        conn.close()
        conn.stop()


def test_no_amplification_blast_is_padding_at_handshake_level():
    with fault_server("no_amplification_limit") as server:
        conn = connect(server)
        assert drive([perform_handshake(conn, 3.0)]) == [None]
        drive([conn.run_until(lambda: conn.bytes_received > 20_000, 3.0)])
        assert conn.bytes_received > 20_000
        conn.close()
        conn.stop()


def test_reject_0rtt_drops_early_data_but_completes_handshake():
    with fault_server("reject_0rtt") as server:
        # first connection: harvest the ticket
        conn1 = connect(server)
        assert drive([perform_handshake(conn1, 3.0)]) == [None]
        drive([conn1.run_until(lambda: conn1.provider.resumption_ticket() is not None, 2.0)])
        ticket = conn1.provider.resumption_ticket()
        assert ticket is not None
        conn1.close()
        conn1.stop()

        tp = default_client_tp()
        provider = NullHandshakeProvider(
            seed=7, is_client=True, local_tp=encode_transport_parameters(tp), ticket=ticket
        )
        conn2 = Connection(
            "127.0.0.1",
            server.port,
            provider,
            new_trace(),
            roster=FULL_ROSTER,
            assumed_peer_tp=default_client_tp(),
        )
        conn2.start()
        conn2.send_stream(0, b"GET /index.html\r\n", fin=True, level=EncryptionLevel.ZERO_RTT)
        assert drive([perform_handshake(conn2, 3.0)]) == [None]
        assert not conn2.provider.early_data_accepted
        conn2.close()
        conn2.stop()


def test_bad_1rtt_protection_corrupts_only_control_packets():
    with fault_server("bad_1rtt_protection") as server:
        tp = default_client_tp()
        conn = connect(server, client_tp=tp)
        assert drive([perform_handshake(conn, 3.0)]) == [None]
        conn.send_stream(0, b"GET /index.html\r\n", fin=True)
        drive([conn.run_until(lambda: conn.stream(0).recv.finished, 3.0)])
        # data still flows: packets carrying STREAM frames are untouched
        assert conn.stream(0).recv.delivered.endswith(b"</html>")
        corrupted = [e for e in server.sent_log if e["corrupted"]]
        assert all(e["level"] == "one_rtt" for e in corrupted)
        conn.close()
        conn.stop()


def test_handshake_detects_bad_1rtt_protection_every_time():
    # the probe's ACK is the corrupted packet; a verdict taken before it
    # arrives would read 0
    with fault_server("bad_1rtt_protection") as server:
        target = {"name": "loopback", "host": "127.0.0.1", "port": server.port}
        verdicts = [
            run_scenario("handshake", target, timeout_ms=2000).error_code for _ in range(20)
        ]
    assert verdicts == [codes.HS_ONE_RTT_KEYS_UNUSABLE] * 20


def test_server_reads_a_padded_client_hello_without_a_varint_per_byte(monkeypatch):
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(2.0)
    try:
        provider = NullHandshakeProvider(
            seed=7, is_client=True, local_tp=encode_transport_parameters(default_client_tp())
        )
        conn = Connection(
            "127.0.0.1", peer.getsockname()[1], provider, new_trace(), roster=FULL_ROSTER
        )
        conn.start()
        hello, addr = peer.recvfrom(65535)
        conn.stop()
    finally:
        peer.close()
    assert len(hello) == 1200

    calls = []

    def counting(buf, offset=0):
        calls.append(offset)
        return decode_varint(buf, offset)

    for name, module in list(sys.modules.items()):
        if name.startswith("quicprobe") and getattr(module, "decode_varint", None) is decode_varint:
            monkeypatch.setattr(module, "decode_varint", counting)
    server = FaultServer(ServerConfig())  # never started: its answers go nowhere
    server._handle_datagram(hello, addr)
    assert server.errors == []
    assert server.conns[addr].provider.peer_tp_raw is not None
    assert server.sent_log  # the hello was answered
    # 19 for the header, the CRYPTO frame and the transport parameters;
    # the PADDING that fills the datagram to 1200 bytes adds none
    assert len(calls) <= 32
