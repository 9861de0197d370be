"""Loopback integration: the suite against its own reference server."""

import errno
import os
import selectors
import socket
import time
import types

import pytest

from quicprobe.conn import Connection, drive
from quicprobe.conn import driver as driver_module
from quicprobe.dissector import coverage_ok, dissect, quic_v1_description
from quicprobe.faultsrv import FAULT_EXPECTATIONS, FaultSpec, ServerConfig, default_body, serve
from quicprobe.faultsrv import server as server_module
from quicprobe.scenarios import (
    ALL_SCENARIOS,
    SuitePlan,
    codes,
    run_scenario,
    run_suite,
    scenario_order,
)
from quicprobe.scenarios.core import REORDER_SETTLE_S
from quicprobe.traces import read_corpus, read_trace, write_trace
from quicprobe.wire import (
    AckFrame,
    PacketType,
    StreamFrame,
    packet_type_of,
    parse_frames,
    parse_header,
)


@pytest.fixture
def compliant_server():
    server = serve(ServerConfig())
    yield server
    server.stop()
    assert server.errors == []


def target_of(server):
    return {"name": "loopback", "host": "127.0.0.1", "port": server.port}


def test_default_body_shape():
    body = default_body(160)
    assert len(body) == 160
    assert body.startswith(b"<html>") and body.endswith(b"</html>")


def test_small_index_body_rejected():
    with pytest.raises(ValueError):
        ServerConfig(resources={"/index.html": b"tiny"})


def test_unknown_fault_rejected():
    with pytest.raises(ValueError):
        FaultSpec(name="gremlins")


def test_compliant_baseline_all_scenarios_pass(compliant_server):
    plan = SuitePlan(targets=[target_of(compliant_server)], seed=9)
    traces = run_suite(plan)
    assert {t.scenario for t in traces} == set(plan.scenarios)
    for trace in traces:
        assert trace.error_code == 0, (trace.scenario, trace.error_code, trace.results)


def test_every_logged_cleartext_packet_reparses_and_dissects(compliant_server, tmp_path):
    plan = SuitePlan(targets=[target_of(compliant_server)], seed=11)
    traces = run_suite(plan)
    desc = quic_v1_description()
    packets = 0
    paths = [write_trace(trace, tmp_path) for trace in traces]
    _, warnings = read_corpus(tmp_path)
    assert warnings == []
    for path in paths:
        for entry in read_trace(path).packets:
            if "cleartext_hex" not in entry:
                continue
            raw = bytes.fromhex(entry["cleartext_hex"])
            header, offset = parse_header(raw, short_dcid_len=entry.get("dcid_len", 8))
            if header.packet_type.value not in ("version_negotiation", "retry"):
                parse_frames(raw[offset:])
            tree = dissect(raw, desc)
            assert coverage_ok(tree, len(raw))
            packets += 1
    assert packets > 40  # a real exchange was logged


def test_compliant_server_never_misbehaves(compliant_server):
    plan = SuitePlan(targets=[target_of(compliant_server)], seed=13)
    run_suite(plan)
    for entry in compliant_server.sent_log:
        assert not entry["corrupted"]
        raw = bytes.fromhex(entry["cleartext_hex"])
        header, offset = parse_header(raw, short_dcid_len=8)
        if header.packet_type.value in ("version_negotiation", "retry"):
            continue
        for frame in parse_frames(raw[offset:]):
            if isinstance(frame, StreamFrame):
                assert not frame.is_empty_non_fin
            if isinstance(frame, AckFrame):
                assert not frame.range_sanity_error


def test_flow_control_trace_shows_80_then_160(compliant_server):
    trace = run_scenario("flow_control", target_of(compliant_server))
    assert trace.error_code == 0
    offsets = trace.results["offsets"]
    first_burst = [o for o in offsets if o["offset"] + o["length"] <= 80]
    assert max(o["offset"] + o["length"] for o in first_burst) == 80
    assert max(o["offset"] + o["length"] for o in offsets) <= 160
    assert trace.results["first_burst_bytes"] == 80
    assert trace.results["total_bytes"] == 160


def test_single_fault_only_flow_control_fails(compliant_server):
    server = serve(ServerConfig(fault=FaultSpec(name="ignore_stream_limit")))
    try:
        plan = SuitePlan(targets=[target_of(server)], seed=2, timeout_ms=3000)
        traces = {t.scenario: t.error_code for t in run_suite(plan)}
    finally:
        server.stop()
    assert server.errors == []
    assert traces["flow_control"] == 7
    assert all(code == 0 for name, code in traces.items() if name != "flow_control")


def test_server_handles_consecutive_connections(compliant_server):
    target = target_of(compliant_server)
    for _ in range(3):
        trace = run_scenario("handshake", target)
        assert trace.error_code == 0


def test_no_close_follows_a_version_negotiation(compliant_server):
    # RFC 9000 section 6.2: the client abandons the attempt, so its
    # teardown sends nothing the server would answer with a second VN
    target = target_of(compliant_server)
    trace = run_scenario("version_negotiation", target)
    # the server reads its socket in order, so by the time it answered
    # this handshake it has answered anything the probe sent before it
    assert run_scenario("handshake", target).error_code == 0
    assert trace.error_code == 0
    assert [p["direction"] for p in trace.packets] == ["tx", "rx"]
    sent = [bytes.fromhex(entry["cleartext_hex"]) for entry in compliant_server.sent_log]
    assert [packet_type_of(d) for d in sent].count(PacketType.VERSION_NEGOTIATION) == 1


def test_no_close_follows_a_probe_no_server_answered():
    # the attempt under an unknown version is abandoned all the same: the
    # one packet sent is the probe, none is a close under that version
    server = serve(ServerConfig(fault=FaultSpec(name="vn_silent")))
    try:
        trace = run_scenario("version_negotiation", target_of(server), timeout_ms=300)
    finally:
        server.stop()
    assert server.errors == [] and server.sent_log == []
    assert trace.error_code == codes.PREREQ_VN_NO_RESPONSE
    assert [p["direction"] for p in trace.packets] == ["tx"]


def test_a_served_server_holds_no_connection_once_a_suite_returns(compliant_server):
    # drive's last poll hands the server every scenario's closing packet
    for seed in range(5):
        plan = SuitePlan(targets=[target_of(compliant_server)], seed=seed)
        assert [t.error_code for t in run_suite(plan)] == [0] * len(plan.scenarios)
        assert compliant_server.conns == {}, seed


def test_stop_interrupts_blocked_read():
    server = serve(ServerConfig())
    t0 = time.monotonic()
    server.stop()
    assert time.monotonic() - t0 < 1.0
    assert server.sock is None


def test_idle_server_sleeps_until_stopped(monkeypatch):
    # an idle served server adds no wakeup to a drive that waits on
    # something else: one select, which lasts until the task's deadline
    calls = []

    class CountingSelector(selectors.DefaultSelector):
        def select(self, timeout=None):
            if timeout != 0:  # a poll that does not wait is not a wait
                calls.append(timeout)
            return super().select(timeout)

    monkeypatch.setattr(
        driver_module,
        "selectors",
        types.SimpleNamespace(DefaultSelector=CountingSelector, EVENT_READ=selectors.EVENT_READ),
    )
    server = serve(ServerConfig())
    quiet, peer = socket.socketpair()

    def wait_quietly():
        return (yield quiet, 0.3)

    try:
        assert drive([wait_quietly()]) == [None]
    finally:
        quiet.close()
        peer.close()
        server.stop()
    assert calls == [pytest.approx(0.3, abs=0.05)]  # one wait, not vacuous
    assert server.sock is None


def test_reordering_settles_only_after_an_answer(monkeypatch, compliant_server):
    settles = []
    settle = Connection.settle

    def recording_settle(conn, seconds):
        settles.append(seconds)
        yield from settle(conn, seconds)

    monkeypatch.setattr(Connection, "settle", recording_settle)
    silent = serve(ServerConfig(fault=FaultSpec(name="reorder_livelock")))
    try:
        trace = run_scenario("stream_opening_reordering", target_of(silent), timeout_ms=300)
    finally:
        silent.stop()
    assert silent.errors == []
    assert trace.error_code == codes.SOR_NO_RESPONSE
    assert settles == []
    trace = run_scenario("stream_opening_reordering", target_of(compliant_server))
    assert trace.error_code == codes.SUCCESS
    assert settles == [REORDER_SETTLE_S]


@pytest.mark.parametrize(
    "fault, scenario",
    [
        ("none", "address_validation"),
        ("none", "flow_control"),
        ("no_amplification_limit", "address_validation"),
        ("ignore_stream_limit", "flow_control"),
        ("empty_stream_frames", "flow_control"),
        ("stream_blocked_spam", "flow_control"),
        ("ack_gap_overflow", "stream_opening_reordering"),
    ],
)
def test_settle_judged_verdicts_hold_under_fast_thread_switching(fault, scenario):
    # a settle that ends on the peer's silence must still see all of what
    # the server sends, in every one of ten runs
    server = serve(ServerConfig(fault=FaultSpec(name=fault)))
    try:
        traces = [run_scenario(scenario, target_of(server), timeout_ms=2000) for _ in range(10)]
    finally:
        server.stop()
    assert server.errors == []
    want = FAULT_EXPECTATIONS[fault].get(scenario, 0)
    assert [t.error_code for t in traces] == [want] * 10, [t.results for t in traces]
    for trace in traces:
        if (fault, scenario) == ("none", "flow_control"):
            assert (trace.results["first_burst_bytes"], trace.results["total_bytes"]) == (80, 160)
        if (fault, scenario) == ("none", "address_validation"):
            assert trace.results["ratio"] <= 3


def test_handler_error_is_recorded_and_server_keeps_serving(monkeypatch):
    def broken(self, data, level, read):
        raise RuntimeError("handler bug")

    server = serve(ServerConfig())
    try:
        monkeypatch.setattr(server_module._ServerConn, "handle_datagram", broken)
        trace = run_scenario("handshake", target_of(server), timeout_ms=300)
        assert trace.error_code == codes.PREREQ_NO_RESPONSE
        assert server.errors and set(server.errors) == {repr(RuntimeError("handler bug"))}
        monkeypatch.undo()
        assert run_scenario("handshake", target_of(server)).error_code == 0
    finally:
        server.stop()


def test_each_client_datagram_costs_the_server_one_header_read(monkeypatch):
    from quicprobe.protection import packet as packet_module
    from quicprobe.wire import header as header_module

    reads = []
    datagrams = []
    handling = []  # the datagram the server is handling, if any

    def counting(read_header):
        def read_in_server(*args, **kwargs):
            if handling:
                reads.append(args[0])
            return read_header(*args, **kwargs)

        return read_in_server

    for module in (server_module, packet_module, header_module):
        monkeypatch.setattr(module, "read_header", counting(module.read_header))
    handle = server_module.FaultServer._handle_datagram

    def counting_handle(server, data, addr):
        datagrams.append(data)
        handling.append(data)
        try:
            return handle(server, data, addr)
        finally:
            handling.pop()

    monkeypatch.setattr(server_module.FaultServer, "_handle_datagram", counting_handle)
    server = serve(ServerConfig())
    try:
        plan = SuitePlan(targets=[target_of(server)], seed=4)
        assert [t.error_code for t in run_suite(plan)] == [0] * len(plan.scenarios)
    finally:
        server.stop()
    assert server.errors == []
    assert datagrams and reads == datagrams


def test_send_error_is_recorded_and_server_keeps_serving():
    server = serve(ServerConfig())
    try:
        server.sendto(b"x" * 70_000, ("127.0.0.1", server.port))
        assert server.errors == [repr(OSError(errno.EMSGSIZE, os.strerror(errno.EMSGSIZE)))]
        plan = SuitePlan(targets=[target_of(server)], seed=13)
        codes_by_scenario = {t.scenario: t.error_code for t in run_suite(plan)}
        assert codes_by_scenario == dict.fromkeys(plan.scenarios, 0)
    finally:
        server.stop()
    assert len(server.errors) == 1


def _ipv6_available() -> bool:
    import socket

    try:
        sock = socket.socket(socket.AF_INET6, socket.SOCK_DGRAM)
        sock.bind(("::1", 0))
        sock.close()
        return True
    except OSError:
        return False


@pytest.mark.skipif(not _ipv6_available(), reason="no IPv6 loopback")
def test_handshake_over_ipv6():
    server = serve(ServerConfig(host="::1"))
    try:
        trace = run_scenario(
            "handshake", {"name": "v6", "host": "::1", "port": server.port}
        )
    finally:
        server.stop()
    assert server.errors == []
    assert trace.error_code == 0


def _run_two_parallel_targets(ports, scenarios):
    plan = SuitePlan(
        targets=[
            {"name": name, "host": "127.0.0.1", "port": port}
            for name, port in zip(("one", "two"), ports)
        ],
        scenarios=scenarios,
        seed=4,
        parallel=2,
    )
    traces = run_suite(plan)
    order = scenario_order(plan.scenarios, plan.seed)
    assert [(t.target["name"], t.scenario) for t in traces] == [
        (name, scenario) for name in ("one", "two") for scenario in order
    ]
    assert [(t.target["name"], t.scenario, t.error_code) for t in traces if t.error_code] == []


def test_two_parallel_targets():
    s1, s2 = serve(ServerConfig()), serve(ServerConfig())
    try:
        _run_two_parallel_targets([s1.port, s2.port], ["handshake", "flow_control"])
    finally:
        s1.stop()
        s2.stop()
    assert s1.errors == [] and s2.errors == []


def test_two_parallel_targets_on_one_server(compliant_server):
    # every scenario of both targets at once: fourteen interleaved clients
    port = compliant_server.port
    _run_two_parallel_targets([port, port], sorted(ALL_SCENARIOS))


def _is_retry(entry) -> bool:
    return entry["level"] == "none" and int(entry["cleartext_hex"][:2], 16) & 0xB0 == 0xB0


@pytest.mark.parametrize(
    "fault", ["none", "stall_after_sh", "no_amplification_limit", "reject_0rtt"]
)
def test_verdicts_hold_when_a_busy_server_answers_with_retry(fault):
    # a server under load may answer a burst of client hellos with Retry;
    # all of a target's scenarios start at once, so most of them get one
    server = serve(ServerConfig(fault=FaultSpec(name=fault), retry_above=1))
    try:
        plan = SuitePlan(targets=[target_of(server)], seed=21, timeout_ms=2000)
        traces = run_suite(plan)
    finally:
        server.stop()
    assert server.errors == []
    expected = FAULT_EXPECTATIONS[fault]
    assert {t.scenario: t.error_code for t in traces} == {
        name: expected.get(name, 0) for name in plan.scenarios
    }
    retried = [t.scenario for t in traces if any(_is_retry(p) for p in t.packets)]
    assert len(retried) >= 3, retried
    desc = quic_v1_description()
    for trace in traces:
        for entry in trace.packets:
            raw = bytes.fromhex(entry["cleartext_hex"])
            assert coverage_ok(dissect(raw, desc), len(raw))
