"""Loopback integration: the suite against its own reference server."""

import select
import sys
import threading
import time
import types

import pytest

from quicprobe.conn import Connection
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
from quicprobe.traces import read_corpus, write_trace
from quicprobe.wire import (
    AckFrame,
    StreamFrame,
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
    for trace in traces:
        write_trace(trace, tmp_path)
    corpus, warnings = read_corpus(tmp_path)
    assert warnings == []
    for trace in corpus.traces:
        for entry in trace.packets:
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


def test_stop_interrupts_blocked_read():
    server = serve(ServerConfig())
    t0 = time.monotonic()
    server.stop()
    assert time.monotonic() - t0 < 1.0
    assert server.sock is None


def test_idle_server_sleeps_until_stopped(monkeypatch):
    calls = []

    def counting_select(*args):
        calls.append(args)
        return select.select(*args)

    monkeypatch.setattr(server_module, "select", types.SimpleNamespace(select=counting_select))
    before = set(threading.enumerate())
    server = serve(ServerConfig())
    (thread,) = set(threading.enumerate()) - before
    time.sleep(0.3)
    server.stop()
    assert len(calls) <= 1, len(calls)
    assert not thread.is_alive()
    assert server.sock is None


def test_reordering_settles_only_after_an_answer(monkeypatch, compliant_server):
    settles = []
    settle = Connection.settle

    def recording_settle(conn, seconds):
        settles.append(seconds)
        settle(conn, seconds)

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


def test_handler_error_is_recorded_and_server_keeps_serving(monkeypatch):
    def broken(self, data, level):
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
    # every scenario of both targets at once: fourteen interleaved clients,
    # with threads switched far more often than by default
    port = compliant_server.port
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_two_parallel_targets([port, port], sorted(ALL_SCENARIOS))
    finally:
        sys.setswitchinterval(interval)


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
