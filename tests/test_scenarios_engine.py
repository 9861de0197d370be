import errno
import socket
import time

import pytest

from quicprobe.cli import parse_targets_file
from quicprobe.faultsrv import FAULT_EXPECTATIONS
from quicprobe.scenarios import (
    ALL_SCENARIOS,
    ScenarioContext,
    SuitePlan,
    codes,
    run_scenario,
    run_suite,
    scenario_order,
)
from quicprobe.traces import TraceBuilder, outcome


# Independent re-implementation of the documented order sampler
# (Fisher-Yates over a splitmix64 stream, canonical sorted input),
# written from the published splitmix64 constants.
def oracle_order(names, seed):
    mask = (1 << 64) - 1
    state = seed & mask

    def next_value():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    result = sorted(names)
    for i in range(len(result) - 1, 0, -1):
        j = next_value() % (i + 1)
        result[i], result[j] = result[j], result[i]
    return result


class TestOrdering:
    def test_same_seed_same_order(self):
        names = sorted(ALL_SCENARIOS)
        assert scenario_order(names, 42) == scenario_order(names, 42)

    def test_matches_independent_oracle(self):
        names = sorted(ALL_SCENARIOS)
        for seed in range(1, 101):
            assert scenario_order(names, seed) == oracle_order(names, seed)

    def test_seeds_1_to_100_give_95_distinct_orderings(self):
        names = sorted(ALL_SCENARIOS)
        orders = {tuple(oracle_order(names, seed)) for seed in range(1, 101)}
        assert len(orders) >= 95
        package_orders = {tuple(scenario_order(names, seed)) for seed in range(1, 101)}
        assert package_orders == orders

    def test_order_is_a_permutation(self):
        names = sorted(ALL_SCENARIOS)
        assert sorted(scenario_order(names, 7)) == names


class TestCodesRegistry:
    def test_every_expected_code_registered(self):
        used = {0}
        for expectations in FAULT_EXPECTATIONS.values():
            used.update(expectations.values())
        for code in used:
            assert code in codes.REGISTRY, f"code {code} not registered"

    def test_bands(self):
        assert outcome(0) == "success"
        assert outcome(1) == outcome(199) == "failure"
        assert outcome(200) == outcome(255) == "error"
        # codes outside every band count as errors
        assert outcome(-1) == outcome(256) == "error"

    def test_descriptions_exist_for_all_registered(self):
        for code, text in codes.REGISTRY.items():
            assert isinstance(text, str) and text


class TestSuitePlan:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            SuitePlan(targets=[], scenarios=["no_such_test"])

    def test_defaults_cover_all_scenarios(self):
        plan = SuitePlan(targets=[])
        assert sorted(plan.scenarios) == sorted(ALL_SCENARIOS)


class TestTargetsFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text("# comment\nlocal,127.0.0.1:4433\n\nother,quic.example.net:443\n")
        targets = parse_targets_file(str(path))
        assert targets == [
            {"name": "local", "host": "127.0.0.1", "port": 4433},
            {"name": "other", "host": "quic.example.net", "port": 443},
        ]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text("oops\n")
        with pytest.raises(SystemExit):
            parse_targets_file(str(path))


def test_malformed_vn_reply_reports_code_1():
    import threading

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(3)

    def responder():
        try:
            data, addr = sock.recvfrom(65535)
        except OSError:
            return
        # long header, version 0, empty cids, then a misaligned version list
        reply = bytes([0xC0]) + b"\x00" * 4 + b"\x00" + b"\x00" + b"\x00\x00\x01"
        sock.sendto(reply, addr)

    thread = threading.Thread(target=responder, daemon=True)
    thread.start()
    try:
        trace = run_scenario(
            "version_negotiation",
            {"name": "broken", "host": "127.0.0.1", "port": sock.getsockname()[1]},
            timeout_ms=2000,
        )
    finally:
        thread.join(timeout=3)
        sock.close()
    assert trace.error_code == codes.VN_MALFORMED
    assert "multiple of 4" in trace.results["error"]


class TestUnreachableTarget:
    def test_prerequisite_trichotomy(self):
        # a bound-but-silent UDP socket: reachable address, no QUIC behind it
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        try:
            plan = SuitePlan(
                targets=[{"name": "dead", "host": "127.0.0.1", "port": sock.getsockname()[1]}],
                seed=3,
                timeout_ms=400,
            )
            traces = run_suite(plan)
        finally:
            sock.close()
        assert len(traces) == len(ALL_SCENARIOS)
        for trace in traces:
            scenario = ALL_SCENARIOS[trace.scenario]
            if scenario.requires_handshake:
                assert 200 <= trace.error_code <= 255, (trace.scenario, trace.error_code)
                assert outcome(trace.error_code) == "error"

    def test_scenarios_of_a_target_wait_together(self):
        # every scenario waits out its timeout on a silent socket; run one
        # after another they would start seconds apart
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        try:
            plan = SuitePlan(
                targets=[{"name": "silent", "host": "127.0.0.1", "port": sock.getsockname()[1]}],
                seed=5,
                timeout_ms=500,
            )
            traces = run_suite(plan)
        finally:
            sock.close()
        assert [t.scenario for t in traces] == scenario_order(plan.scenarios, plan.seed)
        first = traces[0].started_at
        assert all(abs(t.started_at - first) <= 250 for t in traces), [
            t.started_at - first for t in traces
        ]
        for trace in traces:
            if ALL_SCENARIOS[trace.scenario].requires_handshake:
                assert 200 <= trace.error_code <= 255, (trace.scenario, trace.error_code)

    def test_suite_completes_even_when_everything_errors(self):
        plan = SuitePlan(
            targets=[{"name": "void", "host": "127.0.0.1", "port": 1}],
            seed=1,
            timeout_ms=300,
        )
        traces = run_suite(plan)
        assert len(traces) == len(ALL_SCENARIOS)
        assert all(trace.error_code != 0 for trace in traces)

    @staticmethod
    def closed_port_target() -> dict:
        # a port nobody listens on: loopback answers each datagram with
        # ICMP port unreachable, which the next recv reports
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return {"name": "closed", "host": "127.0.0.1", "port": port}

    def test_refused_datagrams_are_recorded_in_the_trace(self):
        trace = run_scenario("handshake", self.closed_port_target(), timeout_ms=300)
        assert trace.error_code == codes.PREREQ_NO_RESPONSE
        errors = [note["detail"] for note in trace.notes if note["kind"] == "socket_error"]
        assert errors and errors[0]["errno"] == errno.ECONNREFUSED, trace.notes

    def test_a_refused_port_ends_the_wait(self):
        plan = SuitePlan(targets=[self.closed_port_target()], seed=1, timeout_ms=1200)
        t0 = time.monotonic()
        traces = run_suite(plan)
        elapsed = time.monotonic() - t0
        assert elapsed < 0.6, elapsed
        assert {t.scenario: t.error_code for t in traces} == {
            name: codes.PREREQ_VN_NO_RESPONSE
            if name == "version_negotiation"
            else codes.PREREQ_NO_RESPONSE
            for name in ALL_SCENARIOS
        }
        for trace in traces:
            assert any(note["kind"] == "socket_error" for note in trace.notes), trace.scenario


def test_teardown_records_a_failed_close_and_still_stops():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    target = {"name": "silent", "host": "127.0.0.1", "port": sock.getsockname()[1]}
    trace = TraceBuilder("handshake", 1, target)
    ctx = ScenarioContext(target=target, trace=trace, provider_seed=7, timeout_s=1.0)
    try:
        conn = ctx.connect(roster={"parser", "bundler"})

        def failing_close():
            raise OSError("close failed")

        conn.close = failing_close
        ctx.teardown()
    finally:
        sock.close()
    assert conn.sock is None
    assert [note["detail"] for note in trace.notes if note["kind"] == "teardown_error"] == [
        "OSError('close failed')"
    ]
