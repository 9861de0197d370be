"""Acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import socket
import time

from quicprobe.dissector import coverage_ok, dissect, quic_v1_description
from quicprobe.faultsrv import FAULT_EXPECTATIONS, FaultSpec, ServerConfig, serve
from quicprobe.protection import derive_initial_keys
from quicprobe.scenarios import ALL_SCENARIOS, SuitePlan, codes, run_suite, scenario_order
from quicprobe.traces import (
    RunCorpus,
    metric_handshake_success,
    metric_outcomes,
    metric_versions_over_time,
    render_grid,
)
from quicprobe.wire import VARINT_MAX, decode_varint, encode_varint, parse_frames, serialize_frames

from . import hkdf_oracle
from .corpus_fixtures import (
    D3,
    EXPECTED_DELTA_D3_SUCCESS_CELLS,
    EXPECTED_HANDSHAKE_SUCCESS,
    EXPECTED_OUTCOMES,
    EXPECTED_TESTED,
    EXPECTED_VERSIONS_ROWS,
    build_synthetic_corpus,
)
from .frame_corpus import random_frame_list
from .test_dissector import dissected_frames, expected_dissection
from .test_frames import coalesce_padding


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _loopback_target(server):
    return {"name": "loopback", "host": "127.0.0.1", "port": server.port}


def test_criterion_1_varint_round_trip_million():
    vectors = [
        (0x25, 37, 1),
        (0x7BBD, 15293, 2),
        (0x9D7F3E7D, 494878333, 4),
        (0xC2197C5EFF14E88C, 151288809941952652, 8),
    ]
    for wire, value, size in vectors:
        assert encode_varint(value) == wire.to_bytes(size, "big")
        assert decode_varint(wire.to_bytes(size, "big")) == (value, size, True)

    rng = random.Random(1)
    values = [rng.randint(0, VARINT_MAX) for _ in range(1_000_000)]
    t0 = time.monotonic()
    for value in values:
        decoded, _, minimal = decode_varint(encode_varint(value))
        if decoded != value or not minimal:
            report(1, "varint round trip", False, f"broke at {value}")
    took = time.monotonic() - t0
    report(
        1,
        "varint: 10^6 round trips + published vectors",
        took < 5.0,
        f"{took:.2f}s",
    )


def test_criterion_2_initial_key_schedule_vectors():
    dcid = bytes.fromhex("8394c8f03e515708")
    client, server = derive_initial_keys(dcid)
    oracle = hkdf_oracle.initial_keys(dcid)
    ok = (
        client.key == bytes.fromhex("1f369613dd76d5467730efcbe3b1a22d")
        and client.iv == bytes.fromhex("fa044b2f42a3fd3b46fb255c")
        and client.header_protection_key == bytes.fromhex("9f50449e04a0e810283a1e9933adedd2")
        and server.key == bytes.fromhex("cf3a5331653c364c88f0f379b6067e37")
        and server.iv == bytes.fromhex("0ac1493ca1905853b0bba03e")
        and server.header_protection_key == bytes.fromhex("c206b8d9b9f0f37644430b490eeaa314")
        and client.key == oracle["client"]["key"]
        and client.iv == oracle["client"]["iv"]
        and client.header_protection_key == oracle["client"]["hp"]
        and server.key == oracle["server"]["key"]
        and server.iv == oracle["server"]["iv"]
        and server.header_protection_key == oracle["server"]["hp"]
    )
    report(2, "initial key schedule matches published vectors and standalone oracle", ok)


def test_criterion_3_wire_dissector_mutual_oracle():
    from quicprobe.protection import cleartext_packet_bytes
    from quicprobe.wire import PacketHeader, PacketType

    desc = quic_v1_description()
    rng = random.Random(3)
    t0 = time.monotonic()
    header = PacketHeader(packet_type=PacketType.ONE_RTT, dcid=b"\x11" * 8, packet_number=9, pn_length=2)
    for i in range(10_000):
        frames = random_frame_list(rng, max_len=5)
        payload = serialize_frames(frames)
        reparsed = parse_frames(payload)
        if reparsed != coalesce_padding(frames):
            report(3, "wire/dissector mutual oracle", False, f"parse identity broke at {i}")
        packet = cleartext_packet_bytes(header, payload)
        tree = dissect(packet, desc)
        if not coverage_ok(tree, len(packet)):
            report(3, "wire/dissector mutual oracle", False, f"coverage broke at {i}")
        expected = [item for frame in frames for item in expected_dissection(frame)]
        if dissected_frames(tree) != expected:
            report(3, "wire/dissector mutual oracle", False, f"field disagreement at {i}")

    for i in range(10_000):
        blob = rng.randbytes(rng.randint(0, 1500))
        tree = dissect(blob, desc)  # must not raise
        if not coverage_ok(tree, len(blob)):
            report(3, "wire/dissector mutual oracle", False, f"fuzz coverage broke at {i}")
    took = time.monotonic() - t0
    report(
        3,
        "10^4 frame lists agree across codec and dissector; 10^4 fuzz buffers total",
        took < 30.0,
        f"{took:.2f}s",
    )


def test_criterion_4_loopback_compliance_baseline():
    server = serve(ServerConfig())
    try:
        t0 = time.monotonic()
        traces = run_suite(SuitePlan(targets=[_loopback_target(server)], seed=1))
        took = time.monotonic() - t0
    finally:
        server.stop()
    bad = {t.scenario: t.error_code for t in traces if t.error_code != 0}
    report(
        4,
        "compliant server passes all seven scenarios",
        not bad and len(traces) == 7 and took < 60.0 and not server.errors,
        f"{took:.1f}s"
        + (f", failures: {bad}" if bad else "")
        + (f", server errors: {server.errors}" if server.errors else ""),
    )


def test_criterion_5_fault_matrix_orthogonality():
    mismatches = []
    server_errors = {}
    for fault in sorted(FAULT_EXPECTATIONS):
        server = serve(ServerConfig(fault=FaultSpec(name=fault)))
        try:
            traces = run_suite(
                SuitePlan(targets=[_loopback_target(server)], seed=2, timeout_ms=2000)
            )
        finally:
            server.stop()
        if server.errors:
            server_errors[fault] = server.errors
        expected = FAULT_EXPECTATIONS[fault]
        for trace in traces:
            want = expected.get(trace.scenario, 0)
            if trace.error_code != want:
                mismatches.append((fault, trace.scenario, trace.error_code, want))
    report(
        5,
        "13-fault matrix: designated codes only, everything else 0",
        not mismatches and not server_errors,
        f"mismatches: {mismatches}, server errors: {server_errors}"
        if mismatches or server_errors
        else "13 faults x 7 scenarios",
    )


def test_criterion_6_flow_control_byte_accounting():
    from quicprobe.scenarios import run_scenario

    server = serve(ServerConfig())
    try:
        trace = run_scenario("flow_control", _loopback_target(server))
    finally:
        server.stop()
    offsets = trace.results.get("offsets", [])
    raise_ms = min(
        (o["timestamp_ms"] for o in offsets if o["offset"] + o["length"] > 80),
        default=None,
    )
    before = [o for o in offsets if raise_ms is None or o["timestamp_ms"] < raise_ms]
    first_burst = max((o["offset"] + o["length"]) for o in before) if before else 0
    total = max((o["offset"] + o["length"]) for o in offsets) if offsets else 0
    ok = trace.error_code == 0 and first_burst == 80 and total <= 160 and not server.errors
    report(
        6,
        "first burst exactly 80 bytes, total at most 160 after the raise",
        ok,
        f"burst={first_burst}, total={total}",
    )


def test_criterion_7_determinism_and_ordering():
    server = serve(ServerConfig())
    try:
        target = _loopback_target(server)
        first = run_suite(SuitePlan(targets=[target], seed=42))
        second = run_suite(SuitePlan(targets=[target], seed=42))
    finally:
        server.stop()
    order_a = [t.scenario for t in first]
    order_b = [t.scenario for t in second]
    codes_a = [(t.scenario, t.error_code) for t in first]
    codes_b = [(t.scenario, t.error_code) for t in second]

    # brute-force oracle: independent sampler implementation
    from .test_scenarios_engine import oracle_order

    names = sorted(ALL_SCENARIOS)
    distinct = {tuple(oracle_order(names, seed)) for seed in range(1, 101)}
    sampler_agrees = all(
        scenario_order(names, seed) == oracle_order(names, seed) for seed in range(1, 101)
    )
    ok = (
        order_a == order_b
        and codes_a == codes_b
        and len(distinct) >= 95
        and sampler_agrees
        and not server.errors
    )
    report(
        7,
        "seed 42 reproduces orderings and codes; seeds 1-100 give >=95 distinct orders",
        ok,
        f"distinct={len(distinct)}",
    )


def test_criterion_8_postprocess_oracles():
    corpus = RunCorpus(traces=build_synthetic_corpus())
    versions = metric_versions_over_time(corpus)
    handshakes = metric_handshake_success(corpus)
    outcomes = [
        (r.date, round(r.success_pct, 6), round(r.failure_pct, 6), round(r.error_pct, 6), r.endpoints, r.tests)
        for r in metric_outcomes(corpus)
    ]
    sums_ok = all(
        abs(r.success_pct + r.failure_pct + r.error_pct - 100.0) < 0.1
        for r in metric_outcomes(corpus)
    )
    _, csv_doc = render_grid(corpus, D3)
    lines = csv_doc.strip().splitlines()
    delta_col = lines[0].split(",").index("delta")
    delta_success = sum(1 for line in lines[1:] if line.split(",")[delta_col] == "0")
    ok = (
        versions.rows == EXPECTED_VERSIONS_ROWS
        and versions.tested == EXPECTED_TESTED
        and handshakes == EXPECTED_HANDSHAKE_SUCCESS
        and outcomes == EXPECTED_OUTCOMES
        and sums_ok
        and delta_success == EXPECTED_DELTA_D3_SUCCESS_CELLS
    )
    report(
        8,
        "metrics match hand-computed ground truth; grid shows the two-success row",
        ok,
        f"outcomes={outcomes}",
    )


def test_criterion_9_prerequisite_trichotomy():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    try:
        plan = SuitePlan(
            targets=[{"name": "unreachable", "host": "127.0.0.1", "port": sock.getsockname()[1]}],
            seed=5,
            timeout_ms=500,
        )
        traces = run_suite(plan)
    finally:
        sock.close()
    offending = [
        (t.scenario, t.error_code)
        for t in traces
        if ALL_SCENARIOS[t.scenario].requires_handshake
        and not (200 <= t.error_code <= 255)
    ]
    report(
        9,
        "unreachable target: requires-handshake scenarios report 200-255, never 1-199",
        not offending,
        f"offending={offending}" if offending else "",
    )
