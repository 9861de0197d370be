"""Synthetic trace corpus with hand-computed ground truth.

Three dates, four endpoints (alpha, beta, gamma, delta), built so every
postprocess rule is exercised:

2018-05-01
  alpha: all seven scenarios succeed (full-pass grid row)
  beta : handshake ok; post-handshake tests: tp 0, av 6, fc 8, sor 203,
         zero_rtt 204  -> with alpha's five zeros: 6 success / 2 failure /
         2 error = 60/20/20
  gamma: handshake FAILS (code 3) but has fc 0 -> excluded from outcomes
  delta: silent endpoint: vn 201, handshake 202  (tested, no versions)
  versions: alpha [1], beta [1, 0xff00001d], gamma none, delta none
            -> v1: 2 endpoints, 0xff00001d: 1 endpoint; tested = 4

2018-05-02
  alpha, beta: handshakes fail -> no qualifying endpoint, outcomes row omitted
  versions: alpha [0xff00001d] -> one row; tested = 2

2018-05-03
  alpha: handshake 0; tp 0, fc 0 (four traces only)
  delta: vn 0 + tp 0 succeed, everything else fails/errors:
         the "only succeeded two scenarios" grid shape
  versions: alpha [1], delta [1] -> v1: 2 endpoints; tested = 2
"""

import time
from datetime import datetime, timezone

from quicprobe.traces import Trace

D1, D2, D3 = "2018-05-01", "2018-05-02", "2018-05-03"


def _at(date: str) -> int:
    dt = datetime.fromisoformat(date + "T12:00:00+00:00").astimezone(timezone.utc)
    return int(dt.timestamp() * 1000)


def make_trace(date: str, target: str, scenario: str, code: int, results=None) -> Trace:
    return Trace(
        scenario=scenario,
        scenario_version=1,
        target={"name": target, "host": "192.0.2.1", "port": 4433},
        started_at=_at(date),
        duration_ms=321,
        error_code=code,
        results=results or {},
    )


def build_synthetic_corpus() -> list[Trace]:
    traces = []

    # -- 2018-05-01 ------------------------------------------------------
    traces.append(make_trace(D1, "alpha", "version_negotiation", 0, {"versions": [1]}))
    traces.append(make_trace(D1, "alpha", "handshake", 0))
    for name in (
        "transport_parameters",
        "address_validation",
        "flow_control",
        "stream_opening_reordering",
        "zero_rtt",
    ):
        traces.append(make_trace(D1, "alpha", name, 0))

    traces.append(
        make_trace(D1, "beta", "version_negotiation", 0, {"versions": [1, 0xFF00001D]})
    )
    traces.append(make_trace(D1, "beta", "handshake", 0))
    traces.append(make_trace(D1, "beta", "transport_parameters", 0))
    traces.append(make_trace(D1, "beta", "address_validation", 6))
    traces.append(make_trace(D1, "beta", "flow_control", 8))
    traces.append(make_trace(D1, "beta", "stream_opening_reordering", 203))
    traces.append(make_trace(D1, "beta", "zero_rtt", 204))

    traces.append(make_trace(D1, "gamma", "handshake", 3))
    traces.append(make_trace(D1, "gamma", "flow_control", 0))  # must not count

    traces.append(make_trace(D1, "delta", "version_negotiation", 201))
    traces.append(make_trace(D1, "delta", "handshake", 202))

    # -- 2018-05-02 ------------------------------------------------------
    traces.append(
        make_trace(D2, "alpha", "version_negotiation", 0, {"versions": [0xFF00001D]})
    )
    traces.append(make_trace(D2, "alpha", "handshake", 3))
    traces.append(make_trace(D2, "beta", "handshake", 202))

    # -- 2018-05-03 ------------------------------------------------------
    traces.append(make_trace(D3, "alpha", "version_negotiation", 0, {"versions": [1]}))
    traces.append(make_trace(D3, "alpha", "handshake", 0))
    traces.append(make_trace(D3, "alpha", "transport_parameters", 0))
    traces.append(make_trace(D3, "alpha", "flow_control", 0))

    traces.append(make_trace(D3, "delta", "version_negotiation", 0, {"versions": [1]}))
    traces.append(make_trace(D3, "delta", "handshake", 3))
    traces.append(make_trace(D3, "delta", "transport_parameters", 0))
    traces.append(make_trace(D3, "delta", "address_validation", 203))
    traces.append(make_trace(D3, "delta", "flow_control", 203))
    traces.append(make_trace(D3, "delta", "stream_opening_reordering", 203))
    traces.append(make_trace(D3, "delta", "zero_rtt", 203))

    return traces


# hand-computed ground truth
EXPECTED_VERSIONS_ROWS = [
    (D1, 1, 2),
    (D1, 0xFF00001D, 1),
    (D2, 0xFF00001D, 1),
    (D3, 1, 2),
]
EXPECTED_TESTED = [(D1, 4), (D2, 2), (D3, 2)]
EXPECTED_HANDSHAKE_SUCCESS = [(D1, 2), (D2, 0), (D3, 1)]
# D1: 10 qualifying post-handshake tests: 6 success, 2 failure (6, 8),
# 2 error (203, 204). D2 omitted. D3: alpha alone: tp 0 + fc 0 -> 100/0/0.
EXPECTED_OUTCOMES = [
    (D1, 60.0, 20.0, 20.0, 2, 10),
    (D3, 100.0, 0.0, 0.0, 1, 2),
]
# grid on D3: delta succeeded exactly two scenarios (vn, tp)
EXPECTED_DELTA_D3_SUCCESS_CELLS = 2


def later_clock() -> int:
    """The report's clock, 10 s ahead: a trace written just now is old
    enough to go into the verdict index."""
    return time.time_ns() + 10_000_000_000
