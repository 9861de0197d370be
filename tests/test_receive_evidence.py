"""The client's evidence for every prefix of a real server datagram.

Each case runs an in-memory exchange with the reference server up to the
first datagram of one kind, feeds the client's receive path every prefix
of that datagram, shortest first and the whole datagram last, and records
what each prefix left behind: the kinds of the notes it wrote, the
decrypt-failure counts it added and the packets it logged.
``expected_runs`` pins that evidence; a change to how the client reads
headers must leave it as it is.
"""

import pytest

from quicprobe.scenarios.core import RESERVED_VERSION
from quicprobe.wire import packet_type_of

from .exchange import Exchange, resize_cid


def exchange_until(kind: str) -> tuple[Exchange, bytes]:
    """An exchange whose client is about to receive the server's first
    datagram of ``kind``, and that datagram."""
    if kind == "version_negotiation":
        exchange = Exchange(version=RESERVED_VERSION)
    elif kind == "retry":
        exchange = Exchange(retry_above=0)
    else:
        exchange = Exchange()
    for _ in range(20):
        datagram = exchange.next_to_client()
        assert datagram is not None, f"the server sent no {kind} datagram"
        if packet_type_of(datagram).value == kind:
            return exchange, datagram
        exchange.receive(datagram)
        exchange.flush_client()
    raise AssertionError(f"no {kind} datagram in 20")


def evidence(exchange: Exchange, datagram: bytes) -> tuple:
    """Feed one datagram and return what it added to the trace and counts."""
    conn, trace = exchange.conn, exchange.trace
    notes_before, packets_before = len(trace.notes), len(trace.packets)
    failures_before = dict(conn.decrypt_failures)
    exchange.receive(datagram)
    notes = tuple(note["kind"] for note in trace.notes[notes_before:])
    failures = tuple(
        sorted(
            (level.label, count - failures_before.get(level, 0))
            for level, count in conn.decrypt_failures.items()
            if count != failures_before.get(level, 0)
        )
    )
    sent = {entry["cleartext_hex"] for entry in exchange.server.sent_log}
    packets = []
    for entry in trace.packets[packets_before:]:
        if entry.get("decrypt_error"):
            raw = entry["ciphertext_hex"]
            packets.append(("undecryptable", entry["level"], _name(raw, datagram, set())))
        else:
            raw = entry["cleartext_hex"]
            packets.append((entry["direction"], entry["level"], _name(raw, datagram, sent)))
    return notes, failures, tuple(packets)


def _name(raw_hex: str, datagram: bytes, sent: set[str]) -> str:
    if raw_hex in sent:
        return "as sent"
    if raw_hex == datagram.hex():
        return "the datagram"
    return raw_hex


def prefix_runs(exchange: Exchange, datagram: bytes) -> list[tuple]:
    """Feed every prefix and return runs of equal evidence as
    (shortest prefix, longest prefix, evidence)."""
    runs: list[list] = []
    for size in range(1, len(datagram) + 1):
        found = evidence(exchange, datagram[:size])
        if runs and runs[-1][2] == found:
            runs[-1][1] = size
        else:
            runs.append([size, size, found])
    return [tuple(run) for run in runs]


PARSE = (("header_parse_error",), (), ())
LOGGED = ((), (), (("rx", "none", "the datagram"),))
DISCARDED = (("retry_discarded",), (), (("rx", "none", "the datagram"),))
CIDS_END = 1 + 4 + 1 + 8 + 1 + 8  # a long header up to its two 8-byte connection ids
SAMPLE_END = 1 + 8 + 4 + 16  # a short header up to its header-protection sample


def opened(level: str) -> tuple:
    return ((), (), (("rx", level, "as sent"),))


def undecryptable(level: str) -> tuple:
    return ((), ((level, 1),), (("undecryptable", level, "the datagram"),))


def expected_runs(kind: str, size: int) -> list[tuple]:
    if kind in ("initial", "handshake"):
        # the Length field reaches the end of the datagram: any cut is seen
        return [(1, size - 1, PARSE), (size, size, opened(kind))]
    if kind == "one_rtt":
        return [
            (1, SAMPLE_END - 1, PARSE),
            (SAMPLE_END, size - 1, undecryptable("one_rtt")),
            (size, size, opened("one_rtt")),
        ]
    if kind == "version_negotiation":
        malformed = (("malformed_version_negotiation",), (), ())
        return [
            # too short to hold a version: read as the Initial its type bits name
            (1, 4, PARSE),
            (5, CIDS_END - 1, malformed),
            (CIDS_END, CIDS_END, LOGGED),  # an empty version list
            (CIDS_END + 1, size - 1, malformed),
            (size, size, opened("none")),
        ]
    assert kind == "retry"
    return [
        # shorter than the integrity tag: its header does not read
        (1, CIDS_END + 15, PARSE),
        (CIDS_END + 16, size - 1, DISCARDED),
        (size, size, opened("none")),
    ]


@pytest.mark.parametrize(
    "kind", ["initial", "handshake", "one_rtt", "version_negotiation", "retry"]
)
def test_every_prefix_of_a_server_datagram_leaves_the_same_evidence(kind):
    exchange, datagram = exchange_until(kind)
    try:
        runs = prefix_runs(exchange, datagram)
    finally:
        exchange.stop()
    assert runs == expected_runs(kind, len(datagram))


@pytest.mark.parametrize("kind", ["initial", "handshake"])
@pytest.mark.parametrize("field", ["dcid", "scid"])
@pytest.mark.parametrize("size", [20, 21, 40, 255])
def test_a_grown_connection_id_leaves_the_same_evidence(kind, field, size):
    """The oversized connection id case. A version 1 long header whose
    connection id is longer than 20 bytes breaks RFC 9000 section 17.2,
    and reading its header rejects it before any key is tried; up to 20
    bytes the header reads and the AEAD open rejects the grown packet."""
    exchange, datagram = exchange_until(kind)
    try:
        found = evidence(exchange, resize_cid(datagram, field, size))
    finally:
        exchange.stop()
    assert found == (PARSE if size > 20 else undecryptable(kind))


def other_version(datagram: bytes) -> bytes:
    return datagram[:1] + RESERVED_VERSION.to_bytes(4, "big") + datagram[5:]


@pytest.mark.parametrize(
    "kind, hostile, expected",
    [
        # RFC 8999 allows connection ids of up to 255 bytes here; the
        # version_negotiation scenario judges ids that echo none of its own
        pytest.param(
            "version_negotiation", lambda d: resize_cid(d, "dcid", 21), LOGGED, id="vn-dcid-21"
        ),
        pytest.param(
            "version_negotiation", lambda d: resize_cid(d, "scid", 255), LOGGED, id="vn-scid-255"
        ),
        # a long header of another version is read to its invariants, and
        # no version 1 keys open it, however its rest reads
        pytest.param("initial", other_version, undecryptable("initial"), id="other-initial"),
        pytest.param(
            "initial",
            lambda d: other_version(d)[:30],
            undecryptable("initial"),
            id="other-initial-cut",
        ),
        pytest.param("handshake", other_version, undecryptable("handshake"), id="other-handshake"),
        pytest.param("retry", lambda d: other_version(d)[:30], DISCARDED, id="other-retry-cut"),
        # the client has no keys for 0-RTT: undecryptable, however cut
        pytest.param(
            "initial",
            lambda d: bytes([d[0] ^ 0x10]) + d[1:8],
            undecryptable("zero_rtt"),
            id="zero-rtt-cut",
        ),
    ],
)
def test_hostile_headers_leave_this_evidence(kind, hostile, expected):
    exchange, datagram = exchange_until(kind)
    try:
        assert evidence(exchange, hostile(datagram)) == expected
    finally:
        exchange.stop()
