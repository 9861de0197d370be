"""Error code registry.

0 is full success. 1-199 are scenario-specific failures (the tested
mechanism misbehaved). 200-255 are prerequisite errors: the scenario
could not exercise its mechanism at all, e.g. the endpoint was silent or
an earlier stage never completed. ``quicprobe.traces.outcome`` sorts a
code into its band.
"""

from __future__ import annotations

SUCCESS = 0

# scenario-specific failures
VN_MALFORMED = 1
HS_VERSION_MISMATCH = 2
HS_STALLED = 3
HS_ONE_RTT_KEYS_UNUSABLE = 4
TP_MALFORMED = 5
AV_AMPLIFICATION_EXCEEDED = 6
FC_LIMIT_EXCEEDED = 7
FC_EMPTY_STREAM_FRAME = 8
FC_NO_RESUMPTION = 9
FC_BLOCKED_LOOP = 10
SOR_NO_RESPONSE = 11
SOR_CONNECTION_ERROR = 12
SOR_MALFORMED_ACK = 13
ZR_NO_TICKET = 14
ZR_REJECTED = 15
ZR_UNANSWERED = 16

# prerequisite errors
PREREQ_UNRESOLVED = 200
PREREQ_VN_NO_RESPONSE = 201
PREREQ_NO_RESPONSE = 202
PREREQ_HANDSHAKE_STALLED = 203
PREREQ_HANDSHAKE_KEYS = 204
PREREQ_VERSION_MISMATCH = 205

REGISTRY: dict[int, str] = {
    SUCCESS: "success",
    VN_MALFORMED: "version negotiation reply malformed or echoes the offered version",
    HS_VERSION_MISMATCH: "endpoint answered with version negotiation instead of version 1",
    HS_STALLED: "handshake started but never completed",
    HS_ONE_RTT_KEYS_UNUSABLE: "post-handshake 1-RTT packet failed to decrypt",
    TP_MALFORMED: "transport parameters duplicated or malformed",
    AV_AMPLIFICATION_EXCEEDED: "server sent more than 3x received bytes before address validation",
    FC_LIMIT_EXCEEDED: "stream data beyond the advertised flow-control limit",
    FC_EMPTY_STREAM_FRAME: "empty non-fin STREAM frame received",
    FC_NO_RESUMPTION: "no data after MAX_STREAM_DATA raised the limit",
    FC_BLOCKED_LOOP: "STREAM_DATA_BLOCKED loop detected (more than 20 frames)",
    SOR_NO_RESPONSE: "no answer to a reordered stream opening",
    SOR_CONNECTION_ERROR: "server closed the connection on a reordered stream opening",
    SOR_MALFORMED_ACK: "ACK with underflowing ranges received",
    ZR_NO_TICKET: "no resumption ticket issued",
    ZR_REJECTED: "0-RTT data rejected",
    ZR_UNANSWERED: "0-RTT accepted but the early request was not answered",
    PREREQ_UNRESOLVED: "target could not be resolved or socket failed",
    PREREQ_VN_NO_RESPONSE: "no answer to the version negotiation probe",
    PREREQ_NO_RESPONSE: "endpoint silent, handshake could not start",
    PREREQ_HANDSHAKE_STALLED: "prerequisite handshake stalled",
    PREREQ_HANDSHAKE_KEYS: "prerequisite handshake completed without usable keys",
    PREREQ_VERSION_MISMATCH: "prerequisite handshake hit version negotiation",
}


def describe(code: int) -> str:
    return REGISTRY.get(code, f"unregistered code {code}")
