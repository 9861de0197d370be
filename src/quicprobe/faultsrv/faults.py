"""The injectable fault matrix.

Each fault is a minimal, localized deviation reproducing one observed
class of server misbehaviour, paired with the exact failure code the
scenario suite must report for it. Faults whose deviation breaks the
handshake necessarily also surface as prerequisite errors (200-255) in
the scenarios that depend on a completed handshake; those collateral
codes are part of the documented expectation, everything else stays 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scenarios import codes

FAULT_NONE = "none"

# observed magnitudes: ~20 kB streamed before validation, 25 blocked frames
PRE_VALIDATION_BYTES = 20_000
BLOCKED_FRAME_COUNT = 25

# fault -> how the server deviates (implementation lives in server.py)
FAULT_BEHAVIOURS: dict[str, str] = {
    "none": "fully conformant for the scenario surface",
    "vn_silent": "drops Initials that offer an unknown version instead of negotiating",
    "vn_echo_reserved": "version negotiation list echoes the reserved version the client offered",
    "stall_after_sh": "sends the initial-level hello reply, then no handshake-level crypto",
    "bad_1rtt_protection": "corrupts the AEAD tag of 1-RTT packets carrying only control frames",
    "tp_duplicate": "announces initial_max_data twice in its transport parameters",
    "no_amplification_limit": "streams ~20 kB of padding before the client validated its address",
    "ignore_stream_limit": "ignores the peer's per-stream flow-control limit when sending",
    "empty_stream_frames": "prepends a zero-length non-fin STREAM frame to its first data burst",
    "stream_blocked_spam": "sends 25 STREAM_DATA_BLOCKED frames per stall and duplicates the "
    "second half of the body after the limit is raised",
    "reorder_livelock": "goes permanently silent when a stream opens with an out-of-order frame",
    "ack_gap_overflow": "acknowledges reordered packets with an underflowing gap "
    "(reports an absurd number of missing packets)",
    "no_ticket": "never issues a resumption ticket",
    "reject_0rtt": "refuses early data: no 0-RTT keys, acceptance not signalled",
}

FAULT_NAMES = frozenset(FAULT_BEHAVIOURS)

# fault -> {scenario: expected nonzero code}; every scenario not listed
# must return 0. This is the orthogonality contract the acceptance suite
# proves by running the full matrix.
_HANDSHAKE_DEPENDENTS = (
    "transport_parameters",
    "address_validation",
    "flow_control",
    "stream_opening_reordering",
    "zero_rtt",
)

FAULT_EXPECTATIONS: dict[str, dict[str, int]] = {
    "none": {},
    "vn_silent": {"version_negotiation": codes.PREREQ_VN_NO_RESPONSE},
    "vn_echo_reserved": {"version_negotiation": codes.VN_MALFORMED},
    "stall_after_sh": {
        "handshake": codes.HS_STALLED,
        **{name: codes.PREREQ_HANDSHAKE_STALLED for name in _HANDSHAKE_DEPENDENTS},
    },
    "bad_1rtt_protection": {"handshake": codes.HS_ONE_RTT_KEYS_UNUSABLE},
    "tp_duplicate": {"transport_parameters": codes.TP_MALFORMED},
    "no_amplification_limit": {"address_validation": codes.AV_AMPLIFICATION_EXCEEDED},
    "ignore_stream_limit": {"flow_control": codes.FC_LIMIT_EXCEEDED},
    "empty_stream_frames": {"flow_control": codes.FC_EMPTY_STREAM_FRAME},
    "stream_blocked_spam": {"flow_control": codes.FC_BLOCKED_LOOP},
    "reorder_livelock": {"stream_opening_reordering": codes.SOR_NO_RESPONSE},
    "ack_gap_overflow": {"stream_opening_reordering": codes.SOR_MALFORMED_ACK},
    "no_ticket": {"zero_rtt": codes.ZR_NO_TICKET},
    "reject_0rtt": {"zero_rtt": codes.ZR_REJECTED},
}


@dataclass
class FaultSpec:
    """At most one fault is active per server instance."""

    name: str = FAULT_NONE

    def __post_init__(self):
        if self.name not in FAULT_NAMES:
            raise ValueError(f"unknown fault {self.name!r}; pick one of {sorted(FAULT_NAMES)}")

    def active(self, name: str) -> bool:
        return self.name == name
