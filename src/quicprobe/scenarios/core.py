"""The seven core conformance scenarios.

Each runs on one or two fresh connections, enables exactly the agents it
needs, and reduces what it observed to a multi-valued error code plus a
scenario-specific results object.
"""

from __future__ import annotations

from ..conn import FULL_ROSTER, perform_handshake, unfinished_stage
from ..protection import EncryptionLevel
from ..wire import PingFrame, StreamFrame, lenient_decode_tp
from ..wire.transport_params import TP_INITIAL_MAX_DATA, TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL
from . import codes
from .base import (
    HANDSHAKE_FAILURE_CODES,
    Scenario,
    ScenarioContext,
    UnmetPrerequisite,
    default_client_tp,
    stream_frames_from_trace,
)

# Every window a scenario waits, in seconds. ``ctx.timeout_s`` bounds the
# waits for a peer that may be far away or down. The caps bound the waits
# after a completed handshake, when the peer has shown that it answers;
# each applies only where it is shorter than the timeout. A settle waits
# its whole window, however much arrives, because that is where a
# violating peer would keep sending; a conformant peer pays for every
# settle in full, so they are kept short.
#
# address_validation splits its timeout: this share to reach the held
# finish, the same again for the handshake after its release
VALIDATION_PHASE_SHARE = 0.5
# address_validation: an unvalidated server's excess follows its first
# flight unprompted, as the client sends nothing in the meantime
VALIDATION_SETTLE_S = 0.5
# flow_control: a server past a stream limit sends the excess straight
# after its burst; each of the two bursts is watched this long
BURST_SETTLE_S = 0.3
# stream_opening_reordering: a close or a malformed ACK that follows the
# first answer to the reordered opening within a round trip
REORDER_SETTLE_S = 0.2
# answers due one round trip after the handshake: the 1-RTT probe's ACK
# and the resumption ticket
REPLY_CAP_S = 2.0
# a response to a request, which may take the server longer than a round
# trip: a flow-control burst, the reordered request, the early request
RESPONSE_CAP_S = 3.0

# a reserved version of the ?a?a?a?a pattern: servers must negotiate, never speak it
RESERVED_VERSION = 0x1A2A3A4A

REQUEST = b"GET /index.html\r\n"
BLOCKED_LOOP_THRESHOLD = 20  # tunable: quantifies "entered a loop"


class VersionNegotiationScenario(Scenario):
    name = "version_negotiation"
    requires_handshake = False

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        conn = ctx.connect(
            roster={"parser", "bundler"},
            version=RESERVED_VERSION,
        )
        conn.queue_frame(EncryptionLevel.INITIAL, PingFrame())
        conn.run_until(
            lambda: conn.version_negotiation is not None
            or conn.malformed_version_negotiation is not None,
            ctx.timeout_s,
        )
        if conn.malformed_version_negotiation is not None:
            return codes.VN_MALFORMED, {"error": conn.malformed_version_negotiation}
        vn = conn.version_negotiation
        if vn is None:
            return codes.PREREQ_VN_NO_RESPONSE, {}
        results = {"versions": list(vn.supported_versions), "offered_version": RESERVED_VERSION}
        malformed = (
            not vn.supported_versions
            or RESERVED_VERSION in vn.supported_versions
            or vn.dcid != conn.scid
            or vn.scid != conn.original_dcid
        )
        if malformed:
            return codes.VN_MALFORMED, results
        return codes.SUCCESS, results


class HandshakeScenario(Scenario):
    name = "handshake"
    requires_handshake = False

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        conn = ctx.connect(roster=FULL_ROSTER)
        stage = perform_handshake(conn, ctx.timeout_s)
        if stage is not None:
            return HANDSHAKE_FAILURE_CODES[stage], {"stage": stage.value}
        # probe 1-RTT usability: elicit an acknowledgement under the new keys.
        # Wait for the probe's own ACK: other 1-RTT packets of the
        # post-handshake flight can arrive before it.
        app_space = conn.space(EncryptionLevel.ONE_RTT)
        probe_pn = app_space.next_pn
        conn.queue_frame(EncryptionLevel.ONE_RTT, PingFrame())
        conn.run_until(
            lambda: conn.decrypt_failures.get(EncryptionLevel.ONE_RTT, 0) > 0
            or app_space.largest_acked >= probe_pn,
            min(REPLY_CAP_S, ctx.timeout_s),
        )
        if conn.decrypt_failures.get(EncryptionLevel.ONE_RTT, 0) > 0:
            return codes.HS_ONE_RTT_KEYS_UNUSABLE, {"stage": "one_rtt_probe"}
        return codes.SUCCESS, {}


class TransportParametersScenario(Scenario):
    name = "transport_parameters"
    requires_handshake = True

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        conn = ctx.connect(roster=FULL_ROSTER)
        ctx.require_handshake(conn)
        raw = conn.provider.peer_tp_raw or b""
        results = {
            "raw_hex": raw.hex(),
            "parameters": conn.peer_tp.as_report() if conn.peer_tp else {},
        }
        if conn.peer_tp_error is not None:
            results["error"] = conn.peer_tp_error
            return codes.TP_MALFORMED, results
        return codes.SUCCESS, results


class AddressValidationScenario(Scenario):
    """Withholds everything that would validate our address (no ACKs, the
    handshake finish held back) and measures how much the server volunteers."""

    name = "address_validation"
    requires_handshake = True

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        conn = ctx.connect(
            roster={"parser", "tls", "retransmission", "bundler", "handshake"},
            hold_client_finished=True,
        )
        phase_s = VALIDATION_PHASE_SHARE * ctx.timeout_s
        if not conn.run_until(lambda: conn.client_finished_ready, phase_s):
            raise UnmetPrerequisite(unfinished_stage(conn))
        conn.settle(VALIDATION_SETTLE_S)
        received, sent = conn.bytes_received, conn.bytes_sent
        conn.release_client_finished()
        ctx.require_handshake(conn, timeout_s=phase_s)
        results = {
            "bytes_received_before_validation": received,
            "bytes_sent": sent,
            "ratio": round(received / sent, 2) if sent else None,
        }
        if received > 3 * sent:
            return codes.AV_AMPLIFICATION_EXCEEDED, results
        return codes.SUCCESS, results


class FlowControlScenario(Scenario):
    """The two-burst flow: an 80-byte stream limit, then a raise to 160."""

    name = "flow_control"
    requires_handshake = True

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        conn = ctx.connect(
            roster=FULL_ROSTER,
            client_tp=default_client_tp(
                {TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL: 80, TP_INITIAL_MAX_DATA: 1024}
            ),
        )
        ctx.require_handshake(conn)
        conn.send_stream(0, REQUEST, fin=True)
        stream = conn.stream(0)
        conn.run_until(
            lambda: stream.recv.highest_offset >= 80
            or conn.empty_stream_frames_received
            or conn.blocked_frames_received > BLOCKED_LOOP_THRESHOLD,
            min(RESPONSE_CAP_S, ctx.timeout_s),
        )
        conn.settle(BURST_SETTLE_S)
        first_burst = stream.recv.highest_offset

        def results() -> dict:
            return {
                "first_burst_bytes": first_burst,
                "total_bytes": stream.recv.highest_offset,
                "blocked_frames": conn.blocked_frames_received,
                "empty_stream_frames": conn.empty_stream_frames_received,
                "offsets": stream_frames_from_trace(ctx.trace, 0),
            }

        if conn.empty_stream_frames_received:
            return codes.FC_EMPTY_STREAM_FRAME, results()
        if first_burst > 80:
            return codes.FC_LIMIT_EXCEEDED, results()
        if conn.blocked_frames_received > BLOCKED_LOOP_THRESHOLD:
            return codes.FC_BLOCKED_LOOP, results()

        conn.raise_stream_limit(0, 160)
        conn.run_until(
            lambda: stream.recv.highest_offset > first_burst
            or conn.empty_stream_frames_received
            or conn.blocked_frames_received > BLOCKED_LOOP_THRESHOLD,
            min(RESPONSE_CAP_S, ctx.timeout_s),
        )
        conn.settle(BURST_SETTLE_S)
        if conn.empty_stream_frames_received:
            return codes.FC_EMPTY_STREAM_FRAME, results()
        if stream.recv.highest_offset > 160:
            return codes.FC_LIMIT_EXCEEDED, results()
        if conn.blocked_frames_received > BLOCKED_LOOP_THRESHOLD:
            return codes.FC_BLOCKED_LOOP, results()
        if stream.recv.highest_offset <= first_burst:
            return codes.FC_NO_RESUMPTION, results()
        return codes.SUCCESS, results()


class StreamOpeningReorderingScenario(Scenario):
    """Graceful closure first (higher packet number), stream data second."""

    name = "stream_opening_reordering"
    requires_handshake = True

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        # no retransmission agent: a timer-driven in-order resend would
        # mask exactly the reordering behaviour this test observes
        conn = ctx.connect(
            roster={"parser", "tls", "ack", "flow_control", "handshake", "bundler", "closing"},
        )
        ctx.require_handshake(conn)
        base = conn.space(EncryptionLevel.ONE_RTT).next_pn
        conn.send_packet(
            EncryptionLevel.ONE_RTT,
            [StreamFrame(stream_id=0, offset=len(REQUEST), data=b"", fin=True)],
            packet_number=base + 1,
            retransmittable=False,
        )
        conn.send_packet(
            EncryptionLevel.ONE_RTT,
            [StreamFrame(stream_id=0, offset=0, data=REQUEST, fin=False)],
            packet_number=base,
            retransmittable=False,
        )
        stream = conn.stream(0)
        conn.run_until(
            lambda: stream.recv.delivered or conn.closed or conn.flagged_acks_received,
            min(RESPONSE_CAP_S, ctx.timeout_s),
        )
        conn.settle(REORDER_SETTLE_S)
        results = {
            "response_bytes": len(stream.recv.delivered),
            "flagged_acks": conn.flagged_acks_received,
        }
        if conn.flagged_acks_received:
            return codes.SOR_MALFORMED_ACK, results
        if conn.close_received is not None:
            return codes.SOR_CONNECTION_ERROR, results
        if stream.recv.delivered:
            return codes.SUCCESS, results
        return codes.SOR_NO_RESPONSE, results


class ZeroRttScenario(Scenario):
    """Two connections: harvest a ticket, then attempt an early request."""

    name = "zero_rtt"
    requires_handshake = True

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        results = {"ticket_received": False, "zero_rtt_accepted": False, "request_answered": False}
        conn1 = ctx.connect(roster=FULL_ROSTER)
        ctx.require_handshake(conn1, results)
        conn1.run_until(
            lambda: conn1.provider.resumption_ticket() is not None,
            min(REPLY_CAP_S, ctx.timeout_s),
        )
        ticket = conn1.provider.resumption_ticket()
        remembered_tp = None
        if conn1.provider.peer_tp_raw is not None:
            remembered_tp = lenient_decode_tp(conn1.provider.peer_tp_raw)
        conn1.close()
        conn1.stop()
        if ticket is None:
            return codes.ZR_NO_TICKET, results
        results["ticket_received"] = True

        conn2 = ctx.connect(
            roster=FULL_ROSTER,
            ticket=ticket,
            assumed_peer_tp=remembered_tp,
        )
        conn2.send_stream(0, REQUEST, fin=True, level=EncryptionLevel.ZERO_RTT)
        ctx.require_handshake(conn2, results)
        results["zero_rtt_accepted"] = conn2.provider.early_data_accepted
        if not conn2.provider.early_data_accepted:
            return codes.ZR_REJECTED, results
        stream = conn2.stream(0)
        conn2.run_until(lambda: stream.recv.finished, min(RESPONSE_CAP_S, ctx.timeout_s))
        results["request_answered"] = bool(stream.recv.delivered)
        if not stream.recv.delivered:
            return codes.ZR_UNANSWERED, results
        return codes.SUCCESS, results


ALL_SCENARIOS: dict[str, type[Scenario]] = {
    cls.name: cls
    for cls in (
        VersionNegotiationScenario,
        HandshakeScenario,
        TransportParametersScenario,
        AddressValidationScenario,
        FlowControlScenario,
        StreamOpeningReorderingScenario,
        ZeroRttScenario,
    )
}
