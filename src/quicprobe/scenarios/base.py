"""Scenario plumbing: context, registry and trace extraction helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..conn import Connection, HandshakeStage
from ..protection import NullHandshakeProvider
from ..traces import TraceBuilder
from ..wire import (
    StreamFrame,
    TransportParameters,
    encode_transport_parameters,
    parse_frames,
    parse_header,
)
from . import codes


def default_client_tp(**int_overrides) -> TransportParameters:
    tp = TransportParameters()
    tp.set_int(0x01, 30_000)  # max_idle_timeout
    tp.set_int(0x04, 65_536)  # initial_max_data
    tp.set_int(0x05, 65_536)  # initial_max_stream_data_bidi_local
    tp.set_int(0x06, 65_536)  # initial_max_stream_data_bidi_remote
    tp.set_int(0x08, 16)  # initial_max_streams_bidi
    for param_id, value in int_overrides.items():
        tp.set_int(int(param_id, 0) if isinstance(param_id, str) else param_id, value)
    return tp


@dataclass
class ScenarioContext:
    """Everything one scenario execution may touch."""

    target: dict  # name, host, port
    trace: TraceBuilder
    provider_seed: int = 7
    timeout_s: float = 10.0
    _conns: list[Connection] = field(default_factory=list)

    def connect(
        self,
        roster,
        client_tp: TransportParameters | None = None,
        ticket: bytes | None = None,
        **conn_kwargs,
    ) -> Connection:
        """Fresh connection + provider; raises PrerequisiteError on failure."""
        tp = client_tp if client_tp is not None else default_client_tp()
        provider = NullHandshakeProvider(
            seed=self.provider_seed,
            is_client=True,
            local_tp=encode_transport_parameters(tp),
            ticket=ticket,
        )
        conn = Connection(
            self.target["host"],
            self.target["port"],
            provider,
            roster=roster,
            trace=self.trace,
            **conn_kwargs,
        )
        self._conns.append(conn)
        conn.start()
        return conn

    def teardown(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
            conn.stop()
        self._conns.clear()


class Scenario:
    """One self-contained conformance test on a fresh connection."""

    name = "scenario"
    scenario_version = 1
    requires_handshake = False

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        raise NotImplementedError


# the code of a failed handshake where the handshake is what a scenario tests
HANDSHAKE_FAILURE_CODES = {
    HandshakeStage.NO_RESPONSE: codes.PREREQ_NO_RESPONSE,
    HandshakeStage.VERSION_MISMATCH: codes.HS_VERSION_MISMATCH,
    HandshakeStage.INCOMPLETE: codes.HS_STALLED,
    HandshakeStage.KEYS_UNAVAILABLE: codes.HS_ONE_RTT_KEYS_UNUSABLE,
}

# the code of a failed handshake that a scenario only needs as a prerequisite
PREREQUISITE_CODES = {
    HandshakeStage.NO_RESPONSE: codes.PREREQ_NO_RESPONSE,
    HandshakeStage.VERSION_MISMATCH: codes.PREREQ_VERSION_MISMATCH,
    HandshakeStage.INCOMPLETE: codes.PREREQ_HANDSHAKE_STALLED,
    HandshakeStage.KEYS_UNAVAILABLE: codes.PREREQ_HANDSHAKE_KEYS,
}


def prerequisite_code(stage: HandshakeStage) -> int:
    """Map a failed prerequisite handshake onto the 200-255 band."""
    return PREREQUISITE_CODES[stage]


def stream_frames_from_trace(
    trace: TraceBuilder, stream_id: int, direction: str = "rx"
) -> list[dict]:
    """Re-parse the trace's cleartext packet log and pull out the STREAM
    frames for one stream: the trace itself is the evidence scenarios
    judge."""
    out = []
    for entry in trace.packets:
        if entry.get("direction") != direction or "cleartext_hex" not in entry:
            continue
        if entry.get("level") not in ("one_rtt", "zero_rtt"):
            continue
        raw = bytes.fromhex(entry["cleartext_hex"])
        header, offset = parse_header(raw, short_dcid_len=entry.get("dcid_len", 8))
        for frame in parse_frames(raw[offset:]):
            if isinstance(frame, StreamFrame) and frame.stream_id == stream_id:
                out.append(
                    {
                        "offset": frame.offset,
                        "length": len(frame.data),
                        "fin": frame.fin,
                        "timestamp_ms": entry["timestamp_ms"],
                        "empty_non_fin": frame.is_empty_non_fin,
                    }
                )
    return out
