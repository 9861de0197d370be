"""Scenario plumbing: context, registry and trace extraction helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..conn import Connection, HandshakeStage, perform_handshake
from ..protection import NullHandshakeProvider
from ..traces import TraceBuilder
from ..wire import (
    StreamFrame,
    TransportParameters,
    encode_transport_parameters,
    parse_frames,
    parse_header,
)
from ..wire.transport_params import (
    TP_INITIAL_MAX_DATA,
    TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL,
    TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE,
    TP_INITIAL_MAX_STREAMS_BIDI,
    TP_MAX_IDLE_TIMEOUT,
)
from . import codes


def default_client_tp(overrides: dict[int, int] | None = None) -> TransportParameters:
    """The client's parameters; ``overrides`` maps parameter ids to integer values."""
    tp = TransportParameters()
    tp.set_int(TP_MAX_IDLE_TIMEOUT, 30_000)
    tp.set_int(TP_INITIAL_MAX_DATA, 65_536)
    tp.set_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL, 65_536)
    tp.set_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE, 65_536)
    tp.set_int(TP_INITIAL_MAX_STREAMS_BIDI, 16)
    for param_id, value in (overrides or {}).items():
        tp.set_int(param_id, value)
    return tp


# the code of a failed handshake where the handshake is what a scenario tests
HANDSHAKE_FAILURE_CODES = {
    HandshakeStage.NO_RESPONSE: codes.PREREQ_NO_RESPONSE,
    HandshakeStage.VERSION_MISMATCH: codes.HS_VERSION_MISMATCH,
    HandshakeStage.INCOMPLETE: codes.HS_STALLED,
}

# the code of a failed handshake that a scenario only needs as a prerequisite
PREREQUISITE_CODES = {
    HandshakeStage.NO_RESPONSE: codes.PREREQ_NO_RESPONSE,
    HandshakeStage.VERSION_MISMATCH: codes.PREREQ_VERSION_MISMATCH,
    HandshakeStage.INCOMPLETE: codes.PREREQ_HANDSHAKE_STALLED,
}


class UnmetPrerequisite(Exception):
    """A scenario's prerequisite handshake did not finish: the scenario
    ends with the 2xx code of the stage it was stuck at and the results
    it had gathered so far."""

    def __init__(self, stage: HandshakeStage, results: dict | None = None):
        super().__init__(stage.value)
        self.code = PREREQUISITE_CODES[stage]
        self.results = results if results is not None else {}


@dataclass
class ScenarioContext:
    """Everything one scenario execution may touch."""

    target: dict  # name, host, port
    trace: TraceBuilder
    provider_seed: int
    timeout_s: float
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
            self.trace,
            roster=roster,
            **conn_kwargs,
        )
        self._conns.append(conn)
        conn.start()
        return conn

    def require_handshake(
        self, conn: Connection, results: dict | None = None, timeout_s: float | None = None
    ) -> None:
        """Complete the handshake a scenario needs before its own checks,
        within ``timeout_s`` (default: the scenario timeout), or raise
        UnmetPrerequisite carrying ``results``."""
        stage = perform_handshake(conn, self.timeout_s if timeout_s is None else timeout_s)
        if stage is not None:
            raise UnmetPrerequisite(stage, results)

    def teardown(self) -> None:
        """Close and release every connection. The trace is still open, so
        a failed close is recorded there; teardown goes on regardless."""
        for conn in self._conns:
            try:
                conn.close()
            except Exception as exc:  # a close must not keep the rest open
                self.trace.note("teardown_error", repr(exc))
            conn.stop()
        self._conns.clear()


class Scenario:
    """One self-contained conformance test on a fresh connection."""

    name = "scenario"
    scenario_version = 1
    requires_handshake = False

    def run(self, ctx: ScenarioContext) -> tuple[int, dict]:
        raise NotImplementedError


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
