"""Event-driven connection engine and the composable client agents."""

from .agents import build_ack, build_agents
from .connection import (
    AGENT_ORDER,
    Connection,
    FULL_ROSTER,
    HandshakeStage,
    INITIAL_DATAGRAM_MIN,
    MAX_DATAGRAM_SIZE,
    PrerequisiteError,
    perform_handshake,
    unfinished_stage,
)
from .events import (
    Event,
    NewKeysAvailable,
    PacketReceived,
    PacketSent,
    Timeout,
)
from .streams import FlowControlAssertion, StreamRecv, StreamState

__all__ = [
    "AGENT_ORDER",
    "Connection",
    "Event",
    "FULL_ROSTER",
    "FlowControlAssertion",
    "HandshakeStage",
    "INITIAL_DATAGRAM_MIN",
    "MAX_DATAGRAM_SIZE",
    "NewKeysAvailable",
    "PacketReceived",
    "PacketSent",
    "PrerequisiteError",
    "StreamRecv",
    "StreamState",
    "Timeout",
    "build_ack",
    "build_agents",
    "perform_handshake",
    "unfinished_stage",
]
