"""Client connection engine and the composable client agents."""

from .agents import (
    AGENT_ORDER,
    FULL_ROSTER,
    INITIAL_DATAGRAM_MIN,
    MAX_DATAGRAM_SIZE,
    Packet,
    build_ack,
)
from .connection import (
    Connection,
    HandshakeStage,
    PrerequisiteError,
    perform_handshake,
    resolve,
    unfinished_stage,
)
from .driver import drive
from .streams import FlowControlAssertion, StreamRecv, StreamState

__all__ = [
    "AGENT_ORDER",
    "Connection",
    "FULL_ROSTER",
    "FlowControlAssertion",
    "HandshakeStage",
    "INITIAL_DATAGRAM_MIN",
    "MAX_DATAGRAM_SIZE",
    "Packet",
    "PrerequisiteError",
    "StreamRecv",
    "StreamState",
    "build_ack",
    "drive",
    "perform_handshake",
    "resolve",
    "unfinished_stage",
]
