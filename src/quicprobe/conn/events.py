"""Connection events.

Agents subscribe to event types and are invoked in a fixed order for
each event popped off the per-connection FIFO bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protection import EncryptionLevel
from ..wire import Frame, PacketHeader


@dataclass
class PacketReceived:
    header: PacketHeader
    frames: list[Frame]
    level: EncryptionLevel


@dataclass
class PacketSent:
    header: PacketHeader
    frames: list[Frame]
    level: EncryptionLevel


@dataclass
class NewKeysAvailable:
    level: EncryptionLevel


@dataclass
class Timeout:
    """The retransmission deadline passed."""


Event = PacketReceived | PacketSent | NewKeysAvailable | Timeout
