"""Per-stream send and receive state."""

from __future__ import annotations

from dataclasses import dataclass, field


class FlowControlAssertion(AssertionError):
    """We were about to violate a peer-advertised limit: a local bug."""


@dataclass
class StreamRecv:
    """Reassembles peer data: offset-ordered delivery, byte-exact dedupe."""

    delivered: bytes = b""
    segments: dict[int, bytes] = field(default_factory=dict)
    fin_offset: int | None = None
    highest_offset: int = 0  # largest offset+len seen, for flow accounting
    read_offset: int = 0  # how much of ``delivered`` ``read`` has returned

    def add(self, offset: int, data: bytes, fin: bool) -> bool:
        """Returns True when new contiguous bytes became readable."""
        end = offset + len(data)
        self.highest_offset = max(self.highest_offset, end)
        if fin:
            self.fin_offset = end
        # clip what we already delivered
        if end <= len(self.delivered):
            data = b""
        elif offset < len(self.delivered):
            data = data[len(self.delivered) - offset :]
            offset = len(self.delivered)
        if data:
            known = self.segments.get(offset)
            if known is None or len(known) < len(data):
                self.segments[offset] = data
        return self._advance()

    def _advance(self) -> bool:
        progressed = False
        while True:
            seg = self.segments.pop(len(self.delivered), None)
            if seg is None:
                overlapping = None
                for off in sorted(self.segments):
                    if off < len(self.delivered) and off + len(self.segments[off]) > len(
                        self.delivered
                    ):
                        overlapping = off
                        break
                    if off >= len(self.delivered):
                        break
                if overlapping is None:
                    return progressed
                seg = self.segments.pop(overlapping)[len(self.delivered) - overlapping :]
            self.delivered += seg
            progressed = True

    def read(self) -> bytes:
        """The bytes delivered since the last read."""
        fresh = self.delivered[self.read_offset :]
        self.read_offset = len(self.delivered)
        return fresh

    @property
    def finished(self) -> bool:
        return self.fin_offset is not None and len(self.delivered) >= self.fin_offset


@dataclass
class StreamSend:
    offset: int = 0
    limit: int = 0  # peer-advertised per-stream cap


@dataclass
class StreamState:
    stream_id: int
    send: StreamSend = field(default_factory=StreamSend)
    recv: StreamRecv = field(default_factory=StreamRecv)
