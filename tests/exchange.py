"""An in-memory exchange between the client and the reference server.

Neither side touches the network: the client's datagrams are captured
where its bundler sends them and handed to ``FaultServer._handle_datagram``,
and the server's datagrams are captured where it sends them and handed to
``Connection.receive``, the receive path ``Connection.pump`` uses.
Connection ids and the handshake seed are fixed, so every run sends the
same bytes.
"""

from __future__ import annotations

import socket
import time

from quicprobe.conn import FULL_ROSTER, Connection
from quicprobe.faultsrv import FaultServer, ServerConfig
from quicprobe.protection import NullHandshakeProvider
from quicprobe.scenarios.base import default_client_tp
from quicprobe.traces import TraceBuilder
from quicprobe.wire import QUIC_V1, encode_transport_parameters

SEED = 7
CLIENT_ADDR = ("127.0.0.1", 4433)
ORIGINAL_DCID = bytes.fromhex("0123456789abcdef")
CLIENT_SCID = bytes.fromhex("c1c2c3c4c5c6c7c8")


class Exchange:
    """A client connection and a server that reach each other only through
    the ``to_server`` and ``to_client`` lists. The client's socket is
    connected to a bound socket that never answers; ``stop`` closes both."""

    def __init__(self, version: int = QUIC_V1, **server_config):
        self._peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._peer.bind(("127.0.0.1", 0))
        peer = self._peer.getsockname()
        self.to_server: list[bytes] = []
        self.to_client: list[bytes] = []
        self.server = FaultServer(ServerConfig(seed=SEED, **server_config))
        self.server.sendto = lambda datagram, addr: self.to_client.append(datagram)
        provider = NullHandshakeProvider(
            seed=SEED, is_client=True, local_tp=encode_transport_parameters(default_client_tp())
        )
        self.trace = TraceBuilder("handshake", 1, {"name": "exchange"})
        self.conn = Connection(
            peer[0], peer[1], provider, self.trace, roster=FULL_ROSTER, version=version
        )
        self.conn.original_dcid = self.conn.dcid = ORIGINAL_DCID
        self.conn.scid = CLIENT_SCID
        self.conn._sendto = self._client_sendto
        self.conn.start()

    def _client_sendto(self, datagram: bytes) -> None:
        self.conn.bytes_sent += len(datagram)
        self.to_server.append(datagram)

    def receive(self, datagram: bytes) -> None:
        """Hand one datagram to the client's receive path."""
        self.conn.receive(datagram, time.monotonic())

    def deliver_to_server(self) -> None:
        pending, self.to_server = self.to_server, []
        for datagram in pending:
            self.server._handle_datagram(datagram, CLIENT_ADDR)

    def next_to_client(self) -> bytes | None:
        """Let the server answer what the client sent, then take the
        oldest datagram the server has sent and not yet delivered."""
        self.deliver_to_server()
        return self.to_client.pop(0) if self.to_client else None

    def flush_client(self) -> None:
        self.conn._flush()

    def stop(self) -> None:
        self.conn.stop()
        self._peer.close()


def resize_cid(datagram: bytes, field: str, size: int) -> bytes:
    """A long-header datagram with its 8-byte ``field`` ("dcid" or
    "scid") padded or cut to ``size`` bytes and its length byte to match:
    the header stays well formed, the protection no longer fits it."""
    at = 5 if field == "dcid" else 6 + datagram[5]
    assert datagram[at] == 8
    cid = (datagram[at + 1 : at + 9] + b"\x5a" * (size - 8))[:size]
    return datagram[:at] + bytes([size]) + cid + datagram[at + 9 :]
