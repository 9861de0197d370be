"""How the reference server reads its input: long headers with long
connection ids (RFC 9000 section 17.2, RFC 8999 sections 5.1 and 6), and
the errors of its socket."""

import errno
import socket

import pytest

from quicprobe.conn import driver, drive
from quicprobe.faultsrv import FaultServer, ServerConfig
from quicprobe.scenarios.core import RESERVED_VERSION
from quicprobe.wire import PacketType, parse_header

from .exchange import CLIENT_ADDR, SEED, Exchange, resize_cid


@pytest.mark.parametrize("field", ["dcid", "scid"])
@pytest.mark.parametrize("size", [21, 255])
def test_server_drops_a_version_1_hello_whose_connection_id_is_too_long(field, size):
    exchange = Exchange()
    hello = exchange.to_server.pop(0)
    exchange.stop()
    exchange.server._handle_datagram(resize_cid(hello, field, size), CLIENT_ADDR)
    assert exchange.server.conns == {}
    assert exchange.to_client == []
    assert exchange.server.errors == []


@pytest.mark.parametrize("size", [0, 7])
def test_server_drops_a_version_1_hello_whose_destination_id_is_too_short(size):
    # RFC 9000 section 7.2: a client's first destination id has 8 bytes or more
    exchange = Exchange()
    hello = exchange.to_server.pop(0)
    exchange.stop()
    exchange.server._handle_datagram(resize_cid(hello, "dcid", size), CLIENT_ADDR)
    assert exchange.server.conns == {}
    assert exchange.to_client == []
    assert exchange.server.errors == []


@pytest.mark.parametrize("dcid_size, scid_size", [(21, 8), (8, 30), (255, 255)])
def test_server_echoes_long_connection_ids_of_an_unknown_version(dcid_size, scid_size):
    exchange = Exchange(version=RESERVED_VERSION)
    probe = exchange.to_server.pop(0)
    exchange.stop()
    probe = resize_cid(resize_cid(probe, "dcid", dcid_size), "scid", scid_size)
    exchange.server._handle_datagram(probe, CLIENT_ADDR)
    [reply] = exchange.to_client
    header, _ = parse_header(reply)
    assert header.packet_type is PacketType.VERSION_NEGOTIATION
    scid_at = 6 + dcid_size + 1
    assert header.dcid == probe[scid_at : scid_at + scid_size]  # the cids echoed, swapped
    assert header.scid == probe[6 : 6 + dcid_size]
    assert exchange.server.conns == {}
    assert exchange.server.errors == []


def test_server_never_answers_version_negotiation():
    exchange = Exchange(version=RESERVED_VERSION)
    exchange.deliver_to_server()
    [negotiation] = exchange.to_client
    exchange.stop()
    exchange.server._handle_datagram(negotiation, CLIENT_ADDR)
    assert exchange.to_client == [negotiation]
    assert exchange.server.errors == []


class ScriptedSocket:
    """A server socket that is always readable and whose ``recvfrom``
    answers from ``script``: an exception to raise or a datagram and its
    sender, then BlockingIOError once the script is done. Each datagram
    sent makes ``answered`` readable."""

    def __init__(self, script):
        self.script = list(script)
        self.sent = []
        self._readable, peer = socket.socketpair()
        peer.send(b"x")  # never read: keeps the socket readable
        self.answered, self._notify = socket.socketpair()
        self._sockets = (self._readable, peer, self.answered, self._notify)

    def fileno(self) -> int:
        return self._readable.fileno()

    def recvfrom(self, size):
        if not self.script:
            raise BlockingIOError
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step

    def sendto(self, datagram, addr):
        self.sent.append((datagram, addr))
        self._notify.send(b"x")

    def close(self):
        for sock in self._sockets:
            sock.close()


def test_a_socket_error_is_recorded_and_the_server_keeps_serving(monkeypatch):
    exchange = Exchange()
    hello = exchange.to_server.pop(0)
    exchange.stop()
    refused = ConnectionRefusedError(errno.ECONNREFUSED, "Connection refused")
    sock = ScriptedSocket([refused, (hello, CLIENT_ADDR)])
    server = FaultServer(ServerConfig(seed=SEED))
    server.sock = sock

    def until_answered():
        yield sock.answered, 5.0  # a server that stopped serving fails below

    monkeypatch.setattr(driver, "SERVING", [server.task])
    try:
        drive([until_answered()])
    finally:
        sock.close()
    assert server.errors == [repr(refused)]
    assert sock.sent and {addr for _, addr in sock.sent} == {CLIENT_ADDR}
    assert list(server.conns) == [CLIENT_ADDR]
