"""Pluggable handshake boundary.

The connection machinery only ever talks to a ``HandshakeProvider``; a
real TLS 1.3 stack can be adapted behind the same five operations. The
``NullHandshakeProvider`` is a scripted double: client and server seeded
identically walk a fixed fake transcript and derive identical key
material per level and direction, enabling loopback runs without TLS.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod

from ..wire import ParseError, TransportParameters, decode_transport_parameters
from .packet import EncryptionLevel, KeyMaterial, key_material_from_secret, sha256

MSG_CLIENT_HELLO = 1
MSG_SERVER_HELLO = 2
MSG_NEW_SESSION_TICKET = 4
MSG_ENCRYPTED_EXTENSIONS = 8
MSG_CERTIFICATE = 11
MSG_CERTIFICATE_VERIFY = 15
MSG_FINISHED = 20

_CH_MAGIC = b"NULLTLS1"

# the seed of the scripted handshake; the client and the server it probes
# must be given the same one to derive the same keys
DEFAULT_PROVIDER_SEED = 7


class ProviderError(Exception):
    """The scripted transcript was violated."""


class HandshakeProvider(ABC):
    """One instance per connection; consume() is deterministic in its
    input history and secrets for a level are exported at most once."""

    @abstractmethod
    def start(self) -> list[tuple[EncryptionLevel, bytes]]:
        """Initial flight of crypto data to send, if this side opens."""

    @abstractmethod
    def consume(self, level: EncryptionLevel, data: bytes) -> list[tuple[EncryptionLevel, bytes]]:
        """Feed reassembled peer crypto bytes; returns replies to send."""

    @abstractmethod
    def exported_secrets(self) -> list[KeyMaterial]:
        """Key material that became available since the last call."""

    @abstractmethod
    def peer_transport_parameters(self) -> TransportParameters | None:
        """Strictly decoded peer parameters; raises ParseError on bad encoding."""

    @abstractmethod
    def resumption_ticket(self) -> bytes | None:
        """Opaque resumption token once the peer issued one."""


def _frame_message(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


def _derive(seed: bytes, tag: str, length: int = 32) -> bytes:
    return sha256(b"nullhs:" + tag.encode() + b":" + seed)[:length]


class NullHandshakeProvider(HandshakeProvider):
    """Scripted handshake double shared by the client and the reference
    server. Peers configured with the same seed derive the same secrets.

    ``local_tp`` is the already-encoded transport parameter blob this
    side announces (raw, so a test server can announce a deliberately
    broken encoding). The scripted certificate material is always checked
    against its expected derivation.
    """

    def __init__(
        self,
        seed: int,
        is_client: bool,
        local_tp: bytes = b"",
        ticket: bytes | None = None,
        accept_early_data: bool = True,
        issue_tickets: bool = True,
    ):
        self.seed = struct.pack(">Q", seed)
        self.is_client = is_client
        self.local_tp = local_tp
        self.offered_ticket = ticket
        self.accept_early_data = accept_early_data
        self.issue_tickets = issue_tickets

        self.handshake_complete = False
        self.early_data_accepted = False
        self.peer_tp_raw: bytes | None = None
        self._ticket: bytes | None = None
        self._buffers: dict[EncryptionLevel, bytes] = {}
        self._pending_secrets: list[KeyMaterial] = []
        self._started = False

    # -- HandshakeProvider surface -------------------------------------

    def start(self) -> list[tuple[EncryptionLevel, bytes]]:
        if not self.is_client:
            return []
        if self._started:
            raise ProviderError("handshake already started")
        self._started = True
        body = _CH_MAGIC + self.seed
        body += struct.pack(">H", len(self.local_tp)) + self.local_tp
        if self.offered_ticket is not None:
            body += b"\x01" + bytes([len(self.offered_ticket)]) + self.offered_ticket
            # early keys are usable as soon as the hello is on the wire
            self._export(EncryptionLevel.ZERO_RTT, "client")
        else:
            body += b"\x00"
        return [(EncryptionLevel.INITIAL, _frame_message(MSG_CLIENT_HELLO, body))]

    def consume(self, level: EncryptionLevel, data: bytes) -> list[tuple[EncryptionLevel, bytes]]:
        self._buffers[level] = self._buffers.get(level, b"") + data
        out: list[tuple[EncryptionLevel, bytes]] = []
        while True:
            msg = self._next_message(level)
            if msg is None:
                return out
            msg_type, body = msg
            if self.is_client:
                out += self._client_handle(level, msg_type, body)
            else:
                out += self._server_handle(level, msg_type, body)

    def exported_secrets(self) -> list[KeyMaterial]:
        out, self._pending_secrets = self._pending_secrets, []
        return out

    def peer_transport_parameters(self) -> TransportParameters | None:
        if self.peer_tp_raw is None:
            return None
        return decode_transport_parameters(self.peer_tp_raw)

    def resumption_ticket(self) -> bytes | None:
        return self._ticket

    # -- scripted transcript -------------------------------------------

    def _next_message(self, level: EncryptionLevel) -> tuple[int, bytes] | None:
        buf = self._buffers.get(level, b"")
        if len(buf) < 4:
            return None
        length = int.from_bytes(buf[1:4], "big")
        if len(buf) < 4 + length:
            return None
        self._buffers[level] = buf[4 + length :]
        return buf[0], buf[1 + 3 : 4 + length]

    def _export(self, level: EncryptionLevel, direction: str) -> None:
        tag = {"client": "c", "server": "s"}[direction]
        if level is EncryptionLevel.ZERO_RTT:
            seed = self.seed + (self.offered_ticket or self._ticket or b"")
            secret = _derive(seed, "early " + tag)
        else:
            secret = _derive(self.seed, f"{level.label} {tag}")
        self._pending_secrets.append(key_material_from_secret(secret, level, direction))

    def _expect(self, condition: bool, what: str) -> None:
        if not condition:
            raise ProviderError(f"scripted transcript violated: {what}")

    def _client_handle(
        self, level: EncryptionLevel, msg_type: int, body: bytes
    ) -> list[tuple[EncryptionLevel, bytes]]:
        if msg_type == MSG_SERVER_HELLO:
            self._expect(level is EncryptionLevel.INITIAL, "SH outside initial")
            self._expect(body == _CH_MAGIC + self.seed, "SH seed mismatch")
            self._export(EncryptionLevel.HANDSHAKE, "client")
            self._export(EncryptionLevel.HANDSHAKE, "server")
            return []
        if msg_type == MSG_ENCRYPTED_EXTENSIONS:
            self.early_data_accepted = bool(body[0])
            tp_len = struct.unpack(">H", body[1:3])[0]
            self.peer_tp_raw = body[3 : 3 + tp_len]
            return []
        if msg_type == MSG_CERTIFICATE:
            self._expect(body == _derive(self.seed, "cert", 48), "bad certificate")
            return []
        if msg_type == MSG_CERTIFICATE_VERIFY:
            self._expect(body == _derive(self.seed, "cert-verify"), "bad certificate verify")
            return []
        if msg_type == MSG_FINISHED:
            self._expect(body == _derive(self.seed, "server fin", 16), "bad server finished")
            self.handshake_complete = True
            self._export(EncryptionLevel.ONE_RTT, "client")
            self._export(EncryptionLevel.ONE_RTT, "server")
            fin = _frame_message(MSG_FINISHED, _derive(self.seed, "client fin", 16))
            return [(EncryptionLevel.HANDSHAKE, fin)]
        if msg_type == MSG_NEW_SESSION_TICKET:
            self._ticket = body[1 : 1 + body[0]]
            return []
        raise ProviderError(f"unexpected message type {msg_type} for client")

    def _server_handle(
        self, level: EncryptionLevel, msg_type: int, body: bytes
    ) -> list[tuple[EncryptionLevel, bytes]]:
        if msg_type == MSG_CLIENT_HELLO:
            self._expect(level is EncryptionLevel.INITIAL, "CH outside initial")
            self._expect(body[:8] == _CH_MAGIC, "bad CH magic")
            self._expect(body[8:16] == self.seed, "CH seed mismatch")
            tp_len = struct.unpack(">H", body[16:18])[0]
            self.peer_tp_raw = body[18 : 18 + tp_len]
            pos = 18 + tp_len
            offered = None
            if body[pos]:
                tlen = body[pos + 1]
                offered = body[pos + 2 : pos + 2 + tlen]
            accept_early = (
                offered is not None
                and offered == _derive(self.seed, "ticket", 16)
                and self.accept_early_data
            )
            if accept_early:
                self.offered_ticket = offered
                self.early_data_accepted = True
                self._export(EncryptionLevel.ZERO_RTT, "client")

            sh = _frame_message(MSG_SERVER_HELLO, _CH_MAGIC + self.seed)
            ee_body = (b"\x01" if accept_early else b"\x00") + struct.pack(
                ">H", len(self.local_tp)
            ) + self.local_tp
            flight = _frame_message(MSG_ENCRYPTED_EXTENSIONS, ee_body)
            flight += _frame_message(MSG_CERTIFICATE, _derive(self.seed, "cert", 48))
            flight += _frame_message(MSG_CERTIFICATE_VERIFY, _derive(self.seed, "cert-verify"))
            flight += _frame_message(MSG_FINISHED, _derive(self.seed, "server fin", 16))
            self._export(EncryptionLevel.HANDSHAKE, "client")
            self._export(EncryptionLevel.HANDSHAKE, "server")
            # TLS 1.3 servers can send application data after their first
            # flight; export 1-RTT as soon as the finished goes out.
            self._export(EncryptionLevel.ONE_RTT, "client")
            self._export(EncryptionLevel.ONE_RTT, "server")
            return [
                (EncryptionLevel.INITIAL, sh),
                (EncryptionLevel.HANDSHAKE, flight),
            ]
        if msg_type == MSG_FINISHED:
            self._expect(level is EncryptionLevel.HANDSHAKE, "client FIN outside handshake")
            self._expect(body == _derive(self.seed, "client fin", 16), "bad client finished")
            self.handshake_complete = True
            if self.issue_tickets:
                ticket = _derive(self.seed, "ticket", 16)
                self._ticket = ticket
                nst = _frame_message(MSG_NEW_SESSION_TICKET, bytes([len(ticket)]) + ticket)
                return [(EncryptionLevel.ONE_RTT, nst)]
            return []
        raise ProviderError(f"unexpected message type {msg_type} for server")
