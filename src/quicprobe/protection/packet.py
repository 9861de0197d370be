"""Initial key schedule and AEAD packet protection.

The key schedule follows the QUIC version 1 construction: HKDF-extract
over the destination connection id with the version 1 salt, then
labelled expansions into per-direction secrets and AES-128-GCM key, iv
and header-protection key. Cryptographic primitives come from the
``cryptography`` package behind this module's narrow surface; the rest
of quicprobe takes its SHA-256 from ``sha256`` here, so no process loads
the standard library's OpenSSL binding as a second copy.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from enum import IntEnum

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, hmac
from cryptography.hazmat.primitives.ciphers import Cipher, CipherContext, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

from ..wire import (
    QUIC_V1,
    PacketHeader,
    PacketType,
    check_first_byte,
    read_header,
)
from ..wire.errors import TruncationError
from ..wire.header import join_header, split_header

INITIAL_SALT_V1 = bytes.fromhex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a")
# RFC 9001 section 5.8: fixed key and nonce of the Retry integrity tag
RETRY_KEY_V1 = bytes.fromhex("be0c690b9f66575a1d766b54e368c84e")
RETRY_NONCE_V1 = bytes.fromhex("461599d35d632bf2239825bb")

AEAD_KEY_LEN = 16
AEAD_IV_LEN = 12
AEAD_TAG_LEN = 16
HP_KEY_LEN = 16
HP_SAMPLE_LEN = 16


class ProtectionError(Exception):
    pass


class UnsupportedVersionError(ProtectionError):
    def __init__(self, version: int):
        super().__init__(f"unsupported QUIC version 0x{version:08x}")
        self.version = version


class DecryptError(ProtectionError):
    """AEAD authentication failed; recorded in traces, never fatal."""


class EncryptionLevel(IntEnum):
    INITIAL = 0
    ZERO_RTT = 1
    HANDSHAKE = 2
    ONE_RTT = 3

    @property
    def label(self) -> str:
        return self.name.lower()


LEVEL_FOR_PACKET_TYPE = {
    PacketType.INITIAL: EncryptionLevel.INITIAL,
    PacketType.ZERO_RTT: EncryptionLevel.ZERO_RTT,
    PacketType.HANDSHAKE: EncryptionLevel.HANDSHAKE,
    PacketType.ONE_RTT: EncryptionLevel.ONE_RTT,
}
PACKET_TYPE_FOR_LEVEL = {v: k for k, v in LEVEL_FOR_PACKET_TYPE.items()}
# packet number space per level: 0-RTT and 1-RTT share one
SPACE_FOR_LEVEL = {
    EncryptionLevel.INITIAL: "initial",
    EncryptionLevel.ZERO_RTT: "application",
    EncryptionLevel.HANDSHAKE: "handshake",
    EncryptionLevel.ONE_RTT: "application",
}


@dataclass(frozen=True)
class KeyMaterial:
    """Keys of one level and direction, with their ciphers built once.

    ``key_material_from_secret`` keeps the 64 it built last and hands
    the same object to every caller of the same secret, so one
    ``KeyMaterial`` may serve several connections and the reference
    server at once. The header-protection encryptor keeps state between
    calls, so a key belongs to one thread, the one that runs ``drive``.
    """

    level: EncryptionLevel
    direction: str  # "client" or "server": who *sends* under these keys
    key: bytes
    iv: bytes
    header_protection_key: bytes
    aead: AESGCM = field(init=False, repr=False, compare=False)
    hp_encryptor: CipherContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assert len(self.key) == AEAD_KEY_LEN
        assert len(self.iv) == AEAD_IV_LEN
        assert len(self.header_protection_key) == HP_KEY_LEN
        object.__setattr__(self, "aead", AESGCM(self.key))
        hp = Cipher(algorithms.AES(self.header_protection_key), modes.ECB())
        object.__setattr__(self, "hp_encryptor", hp.encryptor())


def sha256(data: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    ctx = hmac.HMAC(salt, hashes.SHA256())
    ctx.update(ikm)
    return ctx.finalize()


def hkdf_expand_label(secret: bytes, label: str, length: int) -> bytes:
    full = b"tls13 " + label.encode("ascii")
    info = struct.pack(">HB", length, len(full)) + full + b"\x00"
    return HKDFExpand(algorithm=hashes.SHA256(), length=length, info=info).derive(secret)


@functools.lru_cache(maxsize=64)
def key_material_from_secret(
    secret: bytes, level: EncryptionLevel, direction: str
) -> KeyMaterial:
    """The keys of one secret, built once while the secret stays among
    the 64 used last (each entry holds about 3.5 KB): the client and the
    server derive the same Initial secrets from one connection id, and
    the scripted provider the same secrets from one seed."""
    return KeyMaterial(
        level=level,
        direction=direction,
        key=hkdf_expand_label(secret, "quic key", AEAD_KEY_LEN),
        iv=hkdf_expand_label(secret, "quic iv", AEAD_IV_LEN),
        header_protection_key=hkdf_expand_label(secret, "quic hp", HP_KEY_LEN),
    )


def derive_initial_keys(dcid: bytes, version: int = QUIC_V1) -> tuple[KeyMaterial, KeyMaterial]:
    """Deterministic (client, server) Initial keys for a connection id."""
    if version != QUIC_V1:
        raise UnsupportedVersionError(version)
    if not dcid:
        raise ProtectionError("initial keys need a non-empty destination connection id")
    initial_secret = hkdf_extract(INITIAL_SALT_V1, dcid)
    client_secret = hkdf_expand_label(initial_secret, "client in", 32)
    server_secret = hkdf_expand_label(initial_secret, "server in", 32)
    return (
        key_material_from_secret(client_secret, EncryptionLevel.INITIAL, "client"),
        key_material_from_secret(server_secret, EncryptionLevel.INITIAL, "server"),
    )


def retry_integrity_tag(retry_without_tag: bytes, original_dcid: bytes) -> bytes:
    """The 16-byte tag that ends a Retry packet: AES-128-GCM over the
    pseudo-packet, the client's first destination connection id followed
    by the Retry packet up to the tag."""
    pseudo = bytes([len(original_dcid)]) + original_dcid + retry_without_tag
    return AESGCM(RETRY_KEY_V1).encrypt(RETRY_NONCE_V1, b"", pseudo)


def decode_packet_number(truncated: int, pn_nbits: int, largest_pn: int) -> int:
    """Widen a truncated packet number, choosing the candidate closest to
    the next expected number after ``largest_pn`` (-1 when none seen)."""
    expected = largest_pn + 1
    win = 1 << pn_nbits
    hwin = win >> 1
    mask = win - 1
    candidate = (expected & ~mask) | truncated
    if candidate <= expected - hwin and candidate < (1 << 62) - win:
        return candidate + win
    if candidate > expected + hwin and candidate >= win:
        return candidate - win
    return candidate


def packet_number_length(pn: int, largest_acked: int = -1) -> int:
    """Smallest safe truncation (floor 2 bytes) given what the peer acked."""
    unacked = pn + 1 if largest_acked < 0 else pn - largest_acked
    for size in (2, 3, 4):
        if unacked < (1 << (size * 8 - 1)):
            return size
    raise ProtectionError(f"packet number {pn} too far ahead of acked {largest_acked}")


def _nonce(iv: bytes, packet_number: int) -> bytes:
    return (int.from_bytes(iv, "big") ^ packet_number).to_bytes(AEAD_IV_LEN, "big")


def cleartext_packet_bytes(header: PacketHeader, plaintext: bytes) -> bytes:
    """Header + decrypted payload as logged in traces: the long-header
    length field covers the packet number and plaintext but no AEAD tag."""
    return join_header(split_header(header), header.pn_length + len(plaintext)) + plaintext


def seal_packet(
    header: PacketHeader, plaintext: bytes, keys: KeyMaterial
) -> tuple[bytes, bytes]:
    """Seal and header-protect one packet, its header serialized once:
    the packet's wire bytes, and its cleartext as logged in traces
    (``cleartext_packet_bytes``)."""
    if header.packet_type not in LEVEL_FOR_PACKET_TYPE:
        raise ProtectionError(f"cannot protect a {header.packet_type.value} packet")
    if LEVEL_FOR_PACKET_TYPE[header.packet_type] is not keys.level:
        raise ProtectionError(
            f"keys are for {keys.level.label}, packet is {header.packet_type.value}"
        )
    if header.packet_number >= 1 << 62:
        raise ProtectionError("packet number out of range")
    # The header-protection sample starts 4 bytes past the pn field, so the
    # sealed payload must reach pn_length + 4 + sample bytes.
    if len(plaintext) + AEAD_TAG_LEN < 4 - header.pn_length + HP_SAMPLE_LEN:
        raise ProtectionError("payload too short to sample header protection")

    # the AAD and the logged header differ only in a long header's Length
    parts = split_header(header)
    cleartext_len = header.pn_length + len(plaintext)
    aad = join_header(parts, cleartext_len + AEAD_TAG_LEN)
    nonce = _nonce(keys.iv, header.packet_number)
    sample_at = 4 - header.pn_length  # into the ciphertext, which follows the pn field
    ciphertext = keys.aead.encrypt(nonce, plaintext, aad)
    mask = keys.hp_encryptor.update(ciphertext[sample_at : sample_at + HP_SAMPLE_LEN])

    packet = bytearray(aad + ciphertext)
    pn_offset = len(aad) - header.pn_length
    packet[0] ^= mask[0] & (0x0F if header.is_long else 0x1F)
    for i in range(header.pn_length):
        packet[pn_offset + i] ^= mask[1 + i]
    return bytes(packet), join_header(parts, cleartext_len) + plaintext


def unprotect(
    buf: bytes,
    keys: KeyMaterial,
    largest_pn: int = -1,
    short_dcid_len: int = 8,
) -> tuple[PacketHeader, bytes]:
    """Remove header protection and open the AEAD.

    Returns the header (packet number already widened against
    ``largest_pn``) and the plaintext payload.
    """
    return open_packet(buf, read_header(buf, short_dcid_len), keys, largest_pn)


def open_packet(
    buf: bytes,
    read: tuple[PacketHeader, int, int],
    keys: KeyMaterial,
    largest_pn: int = -1,
) -> tuple[PacketHeader, bytes]:
    """``unprotect`` for a caller that has already read the packet's
    header: ``read`` is what ``read_header`` returned for ``buf``."""
    header, pn_offset, end = read
    if header.version != QUIC_V1:
        # the version is part of the AEAD's associated data: no version 1
        # keys open it, and its layout past the connection ids is unknown
        raise DecryptError(f"no keys for QUIC version 0x{header.version:08x}")
    if pn_offset + 4 + HP_SAMPLE_LEN > len(buf):
        raise TruncationError("packet too short for header protection sample", offset=pn_offset)
    if end > len(buf):
        raise TruncationError("declared length exceeds datagram", offset=pn_offset)
    sample = buf[pn_offset + 4 : pn_offset + 4 + HP_SAMPLE_LEN]
    mask = keys.hp_encryptor.update(sample)

    packet = bytearray(buf)
    packet[0] ^= mask[0] & (0x0F if header.is_long else 0x1F)
    pn_length = (packet[0] & 0x03) + 1
    for i in range(pn_length):
        packet[pn_offset + i] ^= mask[1 + i]
    truncated = int.from_bytes(packet[pn_offset : pn_offset + pn_length], "big")
    packet_number = decode_packet_number(truncated, pn_length * 8, largest_pn)

    aad = bytes(packet[: pn_offset + pn_length])
    ciphertext = bytes(packet[pn_offset + pn_length : end])
    nonce = _nonce(keys.iv, packet_number)
    try:
        plaintext = keys.aead.decrypt(nonce, ciphertext, aad)
    except InvalidTag:
        raise DecryptError(f"AEAD authentication failed for {keys.level.label} packet")

    check_first_byte(header, packet[0])
    header.packet_number = packet_number
    header.pn_length = pn_length
    return header, plaintext
