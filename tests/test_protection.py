import pytest
from hypothesis import given, strategies as st

from quicprobe.protection import (
    DecryptError,
    EncryptionLevel,
    UnsupportedVersionError,
    cleartext_packet_bytes,
    decode_packet_number,
    derive_initial_keys,
    packet_number_length,
    protect,
    retry_integrity_tag,
    unprotect,
)
from quicprobe.wire import PacketHeader, PacketType, parse_frames, parse_header

from . import hkdf_oracle

DCID = bytes.fromhex("8394c8f03e515708")

# Published version 1 initial-key vectors, re-derived by tests/hkdf_oracle.py.
CLIENT_KEY = bytes.fromhex("1f369613dd76d5467730efcbe3b1a22d")
CLIENT_IV = bytes.fromhex("fa044b2f42a3fd3b46fb255c")
CLIENT_HP = bytes.fromhex("9f50449e04a0e810283a1e9933adedd2")
SERVER_KEY = bytes.fromhex("cf3a5331653c364c88f0f379b6067e37")
SERVER_IV = bytes.fromhex("0ac1493ca1905853b0bba03e")
SERVER_HP = bytes.fromhex("c206b8d9b9f0f37644430b490eeaa314")


def test_retry_integrity_tag_matches_published_vector():
    # RFC 9001 appendix A.4: the Retry answering the client Initial of A.2
    retry = bytes.fromhex(
        "ff000000010008f067a5502a4262b5746f6b656e04a265ba2eff4d829058fb3f0f2496ba"
    )
    assert retry_integrity_tag(retry[:-16], DCID) == retry[-16:]
    assert retry_integrity_tag(retry[:-16], DCID[::-1]) != retry[-16:]


def test_initial_keys_match_published_vectors():
    client, server = derive_initial_keys(DCID)
    assert client.key == CLIENT_KEY
    assert client.iv == CLIENT_IV
    assert client.header_protection_key == CLIENT_HP
    assert server.key == SERVER_KEY
    assert server.iv == SERVER_IV
    assert server.header_protection_key == SERVER_HP


def test_initial_keys_agree_with_standalone_oracle():
    oracle = hkdf_oracle.initial_keys(DCID)
    client, server = derive_initial_keys(DCID)
    assert client.key == oracle["client"]["key"]
    assert client.iv == oracle["client"]["iv"]
    assert client.header_protection_key == oracle["client"]["hp"]
    assert server.key == oracle["server"]["key"]
    assert server.iv == oracle["server"]["iv"]
    assert server.header_protection_key == oracle["server"]["hp"]


def test_unsupported_version_named_in_error():
    with pytest.raises(UnsupportedVersionError, match="0x3355aa00"):
        derive_initial_keys(DCID, version=0x3355AA00)


def test_derivation_is_deterministic():
    assert derive_initial_keys(DCID) == derive_initial_keys(DCID)


def _initial_header(pn, pn_length, dcid=DCID):
    return PacketHeader(
        packet_type=PacketType.INITIAL,
        dcid=dcid,
        scid=b"\xc1\xc2",
        packet_number=pn,
        pn_length=pn_length,
    )


def test_protect_unprotect_round_trip():
    client, _ = derive_initial_keys(DCID)
    plaintext = b"\x01" + b"\x00" * 199
    packet = protect(_initial_header(7, 2), plaintext, client)
    header, recovered = unprotect(packet, client, largest_pn=6)
    assert recovered == plaintext
    assert header.packet_number == 7
    assert header.packet_type is PacketType.INITIAL


def test_flipped_byte_fails_authentication():
    client, _ = derive_initial_keys(DCID)
    packet = bytearray(protect(_initial_header(0, 1), b"\x01" * 50, client))
    packet[-1] ^= 0xFF
    with pytest.raises(DecryptError):
        unprotect(bytes(packet), client, largest_pn=-1)


def test_packet_number_reconstruction_vector():
    # closest-to-expected rule on the published example
    assert decode_packet_number(0x9B32, 16, 0xA82F30EA) == 0xA82F9B32


def test_packet_number_reconstruction_wraps():
    assert decode_packet_number(0xFF, 8, 0x100) == 0xFF
    assert decode_packet_number(0x00, 8, 0xFF) == 0x100


def test_header_protection_touches_only_pn_and_low_bits():
    client, _ = derive_initial_keys(DCID)
    header = _initial_header(3, 2)
    plaintext = b"\x02" * 64
    protected = protect(header, plaintext, client)
    clear = cleartext_packet_bytes(header, plaintext)
    # all header bytes before the pn field match the cleartext serialization
    # except the masked low bits of the first byte and the length field
    parsed, payload_offset = parse_header(clear)
    pn_offset = payload_offset - header.pn_length
    assert protected[0] & 0xF0 == clear[0] & 0xF0
    assert protected[1 : pn_offset - 3] == clear[1 : pn_offset - 3]  # up to length varint


@given(
    pn_length=st.integers(min_value=1, max_value=4),
    pn=st.integers(min_value=0, max_value=(1 << 62) - 1),
    payload=st.binary(min_size=3, max_size=600),
    packet_type=st.sampled_from([PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.ONE_RTT]),
)
def test_round_trip_property(pn_length, pn, payload, packet_type):
    client, _ = derive_initial_keys(DCID)
    keys = client
    if packet_type is not PacketType.INITIAL:
        keys = type(client)(
            level={
                PacketType.HANDSHAKE: EncryptionLevel.HANDSHAKE,
                PacketType.ONE_RTT: EncryptionLevel.ONE_RTT,
            }[packet_type],
            direction="client",
            key=client.key,
            iv=client.iv,
            header_protection_key=client.header_protection_key,
        )
    header = PacketHeader(
        packet_type=packet_type,
        dcid=DCID,
        scid=b"" if packet_type is PacketType.ONE_RTT else b"\x01",
        packet_number=pn % (1 << (8 * pn_length)),
        pn_length=pn_length,
    )
    packet = protect(header, payload, keys)
    parsed, recovered = unprotect(
        packet, keys, largest_pn=header.packet_number - 1, short_dcid_len=len(DCID)
    )
    assert recovered == payload
    assert parsed.packet_number == header.packet_number


def test_packet_number_length_floor():
    assert packet_number_length(0) == 2
    assert packet_number_length(100, largest_acked=99) == 2
    assert packet_number_length(1 << 20, largest_acked=-1) == 3


def test_cleartext_packet_bytes_reparse():
    header = _initial_header(1, 2)
    payload = b"\x01\x00\x00"
    clear = cleartext_packet_bytes(header, payload)
    parsed, offset = parse_header(clear)
    assert parsed.packet_number == 1
    assert parse_frames(clear[offset:]) is not None
