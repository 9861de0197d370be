import random

import pytest
from hypothesis import given, settings, strategies as st

from quicprobe.dissector import (
    DescriptionError,
    coverage_ok,
    dissect,
    load_description,
    quic_v1_description,
    render_text,
)
from quicprobe.protection import cleartext_packet_bytes
from quicprobe.wire import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    NewConnectionIdFrame,
    PacketHeader,
    PacketType,
    PaddingFrame,
    PingFrame,
    StreamDataBlockedFrame,
    StreamFrame,
    serialize_frames,
)

from .strategies import frame_lists


def short_packet(frames, pn=5):
    header = PacketHeader(
        packet_type=PacketType.ONE_RTT, dcid=b"\x11" * 8, packet_number=pn, pn_length=2
    )
    return cleartext_packet_bytes(header, serialize_frames(frames))


class TestLoad:
    def test_shipped_v1_description_loads(self):
        desc = quic_v1_description()
        assert desc.version == 1
        assert desc.top == "packet"

    def test_forward_sibling_reference_rejected(self):
        text = """
version: 2
top: t
structures:
  t:
    - {name: data, kind: bytes, length: {field: later}}
    - {name: later, kind: varint}
"""
        with pytest.raises(DescriptionError, match="later"):
            load_description(text)

    def test_dangling_reference_rejected(self):
        text = """
version: 2
top: t
structures:
  t:
    - {name: data, kind: bytes, length: {field: ghost}}
"""
        with pytest.raises(DescriptionError, match="ghost"):
            load_description(text)

    def test_unknown_kind_rejected(self):
        text = """
version: 2
top: t
structures:
  t:
    - {name: x, kind: float}
"""
        with pytest.raises(DescriptionError, match="float"):
            load_description(text)

    def test_unknown_structure_rejected(self):
        text = """
version: 2
top: t
structures:
  t:
    - {name: x, kind: repeat, structure: ghost}
"""
        with pytest.raises(DescriptionError, match="ghost"):
            load_description(text)

    def test_unreachable_structure_rejected(self):
        text = """
version: 2
top: t
structures:
  t:
    - {name: x, kind: varint}
  island:
    - {name: y, kind: varint}
"""
        with pytest.raises(DescriptionError, match="island"):
            load_description(text)

    def test_two_versions_loadable_side_by_side(self):
        v1 = quic_v1_description()
        v2 = load_description(
            """
version: 0x6b3343cf
name: other-version
top: t
structures:
  t:
    - {name: x, kind: varint}
"""
        )
        assert v1.version != v2.version
        assert dissect(b"\x05", v2).children[0].value == 5


class TestDissect:
    def test_ping_packet(self):
        tree = dissect(short_packet([PingFrame()]), quic_v1_description())
        assert tree.find("ping") is not None
        assert coverage_ok(tree, len(short_packet([PingFrame()])))

    def test_request_packet_stream_node(self):
        # the canonical 17-byte GET on stream 0
        packet = short_packet([StreamFrame(stream_id=0, offset=0, data=b"GET /index.html\r\n", fin=True)])
        tree = dissect(packet, quic_v1_description())
        body = tree.find("stream_len_fin")
        assert body is not None
        fields = {c.name: c.value for c in body.children}
        assert fields["stream_id"] == 0
        assert fields["length"] == 17
        assert bytes.fromhex(fields["data"]) == b"GET /index.html\r\n"

    def test_version_negotiation_packet(self):
        from quicprobe.wire import serialize_header

        header = PacketHeader(
            packet_type=PacketType.VERSION_NEGOTIATION,
            dcid=b"\x01\x02",
            scid=b"\x03\x04",
            supported_versions=[1, 0x6B3343CF],
        )
        raw = serialize_header(header)
        tree = dissect(raw, quic_v1_description())
        versions = tree.find("supported_versions")
        values = [item.children[0].value for item in versions.children]
        assert values == [1, 0x6B3343CF]
        assert coverage_ok(tree, len(raw))

    def test_truncated_ack_yields_error_leaf_at_every_cut(self):
        ack = AckFrame(largest_acked=1000, ack_delay=3, first_range=10, ranges=[(5, 2), (1, 1)])
        packet = short_packet([ack])
        desc = quic_v1_description()
        full_tree = dissect(packet, desc)
        assert full_tree.find("ack") is not None
        header_len = 1 + 8 + 2
        for cut in range(header_len + 1, len(packet)):
            tree = dissect(packet[:cut], desc)
            assert coverage_ok(tree, cut), f"coverage broken at cut {cut}"
            has_error = any(leaf.error for leaf in tree.leaves())
            assert has_error, f"no error leaf at cut {cut}"

    def test_unknown_frame_type_becomes_error_leaf(self):
        packet = short_packet([PingFrame()]) + b"\x1f\x00\x00"
        tree = dissect(packet, quic_v1_description())
        assert coverage_ok(tree, len(packet))
        assert any(leaf.error for leaf in tree.leaves())


def expected_dissection(frame):
    """(structure name, field dict) the dissector must produce for a frame."""
    if isinstance(frame, PaddingFrame):
        return [("padding", {})] * frame.count
    if isinstance(frame, PingFrame):
        return [("ping", {})]
    if isinstance(frame, HandshakeDoneFrame):
        return [("handshake_done", {})]
    if isinstance(frame, AckFrame):
        fields = {
            "largest_acked": frame.largest_acked,
            "ack_delay": frame.ack_delay,
            "range_count": len(frame.ranges),
            "first_range": frame.first_range,
            "_ranges": [(g, l) for g, l in frame.ranges],
        }
        if frame.ecn_counts:
            fields.update(zip(("ect0", "ect1", "ecn_ce"), frame.ecn_counts))
            return [("ack_ecn", fields)]
        return [("ack", fields)]
    if isinstance(frame, CryptoFrame):
        return [
            ("crypto", {"offset": frame.offset, "length": len(frame.data), "data": frame.data.hex()})
        ]
    if isinstance(frame, StreamFrame):
        name = "stream_off_len" if frame.offset else "stream_len"
        if frame.fin:
            name += "_fin"
        fields = {"stream_id": frame.stream_id, "length": len(frame.data), "data": frame.data.hex()}
        if frame.offset:
            fields["offset"] = frame.offset
        return [(name, fields)]
    if isinstance(frame, MaxDataFrame):
        return [("max_data", {"max_data_value": frame.max_data})]
    if isinstance(frame, MaxStreamDataFrame):
        return [
            (
                "max_stream_data",
                {"stream_id": frame.stream_id, "max_stream_data_value": frame.max_stream_data},
            )
        ]
    if isinstance(frame, StreamDataBlockedFrame):
        return [("stream_data_blocked", {"stream_id": frame.stream_id, "limit": frame.limit})]
    if isinstance(frame, NewConnectionIdFrame):
        return [
            (
                "new_connection_id",
                {
                    "sequence": frame.sequence,
                    "retire_prior_to": frame.retire_prior_to,
                    "cid_length": len(frame.connection_id),
                    "connection_id": frame.connection_id.hex(),
                    "reset_token": frame.reset_token.hex(),
                },
            )
        ]
    if isinstance(frame, ConnectionCloseFrame):
        reason = frame.reason.encode("utf-8")
        fields = {
            "error_code": frame.error_code,
            "reason_length": len(reason),
            "reason": reason.hex(),
        }
        if frame.frame_type is None:
            return [("connection_close_app", fields)]
        fields["trigger_frame_type"] = frame.frame_type
        return [("connection_close", fields)]
    raise AssertionError(f"unmapped frame {frame!r}")


def dissected_frames(tree):
    """(structure name, field dict) per frame node, in payload order."""
    payload = tree.find("payload")
    out = []
    for frame_node in payload.children:
        assert frame_node.name == "frame"
        body = frame_node.children[1]
        fields = {}
        for child in body.children:
            if child.name == "ranges":
                fields["_ranges"] = [
                    tuple(leaf.value for leaf in item.children) for item in child.children
                ]
            elif not child.children:
                fields[child.name] = child.value
        out.append((body.name, fields))
    return out


def assert_codec_agreement(frames):
    packet = short_packet(frames)
    tree = dissect(packet, quic_v1_description())
    assert coverage_ok(tree, len(packet)), "coverage failed"
    assert not any(leaf.error for leaf in tree.leaves()), render_text(tree)
    expected = [item for frame in frames for item in expected_dissection(frame)]
    assert dissected_frames(tree) == expected


@given(frame_lists())
@settings(max_examples=150)
def test_codec_agreement_property(frames):
    assert_codec_agreement(frames)


def test_codec_agreement_bulk_deterministic():
    from .frame_corpus import random_frame_list

    rng = random.Random(20260808)
    for _ in range(500):
        assert_codec_agreement(random_frame_list(rng))


@given(st.binary(max_size=1500))
@settings(max_examples=300)
def test_dissection_total_on_fuzz(data):
    tree = dissect(data, quic_v1_description())
    assert coverage_ok(tree, len(data))


class TestRender:
    def test_any_tree_renders(self):
        tree = dissect(short_packet([PingFrame()]), quic_v1_description())
        assert "ping" in render_text(tree)

    def test_empty_packet_renders_header_only(self):
        tree = dissect(b"", quic_v1_description())
        assert render_text(tree)

    def test_fixed_packet_snapshot(self):
        packet = short_packet([MaxStreamDataFrame(stream_id=0, max_stream_data=160)], pn=1)
        tree = dissect(packet, quic_v1_description())
        assert render_text(tree) == (
            "packet [0:15]\n"
            "  first_byte [0:1] = 65 (0x41)\n"
            "  short_header [1:15]\n"
            "    dcid [1:9] = 1111111111111111\n"
            "    packet_number [9:11] = 0001\n"
            "    payload [11:15]\n"
            "      frame [11:15]\n"
            "        frame_type [11:12] = 17 (0x11)\n"
            "        max_stream_data [12:15]\n"
            "          stream_id [12:13] = 0 (0x0)\n"
            "          max_stream_data_value [13:15] = 160 (0xa0)"
        )
