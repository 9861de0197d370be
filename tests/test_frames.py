import pytest
from hypothesis import example, given, settings, strategies as st

from quicprobe.wire import (
    AckFrame,
    CryptoFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    ParseError,
    PingFrame,
    SerializeError,
    StreamFrame,
    TruncationError,
    decode_varint,
    encode_varint,
    parse_frames,
    serialize_frame,
    serialize_frames,
)
from quicprobe.wire import frames as frames_module

from . import strategies
from .strategies import frame_lists


def coalesce_padding(frames):
    out = []
    for f in frames:
        if isinstance(f, PaddingFrame) and out and isinstance(out[-1], PaddingFrame):
            out[-1] = PaddingFrame(count=out[-1].count + f.count)
        else:
            out.append(f)
    return out


def test_ping_padding_coalesced():
    payload = serialize_frames([PingFrame(), PaddingFrame(count=3)])
    assert parse_frames(payload) == [PingFrame(), PaddingFrame(count=3)]


def test_max_stream_data_round_trip():
    frame = MaxStreamDataFrame(stream_id=0, max_stream_data=160)
    assert parse_frames(serialize_frames([frame])) == [frame]


def test_request_stream_round_trip():
    frame = StreamFrame(stream_id=0, offset=0, data=b"GET /index.html\r\n", fin=True)
    assert parse_frames(serialize_frames([frame])) == [frame]


def test_empty_payload_refused():
    with pytest.raises(SerializeError):
        serialize_frames([])


def test_empty_non_fin_stream_refused_on_serialize():
    with pytest.raises(SerializeError):
        serialize_frames([StreamFrame(stream_id=0, offset=0, data=b"", fin=False)])


def test_empty_non_fin_stream_flagged_on_parse():
    # type 0x0a: LEN bit set, no OFF, no FIN; zero length
    payload = bytes([0x0A]) + encode_varint(0) + encode_varint(0)
    frames = parse_frames(payload)
    assert len(frames) == 1
    assert frames[0].is_empty_non_fin


def test_empty_fin_stream_is_fine():
    frame = StreamFrame(stream_id=0, offset=17, data=b"", fin=True)
    parsed = parse_frames(serialize_frames([frame]))
    assert parsed == [frame]
    assert not parsed[0].is_empty_non_fin


def test_ack_gap_underflow_flagged_not_fatal():
    # gap so large the second range would sit below packet number zero
    payload = (
        encode_varint(0x02)
        + encode_varint(100)  # largest
        + encode_varint(0)  # delay
        + encode_varint(1)  # one extra range
        + encode_varint(0)  # first range: [100, 100]
        + encode_varint((1 << 62) - 1)  # gap
        + encode_varint(0)
    )
    frames = parse_frames(payload)
    assert len(frames) == 1
    ack = frames[0]
    assert isinstance(ack, AckFrame)
    assert ack.range_sanity_error
    assert ack.decoded_ranges() == [(100, 100)]


def test_ack_ranges_strictly_descending():
    ack = AckFrame(largest_acked=100, first_range=10, ranges=[(0, 5), (3, 2)])
    decoded = ack.decoded_ranges()
    assert decoded == [(90, 100), (83, 88), (76, 78)]
    for (lo, hi), (lo2, hi2) in zip(decoded, decoded[1:]):
        assert lo > hi2  # descending, non-overlapping, non-adjacent
        assert lo2 <= hi2


def test_unknown_frame_type_is_error():
    with pytest.raises(ParseError, match="0x1f"):
        parse_frames(bytes([0x1F]))


def test_truncated_frame_has_offset():
    payload = serialize_frames([PingFrame()]) + bytes([0x06, 0x00])  # CRYPTO cut short
    with pytest.raises(ParseError) as exc:
        parse_frames(payload)
    assert exc.value.offset == 1


@given(frame_lists())
def test_round_trip_property(frames):
    payload = serialize_frames(frames)
    assert parse_frames(payload) == coalesce_padding(frames)


@given(
    largest=st.integers(min_value=0, max_value=1 << 40),
    delay=st.integers(min_value=0, max_value=1 << 20),
    first=st.integers(min_value=0, max_value=1 << 41),
    pairs=st.lists(
        st.tuples(st.integers(0, 1 << 41), st.integers(0, 1 << 41)), max_size=5
    ),
)
def test_any_parsed_ack_decodes_descending_or_flags(largest, delay, first, pairs):
    wire = (
        encode_varint(0x02)
        + encode_varint(largest)
        + encode_varint(delay)
        + encode_varint(len(pairs))
        + encode_varint(first)
        + b"".join(encode_varint(g) + encode_varint(l) for g, l in pairs)
    )
    (ack,) = parse_frames(wire)
    decoded = ack.decoded_ranges()
    for (lo, hi), (lo2, hi2) in zip(decoded, decoded[1:]):
        assert lo > hi2 + 1  # strictly descending with a genuine gap
    for lo, hi in decoded:
        assert 0 <= lo <= hi
    if len(decoded) != len(pairs) + 1:
        assert ack.range_sanity_error


@given(st.binary(max_size=1500))
def test_fuzzed_input_terminates_with_frames_or_positioned_error(data):
    try:
        frames = parse_frames(data)
    except ParseError as exc:
        assert exc.offset is None or 0 <= exc.offset <= len(data)
    else:
        assert isinstance(frames, list)


def per_byte_parse(plaintext):
    """Reference for ``parse_frames``: every frame type is decoded as a
    varint, so a PADDING run costs one decode and one frame per byte."""
    out = []
    pos = 0
    while pos < len(plaintext):
        start = pos
        try:
            ftype, used, _ = decode_varint(plaintext, pos)
        except TruncationError:
            raise ParseError("truncated frame type", offset=pos)
        pos += used
        try:
            frame, pos = frames_module._parse_one(plaintext, pos, ftype)
        except TruncationError as exc:
            raise ParseError(f"truncated frame 0x{ftype:02x}: {exc}", offset=start)
        if isinstance(frame, PaddingFrame) and out and isinstance(out[-1], PaddingFrame):
            out[-1].count += frame.count
        else:
            out.append(frame)
    return out


def parse_outcome(parse, payload):
    try:
        return parse(payload)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


NON_MINIMAL_PADDING = b"\x40\x00"


@st.composite
def padded_payloads(draw):
    """Frames of every type mixed with PADDING runs of up to 20,000 bytes
    and non-minimal PADDING types, optionally ending in a truncated frame."""
    pieces = draw(
        st.lists(
            st.one_of(
                strategies.frames().map(serialize_frame),
                st.integers(min_value=1, max_value=20_000).map(lambda n: b"\x00" * n),
                st.just(NON_MINIMAL_PADDING),
            ),
            min_size=1,
            max_size=8,
        )
    )
    payload = b"".join(pieces)
    tail = draw(strategies.frames().map(serialize_frame).filter(lambda b: len(b) > 1))
    cut = draw(st.integers(min_value=0, max_value=len(tail) - 1))
    return payload + tail[:cut]


@settings(deadline=None, max_examples=60)
@given(padded_payloads())
@example(b"\x00" * 1100)
@example(b"\x01" + b"\x00" * 500)
@example(b"\x00" * 7 + b"\x01" + b"\x00" * 3)
@example(NON_MINIMAL_PADDING + b"\x00" * 3 + NON_MINIMAL_PADDING)
@example(b"\x00" * 300 + b"\x06\x00")  # CRYPTO cut short after a run
@example(b"\x00" * 300 + b"\x40")  # frame type cut short after a run
def test_padding_runs_parse_as_the_per_byte_reference(payload):
    assert parse_outcome(parse_frames, payload) == parse_outcome(per_byte_parse, payload)


def test_non_minimal_padding_type_is_one_frame_of_two_bytes():
    assert parse_frames(NON_MINIMAL_PADDING) == [PaddingFrame(count=1)]
    assert parse_frames(b"\x00" + NON_MINIMAL_PADDING + b"\x00") == [PaddingFrame(count=3)]


def test_padding_run_is_parsed_without_a_varint_per_byte(monkeypatch):
    calls = []

    def counting(buf, offset=0):
        calls.append(offset)
        return decode_varint(buf, offset)

    monkeypatch.setattr(frames_module, "decode_varint", counting)
    payload = serialize_frames([CryptoFrame(offset=0, data=b"x" * 60), PaddingFrame(count=1100)])
    assert parse_frames(payload) == [CryptoFrame(offset=0, data=b"x" * 60), PaddingFrame(count=1100)]
    assert len(calls) <= 4
