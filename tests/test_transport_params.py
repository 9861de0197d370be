import pytest
from hypothesis import given, strategies as st

from quicprobe.wire import (
    ParseError,
    TransportParameters,
    decode_transport_parameters,
    encode_transport_parameters,
    encode_varint,
)
from quicprobe.wire.transport_params import (
    TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL,
    TP_INITIAL_MAX_STREAMS_BIDI,
    TP_MAX_IDLE_TIMEOUT,
    TP_ORIGINAL_DCID,
)


def test_stream_data_limit_round_trips():
    tp = TransportParameters()
    tp.set_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL, 80)
    decoded = decode_transport_parameters(encode_transport_parameters(tp))
    assert decoded.get_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL) == 80
    assert decoded == tp


def test_empty_round_trips():
    assert encode_transport_parameters(TransportParameters()) == b""
    assert decode_transport_parameters(b"") == TransportParameters()


def test_unknown_id_preserved_byte_exact():
    tp = TransportParameters(entries={0x7F39: b"\xde\xad"})
    encoded = encode_transport_parameters(tp)
    decoded = decode_transport_parameters(encoded)
    assert decoded.entries[0x7F39] == b"\xde\xad"
    assert encode_transport_parameters(decoded) == encoded


def test_duplicate_id_is_decode_error():
    entry = encode_varint(0x04) + encode_varint(1) + b"\x20"
    with pytest.raises(ParseError, match="duplicate"):
        decode_transport_parameters(entry + entry)


def test_truncated_value():
    buf = encode_varint(0x04) + encode_varint(5) + b"\x00"
    with pytest.raises(ParseError):
        decode_transport_parameters(buf)


def test_named_accessors():
    tp = TransportParameters()
    tp.initial_max_data = 1024
    tp.set_int(TP_INITIAL_MAX_STREAMS_BIDI, 16)
    tp.set_int(TP_MAX_IDLE_TIMEOUT, 30_000)
    tp.entries[TP_ORIGINAL_DCID] = b"\x01\x02\x03"
    decoded = decode_transport_parameters(encode_transport_parameters(tp))
    assert decoded.initial_max_data == 1024
    assert decoded.get_int(TP_INITIAL_MAX_STREAMS_BIDI) == 16
    assert decoded.get_int(TP_MAX_IDLE_TIMEOUT) == 30_000
    assert decoded.entries[TP_ORIGINAL_DCID] == b"\x01\x02\x03"
    assert decoded.get_int(TP_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL) is None


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=1 << 30),
        st.binary(max_size=24),
        max_size=8,
    )
)
def test_round_trip_property(entries):
    tp = TransportParameters(entries=entries)
    assert decode_transport_parameters(encode_transport_parameters(tp)) == tp
