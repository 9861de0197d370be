import pytest

from quicprobe.protection import EncryptionLevel, NullHandshakeProvider
from quicprobe.protection.provider import ProviderError
from quicprobe.wire import TransportParameters, encode_transport_parameters


def _tp(**kwargs):
    tp = TransportParameters()
    for name, value in kwargs.items():
        setattr(tp, name, value)
    return encode_transport_parameters(tp)


def run_handshake(seed=7, client_kwargs=None, server_kwargs=None):
    client = NullHandshakeProvider(
        seed, is_client=True, local_tp=_tp(initial_max_data=1024), **(client_kwargs or {})
    )
    server = NullHandshakeProvider(
        seed, is_client=False, local_tp=_tp(initial_max_data=65536), **(server_kwargs or {})
    )
    to_server = client.start()
    to_client = []
    for level, data in to_server:
        to_client += server.consume(level, data)
    back = []
    for level, data in to_client:
        back += client.consume(level, data)
    tickets = []
    for level, data in back:
        tickets += server.consume(level, data)
    for level, data in tickets:
        client.consume(level, data)
    return client, server


def _levels(secrets):
    return sorted({(km.level, km.direction) for km in secrets})


def test_full_transcript_completes_both_sides():
    client, server = run_handshake()
    assert client.handshake_complete
    assert server.handshake_complete


def test_identical_seed_identical_keys():
    client, server = run_handshake()
    client_secrets = {(km.level, km.direction): km for km in client.exported_secrets()}
    server_secrets = {(km.level, km.direction): km for km in server.exported_secrets()}
    shared = set(client_secrets) & set(server_secrets)
    assert (EncryptionLevel.HANDSHAKE, "client") in shared
    assert (EncryptionLevel.ONE_RTT, "server") in shared
    for key in shared:
        assert client_secrets[key] == server_secrets[key]


def test_providers_with_one_seed_export_the_same_key_objects():
    first_client, first_server = run_handshake()
    second_client, _ = run_handshake()
    first = {(km.level, km.direction): km for km in first_client.exported_secrets()}
    second = {(km.level, km.direction): km for km in second_client.exported_secrets()}
    server = {(km.level, km.direction): km for km in first_server.exported_secrets()}
    assert first.keys() == second.keys()
    assert (EncryptionLevel.ONE_RTT, "server") in first.keys() & server.keys()
    for key in first:
        assert first[key] is second[key]
    for key in first.keys() & server.keys():
        assert first[key] is server[key]


def test_secrets_appear_at_most_once():
    client, _ = run_handshake()
    first = _levels(client.exported_secrets())
    assert len(first) == len(set(first))
    assert client.exported_secrets() == []  # drained


def test_peer_transport_parameters_cross():
    client, server = run_handshake()
    assert client.peer_transport_parameters().initial_max_data == 65536
    assert server.peer_transport_parameters().initial_max_data == 1024


def test_ticket_issued_and_resumption_accepted():
    client, server = run_handshake()
    ticket = client.resumption_ticket()
    assert ticket is not None

    client2, server2 = run_handshake(client_kwargs={"ticket": ticket})
    assert client2.early_data_accepted
    assert server2.early_data_accepted
    zero_rtt_client = [
        km
        for km in client2.exported_secrets()
        if km.level is EncryptionLevel.ZERO_RTT and km.direction == "client"
    ]
    zero_rtt_server = [
        km
        for km in server2.exported_secrets()
        if km.level is EncryptionLevel.ZERO_RTT and km.direction == "client"
    ]
    assert zero_rtt_client and zero_rtt_server
    assert zero_rtt_client[0] == zero_rtt_server[0]


def test_no_ticket_when_disabled():
    client, server = run_handshake(server_kwargs={"issue_tickets": False})
    assert client.resumption_ticket() is None
    assert client.handshake_complete


def test_early_data_rejected_when_disabled():
    client, server = run_handshake()
    ticket = client.resumption_ticket()
    client2, _ = run_handshake(
        client_kwargs={"ticket": ticket}, server_kwargs={"accept_early_data": False}
    )
    assert not client2.early_data_accepted


def test_seed_mismatch_is_transcript_violation():
    client = NullHandshakeProvider(1, is_client=True)
    server = NullHandshakeProvider(2, is_client=False)
    (level, ch), = client.start()
    with pytest.raises(ProviderError):
        server.consume(level, ch)


def test_consume_handles_partial_messages():
    client = NullHandshakeProvider(7, is_client=True)
    server = NullHandshakeProvider(7, is_client=False)
    (level, ch), = client.start()
    out = server.consume(level, ch[:3])
    assert out == []
    out = server.consume(level, ch[3:])
    assert [lvl for lvl, _ in out] == [EncryptionLevel.INITIAL, EncryptionLevel.HANDSHAKE]
