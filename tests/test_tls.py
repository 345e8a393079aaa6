"""Unit and property tests for the TLS simulation and NSS key logs."""

import pytest
from hypothesis import given, strategies as st

from repro.capture.decrypt import decrypt_mobile_artifact
from repro.net.pcap import PcapFile, PcapPacket
from repro.net.tcp import FlowId, segment_request
from repro.net.tls import (
    KeyLog,
    TlsError,
    TlsSession,
    decrypt_stream,
    encrypt_stream,
    scan_records,
    unwrap_hello,
    wrap_with_hello,
)

SESSION = TlsSession.derive(b"test-session")
OTHER = TlsSession.derive(b"other-session")
FLOW = FlowId(client_ip="10.0.0.1", client_port=40000, server_ip="34.0.0.1", server_port=443)


def decode_flow(payload: bytes, keylog: KeyLog):
    """Decode one client→server flow carrying ``payload``."""
    pcap = PcapFile()
    for frame in segment_request(payload, FLOW, timestamp=1.0):
        pcap.append(PcapPacket(timestamp=frame.timestamp, data=frame.to_bytes()))
    return decrypt_mobile_artifact(pcap, keylog)


class TestSession:
    def test_derive_deterministic(self):
        assert TlsSession.derive(b"x") == TlsSession.derive(b"x")
        assert TlsSession.derive(b"x") != TlsSession.derive(b"y")

    def test_bad_key_sizes_rejected(self):
        with pytest.raises(TlsError):
            TlsSession(client_random=b"short", secret=b"s" * 32)


class TestRecords:
    def test_round_trip(self):
        plaintext = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
        assert decrypt_stream(encrypt_stream(plaintext, SESSION), SESSION) == plaintext

    def test_wrong_key_gives_garbage(self):
        plaintext = b"secret payload bytes"
        garbled = decrypt_stream(encrypt_stream(plaintext, SESSION), OTHER)
        assert garbled != plaintext

    def test_large_payload_multiple_records(self):
        plaintext = b"A" * 40_000  # > MAX_RECORD_LEN
        stream = encrypt_stream(plaintext, SESSION)
        records, _ = scan_records(stream)
        assert len(records) == 3
        assert decrypt_stream(stream, SESSION) == plaintext

    def test_truncated_record_raises(self):
        stream = encrypt_stream(b"hello", SESSION)
        with pytest.raises(TlsError):
            decrypt_stream(stream[:-2], SESSION)
        # Mid-feed, a partial trailing record just waits for more bytes,
        # while a record header with the wrong version is corruption.
        assert scan_records(stream[:-2]) == ([], 0)
        with pytest.raises(TlsError):
            scan_records(b"\x17\x03\x01" + stream[3:])

    def test_empty_stream(self):
        assert decrypt_stream(b"", SESSION) == b""

    @given(st.binary(min_size=0, max_size=5000))
    def test_round_trip_property(self, plaintext):
        assert decrypt_stream(encrypt_stream(plaintext, SESSION), SESSION) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"hello world, this is sensitive"
        stream = encrypt_stream(plaintext, SESSION)
        assert plaintext not in stream


class TestHello:
    def test_wrap_unwrap(self):
        stream = encrypt_stream(b"payload", SESSION)
        wrapped = wrap_with_hello(stream, SESSION, sni="api.example.com")
        hello, rest = unwrap_hello(wrapped)
        assert hello is not None
        assert hello.sni == "api.example.com"
        assert hello.client_random == SESSION.client_random
        assert rest == stream

    def test_empty_sni(self):
        wrapped = wrap_with_hello(b"", SESSION, sni="")
        hello, _ = unwrap_hello(wrapped)
        assert hello.sni == ""

    def test_unwrap_non_tls_returns_none(self):
        hello, rest = unwrap_hello(b"GET / HTTP/1.1\r\n")
        assert hello is None
        assert rest == b"GET / HTTP/1.1\r\n"

    def test_unwrap_rejects_truncated_and_non_idna_sni(self):
        prefix = b"\x16\x03" + SESSION.client_random + b"\x00\x02"
        with pytest.raises(TlsError, match="truncated"):
            unwrap_hello(prefix + b"a")
        with pytest.raises(TlsError, match="IDNA"):
            unwrap_hello(prefix + b"\xff\xfe")

    def test_looks_like_tls(self):
        # The decoder routes a flow by its first bytes: hello magic or
        # bare application-data records are TLS, anything else is HTTP.
        keylog = KeyLog()
        keylog.record(SESSION)
        wrapped = wrap_with_hello(encrypt_stream(b"x", SESSION), SESSION, "h")
        assert decode_flow(wrapped, KeyLog()).undecryptable_flows == 1
        assert decode_flow(encrypt_stream(b"x", SESSION), keylog).undecryptable_flows == 1
        plain = decode_flow(b"POST /api HTTP/1.1\r\n", KeyLog())
        assert plain.undecryptable_flows == 0


class TestKeyLog:
    def test_record_and_lookup(self):
        log = KeyLog()
        log.record(SESSION)
        found = log.lookup(SESSION.client_random)
        assert found == SESSION
        assert log.lookup(OTHER.client_random) is None

    def test_nss_format_round_trip(self):
        log = KeyLog()
        log.record(SESSION)
        log.record(OTHER)
        text = log.to_text()
        assert text.count("CLIENT_TRAFFIC_SECRET_0") == 2
        parsed = KeyLog.from_text(text)
        assert parsed.lookup(SESSION.client_random) == SESSION

    def test_comments_and_other_labels_ignored(self):
        text = (
            "# comment line\n"
            "SERVER_HANDSHAKE_TRAFFIC_SECRET aa bb\n"
            f"CLIENT_TRAFFIC_SECRET_0 {SESSION.client_random.hex()} {SESSION.secret.hex()}\n"
        )
        log = KeyLog.from_text(text)
        assert log.lookup(SESSION.client_random) == SESSION

    def test_malformed_line_raises(self):
        with pytest.raises(TlsError):
            KeyLog.from_text("CLIENT_TRAFFIC_SECRET_0 only-two-fields\n")

    def test_file_round_trip(self, tmp_path):
        log = KeyLog()
        log.record(SESSION)
        path = tmp_path / "keys.log"
        log.write(path)
        assert KeyLog.read(path).lookup(SESSION.client_random) == SESSION
