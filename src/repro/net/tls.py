"""TLS record framing, NSS key-log files, and keylog-based decryption.

The paper decrypts mobile traffic by installing PCAPdroid's certificate,
saving a TLS key log, and embedding the keys into the PCAP with
``editcap`` before Wireshark decryption (§3.1.1, §3.2).  We reproduce
the *workflow* faithfully with a simulated cipher:

* application data is wrapped in TLS 1.3-shaped records
  (``type=23, version=0x0303, length``);
* each session has a 32-byte ``CLIENT_TRAFFIC_SECRET`` recorded in NSS
  key-log format (the exact format PCAPdroid emits);
* the record payload is encrypted with a keystream derived from the
  secret (SHA-256 counter mode) — cryptographically toy, but decryption
  *requires* the right secret, so the "no keylog ⇒ opaque bytes" code
  path is real, including certificate-pinned sessions whose secrets
  never reach the log (Frida-bypass failures).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY

_RECORDS = REGISTRY.counter("repro_tls_records_total")
_PLAINTEXT_BYTES = REGISTRY.counter("repro_tls_plaintext_bytes_total")

RECORD_TYPE_APPDATA = 23
RECORD_VERSION = 0x0303
MAX_RECORD_LEN = 16384

_RECORD_HEADER = struct.Struct("!BHH")
_U64 = struct.Struct("!Q")
_U16 = struct.Struct("!H")


class TlsError(ValueError):
    """Raised on malformed records or missing key material."""


# Per-record keystream memo.  The derivation is deterministic in
# (secret, client_random), and the audit pipeline derives each record's
# keystream twice in one process — once encrypting at capture time,
# once decrypting the archived artifact — so the second derivation is a
# lookup.  Bounded: cleared wholesale when full (records are
# encrypt-then-decrypted trace by trace, so locality is tight).
_KEYSTREAM_CACHE: dict[tuple[bytes, bytes], bytes] = {}
_KEYSTREAM_CACHE_MAX = 2048


def _keystream(secret: bytes, client_random: bytes, length: int) -> bytes:
    """Deterministic keystream: SHA-256(secret || random || counter).

    Blocks accumulate into one preallocated ``bytearray`` (O(n), no
    per-block length rescans), but the derivation itself is frozen —
    it defines the bytes of every archived capture.
    """
    key = (secret, client_random)
    cached = _KEYSTREAM_CACHE.get(key)
    if cached is not None and len(cached) >= length:
        return cached[:length]
    out = bytearray(cached if cached is not None else b"")
    base = hashlib.sha256(secret + client_random)
    counter = len(out) // 32
    while len(out) < length:
        # digest(prefix || counter) via one cloned running hash: the
        # shared 64-byte prefix is compressed once per call, not once
        # per 32-byte block.
        block = base.copy()
        block.update(_U64.pack(counter))
        out += block.digest()
        counter += 1
    if len(_KEYSTREAM_CACHE) >= _KEYSTREAM_CACHE_MAX:
        _KEYSTREAM_CACHE.clear()
    full = bytes(out)
    _KEYSTREAM_CACHE[key] = full
    return full[:length]


def _xor(data, keystream: bytes) -> bytes:
    """XOR two equal-length byte strings via one big-int operation.

    ~100x faster than a per-byte Python loop and accepts any
    bytes-like ``data`` (the decode path hands in memoryviews).
    """
    length = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(length, "big")


@dataclass(frozen=True)
class TlsSession:
    """Key material for one TLS connection."""

    client_random: bytes  # 32 bytes, identifies the session in the keylog
    secret: bytes  # 32 bytes traffic secret

    def __post_init__(self) -> None:
        if len(self.client_random) != 32 or len(self.secret) != 32:
            raise TlsError("client_random and secret must be 32 bytes")

    @classmethod
    def derive(cls, seed: bytes) -> "TlsSession":
        """Deterministically derive a session from generator state."""
        client_random = hashlib.sha256(b"client-random|" + seed).digest()
        secret = hashlib.sha256(b"traffic-secret|" + seed).digest()
        return cls(client_random=client_random, secret=secret)


def encrypt_stream(plaintext: bytes, session: TlsSession) -> bytes:
    """Wrap plaintext into encrypted TLS application-data records."""
    out = bytearray()
    offset = 0
    for start in range(0, len(plaintext), MAX_RECORD_LEN):
        chunk = plaintext[start : start + MAX_RECORD_LEN]
        keystream = _keystream(
            session.secret, session.client_random + _U64.pack(offset), len(chunk)
        )
        ciphertext = _xor(chunk, keystream)
        out += _RECORD_HEADER.pack(RECORD_TYPE_APPDATA, RECORD_VERSION, len(ciphertext))
        out += ciphertext
        offset += 1
    return bytes(out)


def scan_records(stream) -> tuple[list[tuple[int, "bytes | memoryview"]], int]:
    """Complete TLS records at the head of ``stream``, plus bytes consumed.

    Accepts any bytes-like object; each ``body`` is a slice of it.  A
    truncated trailing record is not an error: the scan stops cleanly
    before it and reports how far it got, so a streaming caller can
    drop the consumed prefix and retry once more bytes arrive.  A
    malformed record header (wrong version) raises :class:`TlsError` —
    that is corruption, not an incomplete feed.
    """
    records: list[tuple[int, "bytes | memoryview"]] = []
    position = 0
    end = len(stream)
    while position + 5 <= end:
        record_type, version, length = _RECORD_HEADER.unpack(
            stream[position : position + 5]
        )
        if version != RECORD_VERSION:
            raise TlsError(f"unexpected TLS version 0x{version:04x}")
        if position + 5 + length > end:
            break  # partial trailing record — wait for more bytes
        records.append((record_type, stream[position + 5 : position + 5 + length]))
        position += 5 + length
    return records, position


def decrypt_record(body, session: TlsSession, offset: int) -> bytes:
    """Decrypt one application-data record at its stream ``offset``.

    ``offset`` is the record's index among *all* records of the flow,
    the keystream counter :func:`encrypt_stream` used for it.
    """
    keystream = _keystream(
        session.secret, session.client_random + _U64.pack(offset), len(body)
    )
    _RECORDS.inc()
    _PLAINTEXT_BYTES.inc(len(body))
    return _xor(body, keystream)


def decrypt_stream(stream, session: TlsSession) -> bytes:
    """Recover plaintext from a whole record stream.

    Raises :class:`TlsError` on a malformed or truncated record — on a
    finished flow, a partial trailing record is corruption.
    """
    records, consumed = scan_records(stream)
    if consumed != len(stream):
        raise TlsError("truncated TLS record")
    return b"".join(
        decrypt_record(body, session, offset)
        for offset, (record_type, body) in enumerate(records)
        if record_type == RECORD_TYPE_APPDATA
    )


_KEYLOG_LABEL = "CLIENT_TRAFFIC_SECRET_0"


@dataclass
class KeyLog:
    """An NSS key-log file: ``LABEL <client_random_hex> <secret_hex>``."""

    secrets: dict[bytes, bytes] = field(default_factory=dict)  # random -> secret

    def record(self, session: TlsSession) -> None:
        self.secrets[session.client_random] = session.secret

    def lookup(self, client_random: bytes) -> TlsSession | None:
        secret = self.secrets.get(client_random)
        if secret is None:
            return None
        return TlsSession(client_random=client_random, secret=secret)

    def to_text(self) -> str:
        return "".join(
            f"{_KEYLOG_LABEL} {random.hex()} {secret.hex()}\n"
            for random, secret in self.secrets.items()
        )

    @classmethod
    def from_text(cls, text: str) -> "KeyLog":
        log = cls()
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise TlsError(f"bad keylog line {line_number}: {line!r}")
            label, random_hex, secret_hex = parts
            if label != _KEYLOG_LABEL:
                continue  # other labels (handshake secrets) are ignored
            log.secrets[bytes.fromhex(random_hex)] = bytes.fromhex(secret_hex)
        return log

    def write(self, path: str | Path) -> None:
        atomic_write_text(Path(path), self.to_text(), encoding="ascii")

    @classmethod
    def read(cls, path: str | Path) -> "KeyLog":
        return cls.from_text(Path(path).read_text(encoding="ascii"))


@dataclass(frozen=True)
class ClientHello:
    """The pseudo-ClientHello prefixed to every encrypted flow.

    Carries exactly what a passive observer of real TLS sees in the
    clear: the client random (for keylog lookup) and the SNI hostname
    (so destinations of *undecryptable* flows are still attributable —
    the paper includes encrypted traffic in its domain counts, §3.1.1).
    """

    client_random: bytes
    sni: str


def wrap_with_hello(stream: bytes, session: TlsSession, sni: str) -> bytes:
    """Prefix the pseudo-ClientHello (magic + random + SNI)."""
    sni_bytes = sni.encode("idna") if sni else b""
    if len(sni_bytes) > 0xFFFF:
        raise TlsError("SNI too long")
    return (
        b"\x16\x03"
        + session.client_random
        + _U16.pack(len(sni_bytes))
        + sni_bytes
        + stream
    )


def unwrap_hello(stream) -> tuple[ClientHello | None, "bytes | memoryview"]:
    """Split off the pseudo-ClientHello; returns (hello, records).

    Accepts any bytes-like stream; the returned record stream is a
    slice of it.  A stream too short for the fixed part, or without
    the handshake magic, has no hello.  A truncated or non-IDNA SNI
    raises :class:`TlsError`.
    """
    if len(stream) < 36 or bytes(stream[:2]) != b"\x16\x03":
        return None, stream
    client_random = bytes(stream[2:34])
    (sni_length,) = _U16.unpack(stream[34:36])
    if len(stream) < 36 + sni_length:
        raise TlsError("truncated ClientHello SNI")
    try:
        sni = bytes(stream[36 : 36 + sni_length]).decode("idna")
    except UnicodeError as exc:
        raise TlsError("ClientHello SNI is not IDNA") from exc
    return ClientHello(client_random=client_random, sni=sni), stream[36 + sni_length :]
