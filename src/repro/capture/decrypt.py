"""Keylog-based PCAP decryption — the ``editcap`` + Wireshark stand-in.

The study embedded TLS keys into the PCAP with ``editcap
--inject-secrets`` and let Wireshark produce decrypted traffic (§3.2).
This module does the equivalent: reassemble TCP flows from the PCAP,
look each flow's client random up in the key log, decrypt what it can,
and parse the plaintext into HTTP requests.  Flows whose secret is
missing (certificate-pinned) surface as *opaque contacts*: destination
(from the SNI) and frame count only — the paper keeps encrypted
traffic in its packet/domain accounting (§3.1.1).

There is one decoder: :func:`decrypt_mobile_artifact` feeds the
capture packet by packet to
:class:`~repro.stream.incremental.IncrementalTraceDecoder` and
finishes it at EOF, under a policy that never evicts a flow early.
Raw bytes (or an mmap-backed on-disk file, via a
:class:`~repro.net.pcap.PcapReader`) are walked record by record, and
each frame's TCP payload is a view into the capture buffer until
reassembly copies it.  An eager :class:`~repro.net.pcap.PcapFile` is
walked over its in-memory packets instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.net.http import HttpRequest
from repro.net.pcap import PcapFile, PcapReader
from repro.net.tls import KeyLog

# Entry points perfbench/tracing.py still resolves in this module; the
# decode itself runs through repro.stream.incremental.
from repro.net.http import parse_request_stream  # noqa: F401
from repro.net.packet import parse_tcp_segment  # noqa: F401
from repro.net.tls import decrypt_stream, unwrap_hello  # noqa: F401


@dataclass(frozen=True)
class OpaqueContact:
    """A flow we could not decrypt: destination knowledge only."""

    host: str
    first_timestamp: float
    frame_count: int


@dataclass
class DecryptedRequest:
    """One recovered outgoing request with its flow identity."""

    request: HttpRequest
    flow: str  # canonical flow id string


@dataclass
class MobileDecryption:
    """Everything recoverable from one mobile artifact."""

    requests: list[DecryptedRequest] = field(default_factory=list)
    opaque: list[OpaqueContact] = field(default_factory=list)
    packet_count: int = 0
    flow_count: int = 0
    undecryptable_flows: int = 0


def decrypt_mobile_artifact(
    pcap: "PcapFile | bytes | bytearray | memoryview | str | Path",
    keylog: KeyLog | str,
) -> MobileDecryption:
    """Recover plaintext requests from a PCAP + key-log pair.

    ``pcap`` may be raw capture bytes (decoded zero-copy in place), a
    filesystem path (memory-mapped, never fully read into Python
    bytes), or an eager :class:`PcapFile`.
    """
    # The stream package builds on the batch pipeline, which imports
    # this module, so the decoder is imported when first needed.
    from repro.stream.incremental import NO_EVICTION, IncrementalTraceDecoder

    if isinstance(keylog, str):
        keylog = KeyLog.from_text(keylog)
    decoder = IncrementalTraceDecoder(keylog, NO_EVICTION)
    if isinstance(pcap, (str, Path)):
        with PcapReader.open(pcap) as reader:
            return _feed_to_eof(decoder, reader.iter_packets())
    if isinstance(pcap, PcapFile):
        return _feed_to_eof(decoder, pcap.packets)
    return _feed_to_eof(decoder, PcapReader(pcap).iter_packets())


def _feed_to_eof(decoder, packets) -> MobileDecryption:
    feed = decoder.feed
    for packet in packets:
        feed(packet.timestamp, packet.data)
    return decoder.finish()
