"""Substrate performance micro-benchmarks.

Throughput of the hot paths the pipeline runs at full scale: PCAP
round-trips, TCP reassembly, TLS decryption, eSLD extraction, and
classification.
"""

import random

from repro.datatypes.gpt4 import Gpt4Classifier
from repro.net.pcap import PcapFile, PcapPacket
from repro.net.psl import default_psl
from repro.net.tcp import FlowId, TcpReassembler, segment_request
from repro.net.tls import TlsSession, decrypt_stream, encrypt_stream
from repro.services.payloads import PayloadFactory

FLOW = FlowId(client_ip="10.0.0.1", client_port=40000, server_ip="34.0.0.1", server_port=443)


def test_perf_tcp_segment_and_reassemble(benchmark):
    payload = b"x" * 100_000

    def round_trip():
        frames = segment_request(payload, FLOW, 0.0)
        reassembler = TcpReassembler()
        for frame in frames:
            reassembler.add_frame(frame)
        return reassembler.pop_flow(FLOW).data

    assert benchmark(round_trip) == payload


def test_perf_pcap_round_trip(benchmark):
    pcap = PcapFile()
    rng = random.Random(1)
    for index in range(500):
        pcap.append(
            PcapPacket(timestamp=index * 0.001, data=rng.randbytes(300))
        )

    def round_trip():
        return PcapFile.from_bytes(pcap.to_bytes())

    assert len(benchmark(round_trip)) == 500


def test_perf_tls_stream(benchmark):
    session = TlsSession.derive(b"bench")
    plaintext = b"A" * 50_000

    def round_trip():
        return decrypt_stream(encrypt_stream(plaintext, session), session)

    assert benchmark(round_trip) == plaintext


def test_perf_esld_extraction(benchmark):
    psl = default_psl()
    hosts = [
        f"sub{i}.tracker{i % 50}.{suffix}"
        for i, suffix in enumerate(["com", "co.uk", "net", "io"] * 125)
    ]

    def extract_all():
        return [psl.extract(host).registered_domain for host in hosts]

    results = benchmark(extract_all)
    assert len(results) == 500


def test_perf_classification_throughput(benchmark):
    factory = PayloadFactory()
    keys = sorted(factory.registry.truth)[:300]
    model = Gpt4Classifier(temperature=0.0)

    def classify_all():
        return [model.classify(key) for key in keys]

    verdicts = benchmark(classify_all)
    assert len(verdicts) == 300
