"""Streaming decode throughput and parity: eviction vs none.

There is one decoder.  This times it under the default eviction
policy (what ``repro stream`` runs) against
``decrypt_mobile_artifact`` — the same decoder fed to EOF with no
eviction — over the session-shared generated corpus, and asserts —
not assumes — that eviction leaves every capture's results unchanged,
while reporting the decoder's buffering high-water mark (the
bounded-memory half of the trade).

Runs under pytest or standalone
(``python benchmarks/bench_stream.py [--quick]``).
"""

from __future__ import annotations

import argparse
import sys
import time


def _load_pcap_units(directory):
    from repro.pipeline.replay import ReplayCorpus

    corpus = ReplayCorpus.scan(directory)
    units = []
    for unit in corpus.units:
        if unit.pcap is None:
            continue
        keylog_text = unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
        units.append((unit.pcap.read_bytes(), keylog_text))
    return units


def run_stream_benchmark(directory, repeats: int = 2) -> str:
    from repro.capture.decrypt import decrypt_mobile_artifact
    from repro.net.pcap import PcapReader
    from repro.net.tls import KeyLog
    from repro.stream.incremental import IncrementalTraceDecoder

    units = _load_pcap_units(directory)
    assert units, f"no .pcap artifacts in {directory}"
    total_bytes = sum(len(raw) for raw, _ in units)
    keylogs = [KeyLog.from_text(text) for _, text in units]

    def fingerprint(decryption):
        return (
            [(r.flow, r.request.to_bytes()) for r in decryption.requests],
            [(o.host, o.frame_count) for o in decryption.opaque],
            decryption.packet_count,
            decryption.flow_count,
            decryption.undecryptable_flows,
        )

    batch_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        batch = [decrypt_mobile_artifact(raw, keylog) for (raw, keylog) in units]
        batch_s = min(batch_s, time.perf_counter() - start)

    stream_s = float("inf")
    high_water = 0
    for _ in range(repeats):
        start = time.perf_counter()
        streamed = []
        high_water = 0
        for (raw, _), keylog in zip(units, keylogs):
            decoder = IncrementalTraceDecoder(keylog)
            reader = PcapReader(raw)
            for record in reader.iter_packets():
                decoder.feed(record.timestamp, record.data)
            streamed.append(decoder.finish())
            high_water = max(high_water, decoder.high_water_bytes)
            reader.close()
        stream_s = min(stream_s, time.perf_counter() - start)

    assert [fingerprint(d) for d in streamed] == [
        fingerprint(d) for d in batch
    ], "streamed-to-EOF decode disagrees with batch decode"
    requests = sum(len(d.requests) for d in batch)
    lines = [
        "Streaming decode — packet-at-a-time vs batch",
        "",
        f"captures:             {len(units)}",
        f"pcap bytes:           {total_bytes:,}",
        f"requests recovered:   {requests}",
        f"batch decode:         {batch_s:.3f} s "
        f"({total_bytes / batch_s / 1e6:.2f} MB/s)",
        f"streamed decode:      {stream_s:.3f} s "
        f"({total_bytes / stream_s / 1e6:.2f} MB/s)",
        f"stream vs batch:      {batch_s / stream_s:.2f}x",
        f"buffering high water: {high_water:,} bytes "
        f"({high_water / max(1, total_bytes):.1%} of corpus)",
        "",
        "results identical: yes (streamed == batch, per capture)",
    ]
    return "\n".join(lines)


def test_stream_throughput(generated_corpus, save_artifact):
    report = run_stream_benchmark(generated_corpus.directory)
    save_artifact("bench_stream.txt", report)
    print(report)


def main(argv: list[str] | None = None) -> int:
    import tempfile

    from repro import CorpusConfig
    from repro.pipeline.engine import generate_corpus_artifacts

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small corpus for CI smoke runs"
    )
    parser.add_argument(
        "--scale", type=float, default=0.02, help="corpus scale (default 0.02)"
    )
    args = parser.parse_args(argv)
    scale = 0.005 if args.quick else args.scale
    with tempfile.TemporaryDirectory(prefix="bench-stream-") as workdir:
        generate_corpus_artifacts(CorpusConfig(scale=scale), workdir)
        try:
            report = run_stream_benchmark(workdir)
        except AssertionError as exc:
            print(f"benchmark invariant violated: {exc}", file=sys.stderr)
            return 1
    print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
