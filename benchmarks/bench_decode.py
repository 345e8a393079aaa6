"""Decode throughput: archived PCAPs → plaintext HTTP requests.

Times the cold decode path in isolation — PCAP record walk, frame
parsing, TCP reassembly, TLS decryption, HTTP stream parsing, all
through the incremental decoder fed to EOF — over the session-shared
generated corpus, through both read APIs:

* **streaming** — raw bytes through :class:`repro.net.pcap.PcapReader`
  (the zero-copy path the pipeline uses);
* **eager** — :class:`repro.net.pcap.PcapFile` materializing every
  record (the pre-streaming API, kept for tools and tests).

Parity is asserted, not assumed: both APIs must recover identical
requests from every capture.  Runs under pytest or standalone
(``python benchmarks/bench_decode.py [--quick]``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.capture.decrypt import decrypt_mobile_artifact
from repro.net.pcap import PcapFile


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


def run_decode_benchmark(directory, repeats: int = 2) -> str:
    units = _load_pcap_units(directory)
    assert units, f"no .pcap artifacts in {directory}"
    total_bytes = sum(len(raw) for raw, _ in units)

    streaming_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        streaming = [decrypt_mobile_artifact(raw, keylog) for raw, keylog in units]
        streaming_s = min(streaming_s, time.perf_counter() - start)

    eager_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        eager = [
            decrypt_mobile_artifact(PcapFile.from_bytes(raw), keylog)
            for raw, keylog in units
        ]
        eager_s = min(eager_s, time.perf_counter() - start)

    assert streaming == eager, "streaming and eager decode disagree"
    requests = sum(len(d.requests) for d in streaming)
    lines = [
        "PCAP decode — streaming (zero-copy) vs eager API",
        "",
        f"captures:            {len(units)}",
        f"pcap bytes:          {total_bytes:,}",
        f"requests recovered:  {requests}",
        f"streaming decode:    {streaming_s:.3f} s "
        f"({total_bytes / streaming_s / 1e6:.2f} MB/s)",
        f"eager decode:        {eager_s:.3f} s "
        f"({total_bytes / eager_s / 1e6:.2f} MB/s)",
        f"streaming vs eager:  {eager_s / streaming_s:.2f}x",
        "",
        "results identical: yes (streaming == eager, per capture)",
    ]
    return "\n".join(lines)


def test_decode_throughput(generated_corpus, save_artifact):
    report = run_decode_benchmark(generated_corpus.directory)
    save_artifact("bench_decode.txt", report)
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
    with tempfile.TemporaryDirectory(prefix="bench-decode-") as workdir:
        generate_corpus_artifacts(CorpusConfig(scale=scale), workdir)
        try:
            report = run_decode_benchmark(workdir)
        except AssertionError as exc:
            print(f"benchmark invariant violated: {exc}", file=sys.stderr)
            return 1
    print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
