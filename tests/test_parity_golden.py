"""Golden-corpus parity: the guard rail around the decode rewrite.

The corpus is *pinned, not stored*: generation is fully deterministic
for a config, so instead of committing ~2 MB of binary artifacts the
repo checks in ``tests/data/golden_corpus.sha256`` — the SHA-256 of
every artifact the golden config produces.  The fixture regenerates
the corpus and the first test proves the bytes still match the pinned
digests; the remaining tests then hold every decode API to identical
results on those exact bytes:

* eager (:class:`PcapFile`), streaming (raw bytes through
  :class:`PcapReader`), and mmap (file path) decoding must produce
  byte-identical :class:`ParsedTrace` output per artifact;
* replaying the corpus through the engine sequentially and with
  ``--jobs 2`` (which exercises sub-shard splitting) must serialize to
  the same JSON document as the in-memory audit of the same config.

Regenerate the digest file only for an *intentional* generator change:
``PYTHONPATH=src python -m repro generate --output D --scale 0.002
--profile light --seed 11 --services tiktok youtube`` then
``(cd D && sha256sum $(ls | sort)) > tests/data/golden_corpus.sha256``.

The corpus digests pin the *inputs*; two more files pin the *outputs*,
so a decode or audit change that shifts every path alike still shows
up as a reviewed diff:

* ``tests/data/golden_decode.sha256`` — for every mobile unit, clean
  and under each impairment profile, the SHA-256 of its decode
  fingerprint (requests with flow, timestamp and bytes; opaque
  contacts; packet, flow and undecryptable counts);
* ``tests/data/golden_audit.sha256`` — the SHA-256 of the golden
  audit's ``result_to_json``.

Rewrite both only for an intentional output change, after reviewing
it: ``PYTHONPATH=src:tests python -m test_parity_golden``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro import CorpusConfig, DiffAudit
from repro.capture.decrypt import decrypt_mobile_artifact
from repro.net.pcap import PcapFile
from repro.pipeline.corpus import parsed_trace_from_mobile
from repro.pipeline.engine import generate_corpus_artifacts
from repro.pipeline.replay import ReplayCorpus
from repro.reporting.export import result_to_json
from repro.stream.impair import IMPAIRMENT_PROFILES, impair_pcap, trace_impair_seed

GOLDEN_CONFIG = CorpusConfig(
    seed=11, scale=0.002, profile="light", services=("tiktok", "youtube")
)
DATA_DIR = Path(__file__).parent / "data"
DIGEST_FILE = DATA_DIR / "golden_corpus.sha256"
DECODE_DIGEST_FILE = DATA_DIR / "golden_decode.sha256"
AUDIT_DIGEST_FILE = DATA_DIR / "golden_audit.sha256"


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-corpus")
    generate_corpus_artifacts(GOLDEN_CONFIG, directory)
    return directory


def _pinned_digests(path: Path = DIGEST_FILE) -> dict[str, str]:
    digests = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, _, name = line.strip().partition("  ")
        digests[name] = digest
    return digests


def decode_fingerprint_digest(decryption) -> str:
    """SHA-256 of everything one mobile decode recovers."""
    document = {
        "requests": [
            [item.flow, repr(item.request.timestamp), item.request.to_bytes().hex()]
            for item in decryption.requests
        ],
        "opaque": [
            [contact.host, repr(contact.first_timestamp), contact.frame_count]
            for contact in decryption.opaque
        ],
        "packet_count": decryption.packet_count,
        "flow_count": decryption.flow_count,
        "undecryptable_flows": decryption.undecryptable_flows,
    }
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def golden_decode_digests(corpus_dir: Path) -> dict[str, str]:
    """``<unit>/<impairment profile>`` → decode fingerprint digest."""
    digests = {}
    for unit in ReplayCorpus.scan(corpus_dir).units:
        if unit.pcap is None:
            continue
        keylog_text = unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
        pcap = PcapFile.from_bytes(unit.pcap.read_bytes())
        seed = trace_impair_seed(GOLDEN_CONFIG.seed, unit.meta.name)
        for name, profile in sorted(IMPAIRMENT_PROFILES.items()):
            blob = impair_pcap(pcap, profile, seed).to_bytes()
            digests[f"{unit.meta.name}/{name}"] = decode_fingerprint_digest(
                decrypt_mobile_artifact(blob, keylog_text)
            )
    return digests


def golden_audit_digest(corpus_dir: Path) -> str:
    audit = result_to_json(DiffAudit(GOLDEN_CONFIG, replay=corpus_dir).run())
    return hashlib.sha256(audit.encode("utf-8")).hexdigest()


def _write_digest_file(path: Path, digests: dict[str, str]) -> None:
    path.write_text(
        "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())),
        encoding="utf-8",
    )


class TestPinnedBytes:
    def test_corpus_matches_checked_in_digests(self, golden_corpus):
        """Every artifact byte is pinned; drift fails loudly here."""
        expected = _pinned_digests()
        actual = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in golden_corpus.iterdir()
            if path.is_file()
        }
        assert set(actual) == set(expected), "artifact file set changed"
        mismatched = sorted(
            name for name, digest in actual.items() if expected[name] != digest
        )
        assert not mismatched, f"artifact bytes drifted: {mismatched}"


class TestPinnedOutputs:
    """Decode and audit outputs against digests recorded before the
    batch decode walk was folded into the incremental decoder."""

    def test_decode_fingerprints_match_pinned(self, golden_corpus):
        expected = _pinned_digests(DECODE_DIGEST_FILE)
        actual = golden_decode_digests(golden_corpus)
        assert set(actual) == set(expected), "decoded unit/profile set changed"
        mismatched = sorted(key for key, digest in actual.items() if expected[key] != digest)
        assert not mismatched, f"decode output drifted: {mismatched}"

    def test_audit_json_matches_pinned(self, golden_corpus):
        expected = _pinned_digests(AUDIT_DIGEST_FILE)["audit.json"]
        assert golden_audit_digest(golden_corpus) == expected


class TestDecodeApiParity:
    def test_eager_streaming_and_mmap_decode_identically(self, golden_corpus):
        corpus = ReplayCorpus.scan(golden_corpus)
        pcap_units = [unit for unit in corpus.units if unit.pcap is not None]
        assert pcap_units, "golden corpus must contain mobile traces"
        for unit in pcap_units:
            keylog_text = (
                unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
            )
            raw = unit.pcap.read_bytes()
            eager = parsed_trace_from_mobile(
                unit.meta, PcapFile.from_bytes(raw), keylog_text
            )
            streaming = parsed_trace_from_mobile(unit.meta, raw, keylog_text)
            mmapped = parsed_trace_from_mobile(unit.meta, unit.pcap, keylog_text)
            assert streaming == eager, f"streaming decode diverged for {unit.meta.name}"
            assert mmapped == eager, f"mmap decode diverged for {unit.meta.name}"

    def test_streaming_decode_recovers_requests(self, golden_corpus):
        corpus = ReplayCorpus.scan(golden_corpus)
        recovered = 0
        for unit in corpus.units:
            if unit.pcap is None:
                continue
            keylog_text = (
                unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
            )
            decryption = decrypt_mobile_artifact(
                unit.pcap.read_bytes(), keylog_text
            )
            assert decryption.packet_count > 0
            recovered += len(decryption.requests)
        assert recovered > 0, "no plaintext recovered from the golden corpus"


class TestEngineParityOnGoldenCorpus:
    def test_replay_sequential_parallel_and_in_memory_agree(self, golden_corpus):
        """The whole pipeline, all three ways, to one JSON document.

        ``jobs=2`` exercises the size-balanced scheduler's sub-shard
        splitting and unordered submission; output must stay
        byte-identical to the sequential replay *and* to the in-memory
        audit that never touched the artifacts.
        """
        sequential = result_to_json(
            DiffAudit(GOLDEN_CONFIG, replay=golden_corpus, jobs=1).run()
        )
        parallel = result_to_json(
            DiffAudit(GOLDEN_CONFIG, replay=golden_corpus, jobs=2).run()
        )
        in_memory = result_to_json(DiffAudit(GOLDEN_CONFIG).run())
        assert sequential == in_memory
        assert parallel == in_memory

    def test_auto_replay_above_one_job_runs_on_process_pool(self, golden_corpus):
        result, profile = DiffAudit(
            GOLDEN_CONFIG, replay=golden_corpus, jobs=2
        ).run_profiled()
        assert profile["engine"]["executor"] == "process"
        assert result_to_json(result) == result_to_json(
            DiffAudit(GOLDEN_CONFIG).run()
        )


class TestIncrementalParityOnGoldenCorpus:
    """Cold == fully-warm == delta, byte for byte, on the pinned corpus.

    The golden corpus is module-scoped and read-only; every test keeps
    its unit-result cache in its own ``tmp_path`` and the growth test
    generates a corpus of its own.
    """

    def _run(self, corpus, cache, config=GOLDEN_CONFIG, **kwargs):
        result, profile = DiffAudit(
            config, replay=corpus, cache_dir=cache, **kwargs
        ).run_profiled()
        return result_to_json(result), profile["engine"]

    def test_cold_and_warm_match_in_memory_across_executors(
        self, golden_corpus, tmp_path
    ):
        baseline = result_to_json(DiffAudit(GOLDEN_CONFIG).run())
        cache = tmp_path / "cache"
        cold, cold_engine = self._run(golden_corpus, cache)
        assert cold == baseline
        assert cold_engine["unit_hits"] == 0
        total = cold_engine["unit_misses"]
        assert total > 0
        # Fully-warm re-audits: every jobs/executor combination must
        # reuse every unit and still serialize to the same bytes.
        for kwargs in (
            {"jobs": 1},
            {"jobs": 2, "executor": "process"},
        ):
            warm, engine = self._run(golden_corpus, cache, **kwargs)
            assert warm == baseline, f"warm run diverged for {kwargs}"
            assert engine["unit_hits"] == total, f"partial reuse for {kwargs}"
            assert engine["unit_misses"] == 0, f"recompute under {kwargs}"

    def test_delta_run_recomputes_only_grown_units(self, tmp_path):
        """Grow the corpus by one service; only its units recompute."""
        corpus = tmp_path / "corpus"
        cache = tmp_path / "cache"
        tiktok_only = CorpusConfig(
            seed=11, scale=0.002, profile="light", services=("tiktok",)
        )
        generate_corpus_artifacts(tiktok_only, corpus)
        first, first_engine = self._run(
            corpus, cache, config=tiktok_only, jobs=2, executor="process"
        )
        del first

        generate_corpus_artifacts(
            CorpusConfig(
                seed=11, scale=0.002, profile="light", services=("youtube",)
            ),
            corpus,
        )
        grown = ReplayCorpus.scan(corpus)
        new_units = len(grown.units_for("youtube"))
        assert new_units > 0
        delta, delta_engine = self._run(corpus, cache)
        assert delta_engine["unit_hits"] == first_engine["unit_misses"]
        assert delta_engine["unit_misses"] == new_units
        # Byte parity with a from-scratch audit of the grown corpus.
        fresh = result_to_json(DiffAudit(GOLDEN_CONFIG, replay=corpus).run())
        assert delta == fresh


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        corpus_dir = Path(scratch)
        generate_corpus_artifacts(GOLDEN_CONFIG, corpus_dir)
        _write_digest_file(DECODE_DIGEST_FILE, golden_decode_digests(corpus_dir))
        _write_digest_file(
            AUDIT_DIGEST_FILE, {"audit.json": golden_audit_digest(corpus_dir)}
        )
    sys.exit(0)
