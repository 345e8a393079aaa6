"""End-to-end DiffAudit pipeline (paper Figure 1).

* :mod:`repro.pipeline.corpus` — generate traces, capture them into
  HAR/PCAP artifacts, and parse them back (steps 1–2);
* :mod:`repro.pipeline.dataset` — the Table 1 dataset summary;
* :mod:`repro.pipeline.engine` — the parallel sharded engine running
  steps 1–3 per service (sequential or process-pool executors);
* :mod:`repro.pipeline.profile` — stage-level wall-time attribution
  for the audit hot path (``--profile-out`` / ``repro bench``);
* :mod:`repro.pipeline.replay` — artifact replay: scan a captured
  HAR/PCAP corpus on disk and feed it through the same engine;
* :mod:`repro.pipeline.diffaudit` — the full audit run: flows,
  classification, destination analysis, differential audit,
  linkability (steps 3–5).
"""

from repro.pipeline.corpus import (
    CorpusProcessor,
    ParsedTrace,
    parsed_trace_from_har,
    parsed_trace_from_mobile,
)
from repro.pipeline.dataset import DatasetSummary, ServiceDatasetStats
from repro.pipeline.diffaudit import DiffAudit, DiffAuditResult
from repro.pipeline.engine import (
    EXECUTOR_KINDS,
    AuditEngine,
    EngineOutput,
    PackedShardResult,
    ProcessPoolShardExecutor,
    SequentialExecutor,
    ShardResult,
    ShardTask,
    executor_for,
    generate_corpus_artifacts,
    pack_shard_result,
    process_shard,
)
from repro.pipeline.profile import (
    PROFILE_VERSION,
    profile_document,
    validate_profile,
    write_profile,
)
from repro.pipeline.replay import (
    ReplayCorpus,
    ReplayError,
    ReplayProvenance,
    TraceUnit,
    load_parsed_trace,
    merge_manifest_traces,
    read_manifest,
    replay_config,
    write_manifest,
)

__all__ = [
    "CorpusProcessor",
    "ParsedTrace",
    "parsed_trace_from_har",
    "parsed_trace_from_mobile",
    "DatasetSummary",
    "ServiceDatasetStats",
    "DiffAudit",
    "DiffAuditResult",
    "AuditEngine",
    "EngineOutput",
    "EXECUTOR_KINDS",
    "PackedShardResult",
    "ProcessPoolShardExecutor",
    "SequentialExecutor",
    "ShardResult",
    "ShardTask",
    "executor_for",
    "generate_corpus_artifacts",
    "pack_shard_result",
    "process_shard",
    "PROFILE_VERSION",
    "profile_document",
    "validate_profile",
    "write_profile",
    "ReplayCorpus",
    "ReplayError",
    "ReplayProvenance",
    "TraceUnit",
    "load_parsed_trace",
    "merge_manifest_traces",
    "read_manifest",
    "replay_config",
    "write_manifest",
]
