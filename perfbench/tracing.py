"""Layer tracing for the benchmark's traced run.

The benchmark never edits the program to trace it.  It wraps public
entry points from the outside, at the name each caller looks up —
``repro.capture.decrypt.parse_tcp_segment`` is wrapped where
``decrypt.py`` calls it, ``TcpReassembler.add_segment`` on its class —
so every call the pipeline makes through that name opens a span.

Spans are aggregated as they close instead of being stored one by
one (a cold audit makes hundreds of thousands of per-packet calls).
Each thread of each process keeps its own *track*: a stack of open
spans plus per-layer sums.  When a span closes, its duration is added
to its layer's ``busy`` time (only for the outermost span of that layer
on the stack, so a layer calling itself is not counted twice) and its
duration minus the time its child spans covered is added to the
layer's ``self`` time.  On each track the ``self`` times add up to the
time spent inside spans; on the main track the root span's own
``self`` time is the part of the operation no layer accounts for.

Forked pool workers inherit the wrappers.  A fork hook resets the
child's tracks and registers an exit finalizer that writes the child's
sums into a spool directory; :meth:`Tracer.collect` folds the spool
back in, so worker spans come home with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from multiprocessing import util
from pathlib import Path

# Layers in pipeline order.  Per-layer metric names are built from
# these keys (``self_s.<layer>``), so renaming one renames a metric.
# The generate-side layers run during set-up, the rest in the timed
# operation.
SETUP_LAYERS = ("synth", "encode", "artifact_write")
OP_LAYERS = (
    "replay",
    "har",
    "pcap",
    "packet",
    "tcp",
    "tls",
    "http",
    "incremental",
    "extract",
    "classify",
    "label",
    "flow_build",
    "shard",
    "executor",
    "ipc.pack",
    "ipc.unpack",
    "digest",
    "store.read",
    "store.write",
    "merge",
    "snapshot",
    "assemble",
)

ROOT = "op"


class _Track:
    """One thread's open-span stack and per-layer sums."""

    __slots__ = ("stack", "depth", "busy", "self_time", "counts", "maxima")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, start, child_time]
        self.depth: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def enter(self, layer: str) -> None:
        self.depth[layer] = self.depth.get(layer, 0) + 1
        self.stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, child = self.stack.pop()
        elapsed = end - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + elapsed - child
        depth = self.depth[layer] - 1
        self.depth[layer] = depth
        if depth == 0:
            self.busy[layer] = self.busy.get(layer, 0.0) + elapsed
        if self.stack:
            self.stack[-1][2] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


class Tracer:
    """Per-thread tracks, summed on :meth:`collect`."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tracks: list[_Track] = []

    def track(self) -> _Track:
        track = getattr(self._local, "track", None)
        if track is None:
            track = _Track()
            self._local.track = track
            with self._lock:
                self._tracks.append(track)
        return track

    def reset(self) -> None:
        """Forget every track (a forked child starts from nothing)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tracks = []

    def after_fork_in_child(self) -> None:
        self.reset()
        util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's sums into the spool (worker exit)."""
        totals = self._totals()
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(totals), encoding="utf-8")

    def _totals(self) -> dict:
        return merge_totals(
            [
                {
                    "busy": track.busy,
                    "self": track.self_time,
                    "counts": track.counts,
                    "maxima": track.maxima,
                }
                for track in list(self._tracks)
            ]
        )

    def collect(self) -> dict:
        """This process's sums plus every spooled worker's."""
        shipped = []
        if self.spool.is_dir():
            for path in sorted(self.spool.glob("*.json")):
                shipped.append(json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
        return merge_totals([self._totals(), *shipped])


def merge_totals(all_totals: list[dict]) -> dict:
    """Sum sums and counts, keep the largest high-water marks."""
    merged: dict = {"busy": {}, "self": {}, "counts": {}, "maxima": {}}
    for totals in all_totals:
        for key in ("busy", "self", "counts"):
            for name, value in totals[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in totals["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, 0), value)
    return merged


# ----------------------------------------------------------------------
# Hooks: counts taken where the work happens
# ----------------------------------------------------------------------


def _count_items(name):
    def hook(track, args, result):
        track.count(name, len(result))

    return hook


def _count_calls(name):
    def hook(track, args, result):
        track.count(name)

    return hook


def _keylog_lookup(track, args, result):
    # Both decoders look a TLS flow's client random up exactly once.
    track.count("tls.flows")
    if result is None:
        track.count("tls.opaque")


def _scan_requests(track, args, result):
    track.count("http.requests", len(result[0]))


def _decoder_finish(track, args, result):
    decoder = args[0]
    track.count("incremental.evictions", decoder.evictions)
    track.high_water("incremental.high_water_bytes", decoder.high_water_bytes)


def _har_entries(track, args, result):
    track.count("har.entries", len(result.entries))


def _caching_batch(track, args, result):
    track.count("classify.keys", len(args[1]))


def _inner_batch(track, args, result):
    # batch_classify descends one layer of the classifier stack; only
    # a descent into something other than the persistent store layer
    # reaches the model itself.
    from repro.datatypes.store import PersistentClassifier

    if not isinstance(args[0], PersistentClassifier):
        track.count("classify.inner_keys", len(args[1]))


def _unit_lookup(track, args, result):
    track.count("store.unit_lookups", len(args[2]))
    track.count("store.unit_found", len(result))


def _unit_digest(track, args, result):
    unit = args[0]
    size = 0
    for path in (unit.har, unit.pcap, unit.keylog):
        if path is not None:
            size += Path(path).stat().st_size
    track.count("digest.bytes", size)


def _non_tcp(track, exc):
    from repro.net.packet import PacketError

    if isinstance(exc, PacketError):
        track.count("packet.non_tcp")


# (module, attribute path, layer or None for count-only, kind, hook)
# ``kind`` is "call", "gen" (time each step of a generator) or "count".
TARGETS = (
    ("repro.services.generator", "TrafficGenerator.generate_corpus", "synth", "gen", None),
    ("repro.capture.pcapdroid", "PcapdroidCapture.capture", "encode", "call", None),
    ("repro.capture.devtools", "DevToolsCapture.capture", "encode", "call", None),
    ("repro.capture.proxyman", "ProxymanCapture.capture", "encode", "call", None),
    ("repro.pipeline.corpus", "write_har", "artifact_write", "call", None),
    ("repro.pipeline.corpus", "atomic_write_bytes", "artifact_write", "call", None),
    ("repro.pipeline.corpus", "atomic_write_text", "artifact_write", "call", None),
    ("repro.pipeline.engine", "load_parsed_trace", "replay", "call", None),
    ("repro.stream.sources", "load_parsed_trace", "replay", "call", None),
    ("repro.pipeline.replay", "read_har", "har", "call", _har_entries),
    ("repro.net.pcap", "PcapReader.iter_packets", "pcap", "gen", None),
    ("repro.capture.decrypt", "parse_tcp_segment", "packet", "call", None),
    ("repro.stream.incremental", "parse_tcp_segment", "packet", "call", None),
    ("repro.net.tcp", "TcpReassembler.add_segment", "tcp", "call", _count_calls("tcp.segments")),
    ("repro.net.tcp", "TcpReassembler.flows", "tcp", "call", None),
    ("repro.net.tcp", "TcpReassembler.drain_ready", "tcp", "call", None),
    ("repro.net.tls", "KeyLog.lookup", None, "count", _keylog_lookup),
    ("repro.capture.decrypt", "unwrap_hello", "tls", "call", None),
    ("repro.capture.decrypt", "decrypt_stream", "tls", "call", None),
    ("repro.stream.incremental", "scan_records", "tls", "call", None),
    ("repro.stream.incremental", "decrypt_record", "tls", "call", None),
    ("repro.capture.decrypt", "parse_request_stream", "http", "call", _count_items("http.requests")),
    ("repro.stream.incremental", "scan_request_stream", "http", "call", _scan_requests),
    ("repro.stream.incremental", "IncrementalTraceDecoder.feed", "incremental", "call", None),
    ("repro.stream.incremental", "IncrementalTraceDecoder.finish", "incremental", "call", _decoder_finish),
    ("repro.pipeline.engine", "extract_from_request", "extract", "call", _count_items("extract.keys")),
    ("repro.stream.session", "extract_from_request", "extract", "call", _count_items("extract.keys")),
    ("repro.datatypes.cache", "CachingClassifier.classify_batch", "classify", "call", _caching_batch),
    ("repro.datatypes.cache", "batch_classify", "classify", "call", _inner_batch),
    ("repro.datatypes.store", "batch_classify", "classify", "call", _inner_batch),
    ("repro.destinations.party", "DestinationLabeler.label", "label", "call", None),
    ("repro.flows.builder", "FlowBuilder.flows_for_destination", "flow_build", "call", _count_items("flow_build.observations")),
    ("repro.pipeline.engine", "process_shard", "shard", "call", _count_calls("shard.count")),
    ("repro.pipeline.engine", "pack_shard_result", "ipc.pack", "call", None),
    ("repro.pipeline.engine", "PackedShardResult.unpack", "ipc.unpack", "call", None),
    ("repro.pipeline.engine", "unit_digest", "digest", "call", _unit_digest),
    ("repro.datatypes.store", "ClassificationStore.get_many", "store.read", "call", None),
    ("repro.datatypes.store", "ClassificationStore.get_unit_results", "store.read", "call", _unit_lookup),
    ("repro.datatypes.store", "ClassificationStore.put_many", "store.write", "call", None),
    ("repro.datatypes.store", "ClassificationStore.put_unit_results", "store.write", "call", None),
    ("repro.pipeline.engine", "AuditEngine.merge", "merge", "call", None),
    ("repro.stream.session", "StreamAudit.snapshot", "snapshot", "call", _count_calls("snapshot.count")),
    ("repro.pipeline.diffaudit", "assemble_result", "assemble", "call", None),
    ("repro.stream.session", "assemble_result", "assemble", "call", None),
    ("repro.obs.metrics", "Counter.inc", None, "count", _count_calls("obs.counter_incs")),
)

# The packet layer counts what it rejects; a rejected frame is the
# decoders' signal to skip non-TCP noise.
_ERROR_HOOKS = {"packet": _non_tcp}


def _executor_targets() -> list[tuple]:
    """``map_shards`` on every executor class the engine defines now."""
    engine = importlib.import_module("repro.pipeline.engine")
    targets = []
    for name, value in sorted(vars(engine).items()):
        if (
            isinstance(value, type)
            and value.__module__ == engine.__name__
            and "map_shards" in vars(value)
            and "Protocol" not in [base.__name__ for base in value.__mro__[1:]]
        ):
            targets.append(
                ("repro.pipeline.engine", f"{name}.map_shards", "executor", "call", None)
            )
    return targets


def _wrap_call(tracer: Tracer, func, layer, hook, on_error):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        track = tracer.track()
        track.enter(layer)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            track.exit()
            if on_error is not None:
                on_error(track, exc)
            raise
        track.exit()
        if hook is not None:
            hook(track, args, result)
        return result

    return wrapper


def _wrap_gen(tracer: Tracer, func, layer):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        iterator = func(*args, **kwargs)
        try:
            while True:
                track = tracer.track()
                track.enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    track.exit()
                track.count(f"{layer}.items")
                yield item
        finally:
            iterator.close()

    return wrapper


def _wrap_count(tracer: Tracer, func, hook):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        hook(tracer.track(), args, result)
        return result

    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Installed:
    """Wrappers in place; :meth:`remove` puts the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for module_name, path, layer, kind, hook in (*TARGETS, *_executor_targets()):
            try:
                owner, attr = _resolve(module_name, path)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                # An entry point a later change removed: its layer then
                # reads zero, and the run records which target was gone.
                self.missing.append(f"{module_name}.{path}")
                continue
            static = isinstance(raw, staticmethod)
            func = raw.__func__ if static else raw
            if kind == "gen":
                wrapped = _wrap_gen(tracer, func, layer)
            elif kind == "count":
                wrapped = _wrap_count(tracer, func, hook)
            else:
                wrapped = _wrap_call(tracer, func, layer, hook, _ERROR_HOOKS.get(layer))
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._saved.append((owner, attr, raw))
        # Pool workers start through multiprocessing, which clears exit
        # finalizers after a fork and then runs its own after-fork hooks.
        util.register_after_fork(self, Installed._after_fork)

    def _after_fork(self) -> None:
        if self._saved:
            self.tracer.after_fork_in_child()

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []


def layer_metrics(totals: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics per operation from one or more ops' totals."""
    busy, self_time = totals["busy"], totals["self"]
    counts, maxima = totals["counts"], totals["maxima"]

    def per_op(value: float) -> float:
        return value / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "pcap.busy_s": per_op(busy.get("pcap", 0.0)),
        "pcap.packets": per_op(counts.get("pcap.items", 0)),
        "packet.busy_s": per_op(busy.get("packet", 0.0)),
        "packet.non_tcp": per_op(counts.get("packet.non_tcp", 0)),
        "tcp.busy_s": per_op(busy.get("tcp", 0.0)),
        "tcp.segments": per_op(counts.get("tcp.segments", 0)),
        "tls.busy_s": per_op(busy.get("tls", 0.0)),
        "tls.flows": per_op(counts.get("tls.flows", 0)),
        "tls.opaque_ratio": ratio(counts.get("tls.opaque", 0), counts.get("tls.flows", 0)),
        "http.busy_s": per_op(busy.get("http", 0.0)),
        "http.requests": per_op(counts.get("http.requests", 0)),
        "incremental.busy_s": per_op(busy.get("incremental", 0.0)),
        "incremental.evictions": per_op(counts.get("incremental.evictions", 0)),
        "incremental.high_water_kb": maxima.get("incremental.high_water_bytes", 0) / 1024,
        "snapshot.busy_s": per_op(busy.get("snapshot", 0.0)),
        "snapshot.count": per_op(counts.get("snapshot.count", 0)),
        "obs.counter_incs": per_op(counts.get("obs.counter_incs", 0)),
        "har.busy_s": per_op(busy.get("har", 0.0)),
        "har.entries": per_op(counts.get("har.entries", 0)),
        "replay.load_s": per_op(busy.get("replay", 0.0)),
        "extract.busy_s": per_op(busy.get("extract", 0.0)),
        "extract.keys": per_op(counts.get("extract.keys", 0)),
        "classify.busy_s": per_op(busy.get("classify", 0.0)),
        "classify.inner_keys": per_op(counts.get("classify.inner_keys", 0)),
        "classify.hit_ratio": 1.0
        - ratio(counts.get("classify.inner_keys", 0), counts.get("classify.keys", 0))
        if counts.get("classify.keys", 0)
        else 0.0,
        "label.busy_s": per_op(busy.get("label", 0.0)),
        "flow_build.busy_s": per_op(busy.get("flow_build", 0.0)),
        "flow_build.observations": per_op(counts.get("flow_build.observations", 0)),
        "shard.busy_s": per_op(busy.get("shard", 0.0)),
        "shard.count": per_op(counts.get("shard.count", 0)),
        "executor.map_s": per_op(busy.get("executor", 0.0)),
        "ipc.pack_s": per_op(busy.get("ipc.pack", 0.0)),
        "ipc.unpack_s": per_op(busy.get("ipc.unpack", 0.0)),
        "merge.busy_s": per_op(busy.get("merge", 0.0)),
        "store.read_s": per_op(busy.get("store.read", 0.0)),
        "store.write_s": per_op(busy.get("store.write", 0.0)),
        "store.unit_hit_ratio": ratio(
            counts.get("store.unit_found", 0), counts.get("store.unit_lookups", 0)
        ),
        "digest.busy_s": per_op(busy.get("digest", 0.0)),
        "digest.mb": per_op(counts.get("digest.bytes", 0)) / 1e6,
        "assemble.busy_s": per_op(busy.get("assemble", 0.0)),
    }
    for layer in OP_LAYERS:
        metrics[f"self_s.{layer}"] = per_op(self_time.get(layer, 0.0))
    metrics["self_s.unattributed"] = per_op(self_time.get(ROOT, 0.0))
    return metrics


def setup_layer_metrics(totals: dict) -> dict[str, float]:
    """The generate-side layers, per set-up."""
    busy, self_time = totals["busy"], totals["self"]
    metrics = {
        "synth.busy_s": busy.get("synth", 0.0),
        "encode.busy_s": busy.get("encode", 0.0),
        "artifact_write_s": busy.get("artifact_write", 0.0),
    }
    for layer in SETUP_LAYERS:
        metrics[f"self_s.{layer}"] = self_time.get(layer, 0.0)
    return metrics
