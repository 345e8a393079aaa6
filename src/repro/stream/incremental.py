"""Per-packet capture decoding with bounded memory — the one decoder.

:class:`IncrementalTraceDecoder` turns a capture plus its key log into
a :class:`~repro.capture.decrypt.MobileDecryption`.  Packets feed in
one at a time; flows are evicted under an idle-timeout + byte-budget
LRU policy, and under a finite budget each flow's newly contiguous
bytes drain straight through TLS record decryption and HTTP parsing,
so raw capture bytes are released long before the flow ends.  Batch
decoding (:func:`repro.capture.decrypt.decrypt_mobile_artifact`) is
this decoder fed to EOF under :data:`NO_EVICTION`.

The decode rules, per flow: first-copy-wins reassembly; a flow opening
with the pseudo-ClientHello is decrypted with its key-log secret or,
without one, kept as an opaque contact (SNI host and frame count); a
TLS framing error anywhere, a truncated or non-IDNA hello, a partial
trailing record or bare records without a hello make the whole flow
undecryptable; other flows are plaintext HTTP; the HTTP walk stops for
good at the first unparsable head and drops a truncated trailing
request; flows and their requests land in first-seen order, stamped
with the flow's first timestamp.

Eviction is the one thing that can change the output: a flow evicted
*mid-life* (more of its segments arrive later) is finalized early and
its stragglers open a fresh flow record, which decoding the whole
capture at once would have merged.  The defaults are chosen so that
cannot happen on well-formed feeds (the idle timeout is far longer
than any reordering window); the byte budget is the hard memory
guarantee for adversarial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.capture.decrypt import DecryptedRequest, MobileDecryption, OpaqueContact
from repro.net.http import HttpRequest, pending_request_need, scan_request_stream
from repro.net.packet import PacketError, parse_tcp_segment
from repro.net.tcp import FlowId, TcpReassembler
from repro.net.tls import (
    RECORD_TYPE_APPDATA,
    TlsError,
    decrypt_record,
    scan_records,
    unwrap_hello,
)


@dataclass(frozen=True)
class EvictionPolicy:
    """When the streaming decoder lets go of a flow's buffers.

    ``idle_timeout`` is in *stream time* (capture timestamps): a flow
    that has not seen a segment for that long is finalized — on real
    feeds nothing arrives for it afterwards, so the output is what
    decoding the whole capture at once gives.  ``byte_budget`` caps the
    payload bytes held across all flows (reassembly buffers plus
    pipeline remainders); when exceeded, least-recently-active flows
    are finalized until the feed fits, whatever the output cost — the
    budget is the memory guarantee.  ``sweep_interval`` is how many
    packets pass between idle sweeps.

    Infinite values switch the matching work off: an infinite timeout
    never sweeps, and under an infinite budget there is no memory to
    save by draining flows early, so each flow's bytes wait in the
    reassembler and pass through its pipeline once it is finalized.
    """

    idle_timeout: float = 60.0
    byte_budget: float = 32 << 20
    sweep_interval: int = 64


# Decoding a complete capture: no flow is finalized before EOF.
NO_EVICTION = EvictionPolicy(idle_timeout=math.inf, byte_budget=math.inf)


# _FlowPipeline stages.
_SNIFF = 0  # undecided: not enough bytes to route the flow yet
_PLAIN = 1  # plaintext HTTP straight off the wire
_TLS_HELLO = 2  # TLS magic seen, waiting for the full pseudo-hello
_TLS_BODY = 3  # session known, decrypting records incrementally
_OPAQUE = 4  # no secret in the key log: destination knowledge only
_UNDECRYPTABLE = 5  # nothing recoverable (hello-less records, bad hello)
_POISONED = 6  # TLS framing error: the whole flow is undecryptable

_TLS_MAGIC = b"\x16\x03"
_RECORD_HEADER = 5


class _FlowPipeline:
    """One flow's incremental TLS → plaintext → HTTP pipeline.

    Consumes contiguous stream bytes as they become available and
    releases them immediately; holds only a partial TLS record, a
    partial HTTP request, and the requests recovered so far.
    """

    __slots__ = (
        "_keylog",
        "_stage",
        "_buffer",
        "_plain",
        "_session",
        "_record_index",
        "_record_need",
        "_http_broken",
        "_http_need",
        "requests",
        "sni",
        "fed",
    )

    def __init__(self, keylog) -> None:
        self._keylog = keylog
        self._stage = _SNIFF
        self._buffer = bytearray()
        self._plain = bytearray()
        self._session = None
        self._record_index = 0
        self._record_need = _RECORD_HEADER
        self._http_broken = False
        self._http_need = 0
        self.requests: list[HttpRequest] = []
        self.sni = ""
        self.fed = 0

    @property
    def buffered(self) -> int:
        """Unconsumed bytes this pipeline is holding."""
        return len(self._buffer) + len(self._plain)

    def feed(self, chunk: "bytearray | bytes") -> None:
        """Consume the flow's next contiguous bytes.

        A non-empty ``chunk`` is taken over, not copied, so it must be
        a bytearray no one else holds (what ``drain_ready`` returns).
        """
        if not chunk:
            return
        self.fed += len(chunk)
        stage = self._stage
        if stage >= _OPAQUE:
            return  # nothing more is recoverable; drop the bytes
        if self._buffer:
            self._buffer += chunk
        else:
            self._buffer = chunk
        if stage == _TLS_BODY:
            if len(self._buffer) >= self._record_need:
                self._parse_records()
            return
        if stage == _SNIFF:
            self._sniff(final=False)
        if self._stage == _PLAIN:
            self._parse_plain(self._buffer, scheme="http")
        elif self._stage == _TLS_HELLO:
            self._parse_hello()
            if self._stage == _TLS_BODY:
                self._parse_records()

    # -- stage machine --------------------------------------------------

    def _sniff(self, final: bool) -> None:
        """Route the flow once enough bytes arrived: pseudo-hello,
        bare TLS records, or plaintext."""
        buffer = self._buffer
        if buffer[:2] == _TLS_MAGIC:
            self._stage = _TLS_HELLO
            return
        if len(buffer) >= 5:
            if buffer[0] == RECORD_TYPE_APPDATA and buffer[1] == 0x03 and buffer[2] == 0x03:
                # Bare application-data records with no pseudo-hello:
                # no client random to look up, nothing recoverable.
                self._stage = _UNDECRYPTABLE
                self._buffer.clear()
            else:
                self._stage = _PLAIN
            return
        if final:
            # Short flow (under 5 bytes, no TLS magic): plaintext.
            self._stage = _PLAIN

    def _parse_hello(self) -> None:
        buffer = self._buffer
        if len(buffer) < 36 or len(buffer) < 36 + int.from_bytes(buffer[34:36], "big"):
            return  # wait for the whole hello: fixed part, then the SNI
        try:
            hello, records = unwrap_hello(buffer)
        except TlsError:
            # A non-IDNA SNI is as unusable as a truncated one.
            self._stage = _UNDECRYPTABLE
            buffer.clear()
            return
        self.sni = hello.sni
        session = self._keylog.lookup(hello.client_random)
        if session is None:
            self._stage = _OPAQUE
            buffer.clear()
            return
        self._buffer = records
        self._session = session
        self._stage = _TLS_BODY

    def _parse_records(self) -> None:
        buffer = self._buffer
        try:
            records, consumed = scan_records(buffer)
        except TlsError:
            self._poison()
            return
        if consumed:
            plain = self._plain
            for record_type, body in records:
                # The record index counts *all* records: it is the
                # keystream offset of each record.
                index = self._record_index
                self._record_index += 1
                if record_type == RECORD_TYPE_APPDATA:
                    plain += decrypt_record(body, self._session, index)
            del buffer[:consumed]
        # The next scan can only make progress once the pending record
        # (whose header scan_records already validated) is complete.
        if len(buffer) >= _RECORD_HEADER:
            self._record_need = _RECORD_HEADER + int.from_bytes(buffer[3:5], "big")
        else:
            self._record_need = _RECORD_HEADER
        if consumed:
            self._parse_plain(self._plain, scheme="https")

    def _parse_plain(self, source: bytearray, scheme: str) -> None:
        if self._http_broken:
            source.clear()  # the walk stopped here for good
            return
        if len(source) < self._http_need:
            # A pending request's framing already told us how many
            # bytes it needs; don't re-copy and re-scan the buffer for
            # every arriving segment of a large body.
            return
        requests, consumed, broken = scan_request_stream(bytes(source), scheme=scheme)
        self.requests.extend(requests)
        del source[:consumed]
        if broken:
            self._http_broken = True
            source.clear()
            return
        self._http_need = pending_request_need(source) if source else 0

    # -- finalization ---------------------------------------------------

    def _poison(self) -> None:
        self._stage = _POISONED
        self.requests.clear()
        self._buffer.clear()
        self._plain.clear()

    def finalize(self) -> str:
        """Close the flow and release its buffers.

        Returns what the flow contributed: ``"empty"``, ``"requests"``
        (kept in :attr:`requests`), ``"opaque"`` (host in :attr:`sni`)
        or ``"undecryptable"``.
        """
        if self.fed == 0:
            return "empty"
        if self._stage == _SNIFF:
            self._sniff(final=True)
            if self._stage == _PLAIN:
                self._parse_plain(self._buffer, scheme="http")
        if self._stage == _PLAIN:
            outcome = "requests"
        elif self._stage == _OPAQUE:
            outcome = "opaque"
        elif self._stage == _TLS_BODY and not self._buffer:
            outcome = "requests"
        else:
            # A partial trailing record (_TLS_BODY with bytes left), a
            # truncated hello, _UNDECRYPTABLE, _POISONED.
            outcome = "undecryptable"
            self.requests.clear()
        self._buffer.clear()
        self._plain.clear()
        return outcome


class _FlowRecord:
    """One flow's pipeline, then its outcome, kept in first-seen order."""

    __slots__ = ("key", "pipeline", "outcome", "first_timestamp")

    def __init__(self, key: tuple[str, int, str, int], pipeline: _FlowPipeline) -> None:
        self.key = key
        self.pipeline = pipeline
        self.outcome = ""  # _FlowPipeline.finalize's verdict
        self.first_timestamp = 0.0


class IncrementalTraceDecoder:
    """Feed one capture packet at a time; :meth:`finish` to a
    :class:`MobileDecryption`.

    The decoder's live memory is the reassembler's buffered payload
    plus the pipelines' unconsumed remainders, both bounded by the
    :class:`EvictionPolicy`; recovered requests and per-flow counters
    scale with the *results*.
    """

    def __init__(self, keylog, policy: EvictionPolicy | None = None) -> None:
        self.policy = policy or EvictionPolicy()
        self._keylog = keylog
        self._reassembler = TcpReassembler()
        self._sweep_interval = (
            self.policy.sweep_interval
            if math.isfinite(self.policy.idle_timeout)
            else math.inf
        )
        self._drain_early = math.isfinite(self.policy.byte_budget)
        # Live flows by plain flow key (a FlowId compares equal to it).
        self._active: dict[tuple[str, int, str, int], _FlowRecord] = {}
        self._records: list[_FlowRecord] = []
        # Frames per flow key over the whole trace, eviction or not.
        self._frame_counts: dict[tuple[str, int, str, int], int] = {}
        self._packet_count = 0
        self._pipeline_buffered = 0
        self._stream_time = 0.0
        self._since_sweep = 0
        self.high_water_bytes = 0
        self.evictions = 0

    # -- feeding --------------------------------------------------------

    def feed(self, timestamp: float, data) -> None:
        """Consume one captured packet (link-layer bytes)."""
        self._packet_count += 1
        try:
            segment = parse_tcp_segment(data, timestamp=timestamp)
        except PacketError:
            return  # non-TCP noise is skipped, as Wireshark display filters would
        if timestamp > self._stream_time:
            self._stream_time = timestamp
        key = segment.flow_key
        record = self._active.get(key)
        if record is None:
            record = self._active[key] = _FlowRecord(key, _FlowPipeline(self._keylog))
            self._records.append(record)
        counts = self._frame_counts
        counts[key] = counts.get(key, 0) + 1
        reassembler = self._reassembler
        reassembler.add_segment(segment)
        if self._drain_early:
            chunk = reassembler.drain_ready(key)
            if chunk:
                pipeline = record.pipeline
                before = pipeline.buffered
                pipeline.feed(chunk)
                self._pipeline_buffered += pipeline.buffered - before
        buffered = reassembler.buffered_bytes() + self._pipeline_buffered
        if buffered > self.high_water_bytes:
            self.high_water_bytes = buffered
        self._since_sweep += 1
        if self._since_sweep >= self._sweep_interval or buffered > self.policy.byte_budget:
            self._enforce_policy()

    def buffered_bytes(self) -> int:
        """Payload bytes currently buffered (reassembly + pipelines)."""
        return self._reassembler.buffered_bytes() + self._pipeline_buffered

    def live_flows(self) -> int:
        """Flow pipelines currently resident (not yet finalized)."""
        return len(self._active)

    # -- eviction -------------------------------------------------------

    def _enforce_policy(self) -> None:
        """Sweep idle flows when a sweep is due, then evict LRU flows
        until the buffered bytes fit the budget."""
        policy = self.policy
        if self._since_sweep >= self._sweep_interval:
            self._since_sweep = 0
            for flow in self._reassembler.idle_flows(
                self._stream_time, policy.idle_timeout
            ):
                self._evict(flow)
        while self.buffered_bytes() > policy.byte_budget:
            victim = self._reassembler.lru_flow()
            if victim is None:
                break
            self._evict(victim)
            self.evictions += 1

    def _evict(self, flow: FlowId) -> None:
        """Finalize one flow now and release everything it holds."""
        reassembler = self._reassembler
        record = self._active.pop(flow)
        pipeline = record.pipeline
        self._pipeline_buffered -= pipeline.buffered
        pipeline.feed(reassembler.drain_ready(flow))
        reassembled = reassembler.pop_flow(flow)
        if reassembled.data:
            pipeline.feed(bytearray(reassembled.data))
        record.first_timestamp = reassembled.first_timestamp
        record.outcome = pipeline.finalize()

    # -- finishing ------------------------------------------------------

    def finish(self) -> MobileDecryption:
        """Finalize every remaining flow and assemble the result.

        Flows land in first-seen order, requests are stamped with
        their flow's first timestamp, and opaque contacts pick up the
        trace-wide frame counts.
        """
        for flow in self._reassembler.flow_ids():
            self._evict(flow)
        result = MobileDecryption()
        result.packet_count = self._packet_count
        result.flow_count = len(self._records)
        for record in self._records:
            outcome = record.outcome
            if outcome == "empty":
                continue
            if outcome == "requests":
                flow = str(FlowId(*record.key))
                for request in record.pipeline.requests:
                    request.timestamp = record.first_timestamp
                    result.requests.append(DecryptedRequest(request=request, flow=flow))
            elif outcome == "opaque":
                result.undecryptable_flows += 1
                result.opaque.append(
                    OpaqueContact(
                        host=record.pipeline.sni,
                        first_timestamp=record.first_timestamp,
                        frame_count=self._frame_counts.get(record.key, 0),
                    )
                )
            else:  # undecryptable
                result.undecryptable_flows += 1
        return result
