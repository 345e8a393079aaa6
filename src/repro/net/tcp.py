"""TCP segmentation and flow reassembly.

The generator segments each HTTP request into MSS-sized TCP segments
with proper sequence numbers; the post-processor reassembles flows from
possibly out-of-order, possibly duplicated segments, reproducing the
paper's per-service TCP-flow accounting (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.net.packet import (
    EthernetHeader,
    Frame,
    Ipv4Header,
    TcpHeader,
    TcpSegment,
)
from repro.obs.metrics import REGISTRY

_SEGMENTS = REGISTRY.counter("repro_tcp_segments_total")
_PAYLOAD_BYTES = REGISTRY.counter("repro_tcp_payload_bytes_total")

DEFAULT_MSS = 1400

# Bounds on the per-flow ``consumed`` seq set (duplicate detection for
# already-compacted segments): past this many entries, seqs further
# than the window behind the compaction point are pruned.  A bit-exact
# retransmit of pruned data is still dropped by the covered-bytes
# check; only a *content-inconsistent* same-seq retransmit arriving
# from further back than the window could slip an extension in, and
# the simulated link never corrupts payloads.
_CONSUMED_LIMIT = 65536
_CONSUMED_WINDOW = 1 << 24  # 16 MiB of stream


class FlowId(NamedTuple):
    """Canonical (client → server) flow identity.

    A tuple equal to (and hashing like) the segment's
    :attr:`~repro.net.packet.TcpSegment.flow_key`, so per-packet code
    looks flows up by that plain key and builds a ``FlowId`` once per
    flow.
    """

    client_ip: str
    client_port: int
    server_ip: str
    server_port: int

    def __str__(self) -> str:
        return (
            f"{self.client_ip}:{self.client_port}->"
            f"{self.server_ip}:{self.server_port}"
        )


def segment_request(
    payload: bytes,
    flow: FlowId,
    timestamp: float,
    isn: int = 1,
    mss: int = DEFAULT_MSS,
    with_handshake: bool = True,
) -> list[Frame]:
    """Turn request bytes into SYN + data segments + FIN frames.

    Only the client→server direction is emitted — DiffAudit audits data
    *leaving* the device (paper §3.2).
    """
    frames: list[Frame] = []
    eth = EthernetHeader()
    seq = isn

    def make_frame(tcp: TcpHeader, data: bytes, offset_us: int) -> Frame:
        ip = Ipv4Header(src=flow.client_ip, dst=flow.server_ip)
        return Frame(
            timestamp=timestamp + offset_us * 1e-6,
            eth=eth,
            ip=ip,
            tcp=tcp,
            payload=data,
        )

    step = 0
    if with_handshake:
        frames.append(
            make_frame(
                TcpHeader(
                    src_port=flow.client_port,
                    dst_port=flow.server_port,
                    seq=seq,
                    flags=TcpHeader.FLAG_SYN,
                ),
                b"",
                step,
            )
        )
        seq += 1  # SYN consumes one sequence number
        step += 1

    for start in range(0, len(payload), mss):
        chunk = payload[start : start + mss]
        frames.append(
            make_frame(
                TcpHeader(
                    src_port=flow.client_port,
                    dst_port=flow.server_port,
                    seq=seq,
                    flags=TcpHeader.FLAG_PSH | TcpHeader.FLAG_ACK,
                ),
                chunk,
                step,
            )
        )
        seq += len(chunk)
        step += 1

    if with_handshake:
        frames.append(
            make_frame(
                TcpHeader(
                    src_port=flow.client_port,
                    dst_port=flow.server_port,
                    seq=seq,
                    flags=TcpHeader.FLAG_FIN | TcpHeader.FLAG_ACK,
                ),
                b"",
                step,
            )
        )
    return frames


@dataclass
class _FlowState:
    flow: FlowId
    isn: int | None = None
    # seq -> payload for segments *beyond* the compacted prefix; values
    # may be zero-copy views into the capture buffer (they are copied
    # exactly once, into the reassembly bytearray, when compacted).
    segments: dict[int, "bytes | memoryview"] = field(default_factory=dict)
    first_timestamp: float = 0.0
    finished: bool = False
    # Contiguous prefix already compacted out of ``segments``, held
    # until ``drain_ready`` hands it downstream or ``pop_flow`` ends
    # the flow.
    assembled: bytearray = field(default_factory=bytearray)
    expected: int | None = None  # next seq after the compacted prefix
    pending: int = 0  # payload bytes currently held in ``segments``
    # Seq keys whose first copy was already compacted away, so a later
    # copy of the same seq (even a longer one) is still dropped: the
    # first copy of a seq wins.
    consumed: set[int] = field(default_factory=set)
    last_activity: float = 0.0  # stream time of the last segment
    lru_tick: int = 0  # arrival counter, for LRU eviction


@dataclass
class ReassembledFlow:
    """One client→server byte stream recovered from segments."""

    flow: FlowId
    data: bytes
    first_timestamp: float
    complete: bool


class TcpReassembler:
    """Order-tolerant reassembly of client→server streams.

    Duplicate segments are dropped by sequence number; overlapping
    retransmissions keep the first copy (sufficient for the simulated
    link, which never corrupts payloads).  Holes mark a flow incomplete
    rather than raising — real traces are messy and the paper includes
    undecryptable/partial traffic in its counts.

    After each :meth:`add_segment`, the newly contiguous prefix of the
    segment's flow is available from :meth:`drain_ready` (and is
    *released* from the reassembler, so memory holds only out-of-order
    segments and undrained bytes).  :meth:`pop_flow` finalizes one flow
    — remaining segments are walked in seq order with the same
    first-copy-wins / overlap-trim rules, holes jumped — and forgets
    it; without draining, it returns the whole stream.  :meth:`flows`
    shows every flow that way without finalizing any.
    :meth:`buffered_bytes`, :meth:`idle_flows` and :meth:`lru_flow`
    support the streaming decoder's idle-timeout + byte-budget
    eviction.  Draining as segments arrive and popping once at the end
    give the same bytes; the one assumption is a single ISN per flow
    (a duplicated SYN is fine, a *conflicting* one is degenerate).

    Flows are keyed by the segment's plain ``flow_key`` tuple (a
    :class:`FlowId` compares equal to it), so the per-segment path
    builds no ``FlowId``.
    """

    def __init__(self) -> None:
        self._flows: dict[tuple[str, int, str, int], _FlowState] = {}
        self._buffered = 0  # payload bytes held across all flows
        self._tick = 0  # arrival counter for LRU bookkeeping

    def add_frame(self, frame: Frame) -> None:
        """Feed one fully decoded :class:`Frame` (general-purpose API)."""
        self.add_segment(
            TcpSegment(
                timestamp=frame.timestamp,
                src_ip=frame.ip.src,
                src_port=frame.tcp.src_port,
                dst_ip=frame.ip.dst,
                dst_port=frame.tcp.dst_port,
                seq=frame.tcp.seq,
                flags=frame.tcp.flags,
                payload=frame.payload,
            )
        )

    def add_segment(self, segment: TcpSegment) -> None:
        """Feed one decode-path :class:`TcpSegment` (the hot path)."""
        _SEGMENTS.inc()
        key = segment.flow_key
        state = self._flows.get(key)
        if state is None:
            flow = FlowId(*key)
            state = self._flows[flow] = _FlowState(flow)
        if not state.segments and state.isn is None and not state.assembled:
            state.first_timestamp = segment.timestamp
        state.first_timestamp = min(
            state.first_timestamp or segment.timestamp, segment.timestamp
        )
        state.last_activity = segment.timestamp
        self._tick += 1
        state.lru_tick = self._tick
        if segment.flags & TcpHeader.FLAG_SYN:
            state.isn = segment.seq
            if state.expected is None:
                state.expected = segment.seq + 1
                self._compact(state)
            return
        if segment.flags & TcpHeader.FLAG_FIN:
            state.finished = True
        if segment.payload:
            if segment.seq in state.segments or segment.seq in state.consumed:
                return  # duplicate seq: the first copy wins
            if state.expected is not None and (
                segment.seq + len(segment.payload) <= state.expected
            ):
                # Entirely covered by the compacted prefix — it trims
                # to nothing; remember the seq so a later same-seq copy
                # is still treated as a duplicate.
                state.consumed.add(segment.seq)
                return
            state.segments[segment.seq] = segment.payload
            state.pending += len(segment.payload)
            self._buffered += len(segment.payload)
            _PAYLOAD_BYTES.inc(len(segment.payload))
            self._compact(state)

    def _compact(self, state: _FlowState) -> None:
        """Move the contiguous in-order prefix into ``assembled``.

        Applies the reassembly rules — first copy wins, overlaps
        trimmed against ``expected`` — but never jumps a hole: bytes
        past a gap wait in ``segments`` until the gap fills or the flow
        is finalized.
        """
        if state.expected is None:
            return
        while state.segments:
            seq = min(state.segments)
            if seq > state.expected:
                return  # hole — a later segment may still fill it
            data = state.segments.pop(seq)
            state.consumed.add(seq)
            size = len(data)
            state.pending -= size
            overlap = state.expected - seq
            if overlap >= size:
                self._buffered -= size
                continue  # full duplicate
            if overlap:
                data = data[overlap:]
            state.assembled += data
            self._buffered -= size - len(data)
            state.expected += len(data)
        if len(state.consumed) > _CONSUMED_LIMIT:
            # A long-lived flow would otherwise accumulate one entry
            # per segment forever — unbounded memory that the byte
            # budget cannot see.  Keep only the recent window.
            horizon = state.expected - _CONSUMED_WINDOW
            state.consumed = {seq for seq in state.consumed if seq >= horizon}

    def flows(self) -> list[ReassembledFlow]:
        """Every tracked flow's undrained stream, in first-seen order,
        without finalizing any of them."""
        return [self._reassembled(state) for state in self._flows.values()]

    def _reassembled(self, state: _FlowState) -> ReassembledFlow:
        tail, complete = self._tail(state)
        return ReassembledFlow(
            flow=state.flow,
            data=bytes(state.assembled) + tail,
            first_timestamp=state.first_timestamp,
            complete=complete and state.finished,
        )

    @staticmethod
    def _tail(state: _FlowState) -> tuple[bytes, bool]:
        """Assemble everything past the compacted prefix — O(n log n).

        The finalize-time walk: remaining out-of-order segments are
        visited in seq order with the same trimming rules, and holes
        are jumped (marking the flow incomplete).
        """
        if not state.segments:
            return b"", True
        expected = state.expected
        if expected is None:
            expected = (
                state.isn + 1 if state.isn is not None else min(state.segments)
            )
        buffer = bytearray()
        complete = True
        for seq in sorted(state.segments):
            data = state.segments[seq]
            if seq > expected:
                complete = False  # hole
            elif seq < expected:
                overlap = expected - seq
                if overlap >= len(data):
                    continue  # full duplicate
                data = data[overlap:]
                seq = expected
            buffer += data
            expected = seq + len(data)
        return bytes(buffer), complete

    def drain_ready(self, flow: FlowId) -> "bytearray | bytes":
        """Take (and release) a flow's newly contiguous bytes.

        Returns ``b""`` when nothing new is contiguous, else the
        flow's reassembly buffer itself, handed over rather than
        copied: the caller owns it.  A later :meth:`pop_flow` returns
        only what arrived after the drain, so the caller owns feeding
        drained bytes onward in order.
        """
        state = self._flows.get(flow)
        if state is None or not state.assembled:
            return b""
        out = state.assembled
        state.assembled = bytearray()
        self._buffered -= len(out)
        return out

    def pop_flow(self, flow: FlowId) -> ReassembledFlow:
        """Finalize one flow and forget it.

        ``data`` is everything not yet drained: the undrained
        compacted prefix plus the finalize-time walk over remaining
        out-of-order segments (holes jumped).
        """
        state = self._flows.pop(flow)
        self._buffered -= len(state.assembled) + state.pending
        return self._reassembled(state)

    def buffered_bytes(self) -> int:
        """Payload bytes currently held (undrained prefix + pending)."""
        return self._buffered

    def flow_ids(self) -> list[FlowId]:
        """Tracked flows in first-seen order."""
        return [state.flow for state in self._flows.values()]

    def idle_flows(self, now: float, timeout: float) -> list[FlowId]:
        """Flows with no segment for ``timeout`` stream-time seconds."""
        return [
            state.flow
            for state in self._flows.values()
            if now - state.last_activity > timeout
        ]

    def lru_flow(self) -> FlowId | None:
        """The least recently active flow (byte-budget eviction victim)."""
        if not self._flows:
            return None
        return min(self._flows.values(), key=lambda state: state.lru_tick).flow

    def __len__(self) -> int:
        return len(self._flows)
