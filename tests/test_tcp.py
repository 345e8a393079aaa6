"""Unit and property tests for TCP segmentation and reassembly."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import TcpHeader, TcpSegment
from repro.net.tcp import DEFAULT_MSS, FlowId, TcpReassembler, segment_request

FLOW = FlowId(client_ip="10.0.0.1", client_port=40000, server_ip="34.0.0.1", server_port=443)


class TestSegmentation:
    def test_small_payload_three_frames(self):
        frames = segment_request(b"hello", FLOW, timestamp=0.0)
        # SYN + one data segment + FIN
        assert len(frames) == 3
        assert frames[0].tcp.flags & TcpHeader.FLAG_SYN
        assert frames[-1].tcp.flags & TcpHeader.FLAG_FIN

    def test_large_payload_segmented_at_mss(self):
        payload = b"x" * (DEFAULT_MSS * 2 + 10)
        frames = segment_request(payload, FLOW, timestamp=0.0)
        data_frames = [f for f in frames if f.payload]
        assert len(data_frames) == 3
        assert all(len(f.payload) <= DEFAULT_MSS for f in data_frames)

    def test_sequence_numbers_contiguous(self):
        payload = b"a" * 3000
        frames = segment_request(payload, FLOW, timestamp=0.0, isn=100)
        data_frames = [f for f in frames if f.payload]
        expected = 101  # ISN + 1 for SYN
        for frame in data_frames:
            assert frame.tcp.seq == expected
            expected += len(frame.payload)

    def test_without_handshake(self):
        frames = segment_request(b"abc", FLOW, timestamp=0.0, with_handshake=False)
        assert all(f.payload for f in frames)

    def test_timestamps_increase(self):
        frames = segment_request(b"x" * 5000, FLOW, timestamp=10.0)
        stamps = [f.timestamp for f in frames]
        assert stamps == sorted(stamps)
        assert stamps[0] >= 10.0


class TestReassembly:
    def reassemble(self, frames):
        reassembler = TcpReassembler()
        for frame in frames:
            reassembler.add_frame(frame)
        return [reassembler.pop_flow(flow) for flow in reassembler.flow_ids()]

    def test_in_order(self):
        payload = b"the quick brown fox" * 200
        flows = self.reassemble(segment_request(payload, FLOW, 0.0))
        assert len(flows) == 1
        assert flows[0].data == payload
        assert flows[0].complete

    def test_out_of_order(self):
        payload = b"0123456789" * 500
        frames = segment_request(payload, FLOW, 0.0)
        rng = random.Random(4)
        rng.shuffle(frames)
        flows = self.reassemble(frames)
        assert flows[0].data == payload
        assert flows[0].complete

    def test_duplicates_dropped(self):
        payload = b"abc" * 1000
        frames = segment_request(payload, FLOW, 0.0)
        flows = self.reassemble(frames + frames)
        assert flows[0].data == payload

    def test_hole_marks_incomplete(self):
        payload = b"z" * (DEFAULT_MSS * 3)
        frames = segment_request(payload, FLOW, 0.0)
        data_frames = [f for f in frames if f.payload]
        frames.remove(data_frames[1])  # drop the middle segment
        flows = self.reassemble(frames)
        assert not flows[0].complete
        assert len(flows[0].data) < len(payload)

    def test_two_flows_kept_separate(self):
        other = FlowId(
            client_ip="10.0.0.1",
            client_port=40001,
            server_ip="34.0.0.2",
            server_port=443,
        )
        frames = segment_request(b"first", FLOW, 0.0) + segment_request(
            b"second", other, 1.0
        )
        flows = self.reassemble(frames)
        assert len(flows) == 2
        assert {f.data for f in flows} == {b"first", b"second"}

    def test_flow_id_str(self):
        assert str(FLOW) == "10.0.0.1:40000->34.0.0.1:443"

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=8000), st.integers(0, 2**31))
    def test_shuffle_round_trip_property(self, payload, seed):
        frames = segment_request(payload, FLOW, 0.0)
        random.Random(seed).shuffle(frames)
        flows = self.reassemble(frames)
        assert flows[0].data == payload
        assert flows[0].complete

    def test_empty_reassembler(self):
        assert TcpReassembler().flow_ids() == []

    def test_len_counts_flows(self):
        reassembler = TcpReassembler()
        for frame in segment_request(b"x", FLOW, 0.0):
            reassembler.add_frame(frame)
        assert len(reassembler) == 1


def segment(seq: int, payload: bytes, flags: int = 0x18, ts: float = 0.0) -> TcpSegment:
    return TcpSegment(
        timestamp=ts,
        src_ip=FLOW.client_ip,
        src_port=FLOW.client_port,
        dst_ip=FLOW.server_ip,
        dst_port=FLOW.server_port,
        seq=seq,
        flags=flags,
        payload=payload,
    )


def impaired_segments(payload: bytes, seed: int) -> list[TcpSegment]:
    """SYN + MSS segments + FIN, plus seeded reorder / duplication /
    partial-overlap retransmissions carrying consistent stream bytes."""
    rng = random.Random(seed)
    isn = 1
    segments = [segment(isn, b"", flags=TcpHeader.FLAG_SYN)]
    offsets = list(range(0, len(payload), 700))
    for start in offsets:
        segments.append(segment(isn + 1 + start, payload[start : start + 700]))
    # Partial-overlap retransmissions: random ranges of the true
    # stream.  They avoid the originals' exact sequence numbers — a
    # *shorter* same-seq copy would shadow an original under the
    # first-copy-wins rule and legitimately leave a hole, which is a
    # loss scenario, not a recoverable-overlap one.
    for _ in range(rng.randint(0, 6)):
        start = rng.randrange(0, len(payload))
        if start % 700 == 0:
            start += 1
            if start >= len(payload):
                continue
        stop = min(len(payload), start + rng.randint(1, 1500))
        segments.append(segment(isn + 1 + start, payload[start:stop]))
    # Exact duplicates.
    for _ in range(rng.randint(0, 4)):
        segments.append(rng.choice(segments[1:]))
    segments.append(
        segment(isn + 1 + len(payload), b"", flags=TcpHeader.FLAG_FIN | TcpHeader.FLAG_ACK)
    )
    rng.shuffle(segments)
    return segments


class TestIncrementalReassembly:
    """Draining as segments arrive against one pop at the end."""

    def run_incremental(self, segments) -> tuple[bytes, bool, "TcpReassembler"]:
        reassembler = TcpReassembler()
        drained = bytearray()
        for item in segments:
            reassembler.add_segment(item)
            drained += reassembler.drain_ready(FLOW)
        flow = reassembler.pop_flow(FLOW)
        return bytes(drained) + flow.data, flow.complete, reassembler

    def run_batch(self, segments) -> tuple[bytes, bool]:
        reassembler = TcpReassembler()
        for item in segments:
            reassembler.add_segment(item)
        (flow_id,) = reassembler.flow_ids()
        flow = reassembler.pop_flow(flow_id)
        return flow.data, flow.complete

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=6000), st.integers(0, 2**31))
    def test_incremental_equals_batch_under_impairment(self, payload, seed):
        segments = impaired_segments(payload, seed)
        batch_data, batch_complete = self.run_batch(segments)
        inc_data, inc_complete, reassembler = self.run_incremental(segments)
        assert inc_data == batch_data
        assert inc_complete == batch_complete
        # Payload reconstruction is exact despite the impairment.
        assert batch_data == payload
        assert batch_complete
        # Everything was released: popping left no buffered bytes.
        assert reassembler.buffered_bytes() == 0
        assert len(reassembler) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=6000), st.integers(0, 2**31))
    def test_incremental_equals_batch_with_holes(self, payload, seed):
        rng = random.Random(seed)
        segments = impaired_segments(payload, seed)
        # Drop a random data segment outright: both paths must agree on
        # the (possibly incomplete) result, byte for byte.
        data_indexes = [i for i, s in enumerate(segments) if s.payload]
        if data_indexes:
            del segments[rng.choice(data_indexes)]
        batch_data, batch_complete = self.run_batch(segments)
        inc_data, inc_complete, _ = self.run_incremental(segments)
        assert inc_data == batch_data
        assert inc_complete == batch_complete

    def test_drain_releases_memory_as_stream_arrives(self):
        payload = b"m" * 50_000
        reassembler = TcpReassembler()
        high_water = 0
        drained = bytearray()
        for frame in segment_request(payload, FLOW, 0.0):
            reassembler.add_frame(frame)
            drained += reassembler.drain_ready(FLOW)
            high_water = max(high_water, reassembler.buffered_bytes())
        # In-order traffic drains continuously: the reassembler never
        # holds more than one segment's bytes at a time.
        assert high_water <= DEFAULT_MSS
        flow = reassembler.pop_flow(FLOW)
        assert bytes(drained) + flow.data == payload
        assert flow.complete

    def test_idle_and_lru_bookkeeping(self):
        other = FlowId(
            client_ip="10.0.0.9", client_port=1, server_ip="34.0.0.9", server_port=443
        )
        reassembler = TcpReassembler()
        reassembler.add_segment(segment(1, b"a", ts=10.0))
        reassembler.add_segment(
            TcpSegment(
                timestamp=200.0,
                src_ip=other.client_ip,
                src_port=other.client_port,
                dst_ip=other.server_ip,
                dst_port=other.server_port,
                seq=1,
                flags=0x18,
                payload=b"b",
            )
        )
        assert reassembler.idle_flows(now=200.0, timeout=60.0) == [FLOW]
        assert reassembler.lru_flow() == FLOW
        assert reassembler.flow_ids() == [FLOW, other]
        reassembler.pop_flow(FLOW)
        assert reassembler.lru_flow() == other
