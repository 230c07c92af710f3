"""Unit tests for the SPSC result rings and the frame layer.

The rings are byte pipes: framing correctness (partial delivery,
frames split across reads, frames larger than the ring) lives here so
the process-round tests can assume the transport and focus on
campaign semantics.
"""

import multiprocessing
import os
import threading

import pytest

from repro.core.ringbuf import (
    KIND_ERROR,
    KIND_OUTCOME_COMPACT,
    KIND_OUTCOME_PICKLE,
    FrameParser,
    PipeRing,
    ShmRing,
    create_ring,
    open_child_ring,
    pack_frame,
    shared_memory_available,
)


class TestFrameParser:
    def test_single_frame(self):
        parser = FrameParser()
        frames = parser.feed(pack_frame(KIND_OUTCOME_COMPACT, b"abc"))
        assert frames == [(KIND_OUTCOME_COMPACT, b"abc")]
        assert parser.pending_bytes == 0

    def test_byte_at_a_time_reassembly(self):
        parser = FrameParser()
        wire = pack_frame(KIND_ERROR, b"x" * 100)
        collected = []
        for i in range(len(wire)):
            collected += parser.feed(wire[i:i + 1])
        assert collected == [(KIND_ERROR, b"x" * 100)]

    def test_multiple_frames_one_read(self):
        parser = FrameParser()
        wire = pack_frame(1, b"a") + pack_frame(2, b"bb") + pack_frame(3, b"")
        assert parser.feed(wire) == [(1, b"a"), (2, b"bb"), (3, b"")]

    def test_partial_tail_stays_pending(self):
        parser = FrameParser()
        wire = pack_frame(KIND_OUTCOME_PICKLE, b"payload")
        assert parser.feed(wire[:-3]) == []
        assert parser.pending_bytes == len(wire) - 3
        assert parser.feed(wire[-3:]) == [(KIND_OUTCOME_PICKLE, b"payload")]


@pytest.mark.skipif(
    not shared_memory_available(), reason="no POSIX shared memory"
)
class TestShmRing:
    def test_round_trip_same_process(self):
        ring = ShmRing.create(capacity=256)
        try:
            writer = open_child_ring(ring.child_handle())
            writer.write(b"abc" * 10)
            assert ring.read() == b"abc" * 10
            assert ring.read() == b""
            writer.close()
        finally:
            ring.close()

    def test_wraparound(self):
        # Capacity 64: three 40-byte writes force the cursor past the
        # physical end twice; the byte stream must come out intact.
        ring = ShmRing.create(capacity=64)
        try:
            writer = open_child_ring(ring.child_handle())
            out = bytearray()
            for i in range(3):
                writer.write(bytes([i]) * 40)
                out += ring.read()
            writer.close()
            assert bytes(out) == b"\x00" * 40 + b"\x01" * 40 + b"\x02" * 40
        finally:
            ring.close()

    def test_oversized_write_flows_while_reader_drains(self):
        # A frame bigger than the ring streams through in chunks as
        # long as someone is draining the other end.
        ring = ShmRing.create(capacity=128)
        payload = os.urandom(1000)
        try:
            writer = open_child_ring(ring.child_handle())
            thread = threading.Thread(
                target=writer.write, args=(payload,), kwargs={"timeout": 10}
            )
            thread.start()
            out = bytearray()
            while len(out) < len(payload):
                out += ring.read()
            thread.join(timeout=10)
            assert not thread.is_alive()
            writer.close()
            assert bytes(out) == payload
        finally:
            ring.close()

    def test_full_ring_times_out_without_reader(self):
        ring = ShmRing.create(capacity=16)
        try:
            writer = open_child_ring(ring.child_handle())
            with pytest.raises(TimeoutError):
                writer.write(b"x" * 64, timeout=0.05)
            writer.close()
        finally:
            ring.close()

    def test_cross_process(self):
        ring = ShmRing.create(capacity=4096)
        try:
            proc = multiprocessing.Process(
                target=_shm_child, args=(ring.child_handle(),)
            )
            proc.start()
            parser = FrameParser()
            frames = []
            while len(frames) < 2:
                frames += parser.feed(ring.read())
            proc.join(timeout=10)
            assert proc.exitcode == 0
            assert frames == [(1, b"first"), (2, b"s" * 600)]
        finally:
            ring.close()


def _shm_child(handle):
    ring = open_child_ring(handle)
    ring.write(pack_frame(1, b"first"))
    ring.write(pack_frame(2, b"s" * 600))
    ring.close()


class TestPipeRing:
    def test_round_trip_same_process(self):
        ring = PipeRing()
        writer = open_child_ring(ring.child_handle())
        writer.write(b"chunk one")
        writer.write(b"chunk two")
        assert ring.read() == b"chunk onechunk two"
        ring.close()

    def test_cross_process(self):
        ring = PipeRing()
        proc = multiprocessing.Process(
            target=_pipe_child, args=(ring.child_handle(),)
        )
        proc.start()
        ring.close_writer()
        parser = FrameParser()
        frames = []
        while len(frames) < 1:
            frames += parser.feed(ring.read())
        proc.join(timeout=10)
        assert frames == [(3, b"pipe payload")]
        ring.close()


def _pipe_child(handle):
    ring = open_child_ring(handle)
    ring.write(pack_frame(3, b"pipe payload"))


class TestCreateRing:
    def test_kinds(self):
        assert isinstance(create_ring("pipe"), PipeRing)
        if shared_memory_available():
            ring = create_ring("shm")
            assert isinstance(ring, ShmRing)
            ring.close()
            auto = create_ring("auto")
            assert isinstance(auto, ShmRing)
            auto.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            create_ring("carrier-pigeon")
