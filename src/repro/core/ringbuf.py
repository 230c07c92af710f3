"""Single-producer single-consumer result rings for multicore workers.

Each multicore worker owns one ring back to the parent: the worker
writes length-prefixed frames, the parent drains bytes incrementally
and reassembles frames as they complete. The ring is a pure byte pipe —
framing lives in :func:`pack_frame`/:class:`FrameParser` above it — so
a frame larger than the ring's capacity still flows: the writer blocks
in chunks while the reader drains concurrently.

Two transports behind one ``write(bytes)`` / ``read() -> bytes``
interface:

- :class:`ShmRing` — a ``multiprocessing.shared_memory`` circular
  buffer with reader/writer byte cursors in a 16-byte header. The
  single-writer/single-reader discipline means no locks: the writer
  only advances ``tail``, the reader only advances ``head``, and each
  reads the other's cursor to compute free/available space (aligned
  8-byte loads/stores, one direction of staleness each — a stale read
  only *under*-estimates what can be moved, never corrupts).
- :class:`PipeRing` — a ``multiprocessing.Pipe`` fallback for
  platforms without POSIX shared memory; chunks arrive pre-framed by
  the OS pipe and are concatenated back into the byte stream.

``create_ring(kind)`` builds the parent end; its ``child_handle()`` is
a small picklable descriptor the worker turns back into a writer with
``open_child_ring``.
"""

from __future__ import annotations

import struct
import time

__all__ = [
    "KIND_OUTCOME_COMPACT",
    "KIND_OUTCOME_PICKLE",
    "KIND_ERROR",
    "pack_frame",
    "FrameParser",
    "ShmRing",
    "PipeRing",
    "create_ring",
    "open_child_ring",
]

#: Frame kinds (the u16 in every frame header).
KIND_OUTCOME_COMPACT = 1  #: codec-packed ShardOutcome
KIND_OUTCOME_PICKLE = 2   #: pickled ShardOutcome (non-compact state)
KIND_ERROR = 3            #: pickled (index, workers, seed, message)

_FRAME_HEADER = struct.Struct("<IH")  # payload length, kind
_CURSOR = struct.Struct("<Q")

#: Default ring capacity. Compact outcomes are a few KB; pickled
#: streaming outcomes fit comfortably; batch-mode outcomes stream
#: through in chunks while the parent drains.
DEFAULT_CAPACITY = 1 << 20


def pack_frame(kind: int, payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(payload), kind) + payload


class FrameParser:
    """Reassembles frames from an incrementally drained byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Absorb ``data``; return every frame completed by it."""
        if data:
            self._buffer += data
        frames: list[tuple[int, bytes]] = []
        buffer = self._buffer
        pos = 0
        header_size = _FRAME_HEADER.size
        while len(buffer) - pos >= header_size:
            length, kind = _FRAME_HEADER.unpack_from(buffer, pos)
            end = pos + header_size + length
            if len(buffer) < end:
                break
            frames.append((kind, bytes(buffer[pos + header_size:end])))
            pos = end
        if pos:
            del buffer[:pos]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes of an incomplete frame still waiting for their tail."""
        return len(self._buffer)


class ShmRing:
    """Shared-memory SPSC byte ring (parent reads, one worker writes)."""

    _HEADER = 16  # u64 head (reader cursor) + u64 tail (writer cursor)

    def __init__(self, shm, capacity: int, owner: bool) -> None:
        self._shm = shm
        self._capacity = capacity
        self._owner = owner
        self._buf = shm.buf

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> "ShmRing":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            create=True, size=cls._HEADER + capacity
        )
        shm.buf[:cls._HEADER] = bytes(cls._HEADER)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pre-3.13: no track flag; unregister by hand
            shm = shared_memory.SharedMemory(name=name)
            # Only needed when this process runs its own resource
            # tracker (spawn/forkserver), which would otherwise unlink
            # the segment at child exit while the parent still owns it.
            # Under fork the tracker is the parent's: the attach was a
            # set re-add there, and unregistering would delete the
            # parent's own registration out from under its unlink.
            import multiprocessing

            if multiprocessing.get_start_method(allow_none=True) != "fork":
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
        return cls(shm, capacity, owner=False)

    def child_handle(self) -> tuple:
        return ("shm", self._shm.name, self._capacity)

    # -- cursors ---------------------------------------------------------

    def _head(self) -> int:
        return _CURSOR.unpack_from(self._buf, 0)[0]

    def _tail(self) -> int:
        return _CURSOR.unpack_from(self._buf, 8)[0]

    # -- data path -------------------------------------------------------

    def write(self, data: bytes, timeout: float = 60.0) -> None:
        """Append ``data``, blocking in chunks while the ring is full."""
        view = memoryview(data)
        capacity = self._capacity
        buf = self._buf
        header = self._HEADER
        tail = self._tail()
        deadline = time.monotonic() + timeout
        offset = 0
        remaining = len(view)
        while remaining:
            free = capacity - (tail - self._head())
            if free == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "result ring full for too long (reader gone?)"
                    )
                time.sleep(0.0005)
                continue
            chunk = min(free, remaining)
            pos = tail % capacity
            first = min(chunk, capacity - pos)
            buf[header + pos:header + pos + first] = view[
                offset:offset + first
            ]
            if chunk > first:
                buf[header:header + chunk - first] = view[
                    offset + first:offset + chunk
                ]
            tail += chunk
            _CURSOR.pack_into(buf, 8, tail)
            offset += chunk
            remaining -= chunk

    def read(self) -> bytes:
        """Drain every byte currently available (non-blocking)."""
        head = self._head()
        available = self._tail() - head
        if available == 0:
            return b""
        capacity = self._capacity
        buf = self._buf
        header = self._HEADER
        pos = head % capacity
        first = min(available, capacity - pos)
        data = bytes(buf[header + pos:header + pos + first])
        if available > first:
            data += bytes(buf[header:header + available - first])
        _CURSOR.pack_into(buf, 0, head + available)
        return data

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._buf = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class PipeRing:
    """Pipe-backed fallback ring (chunks pre-framed by the OS)."""

    def __init__(self, reader=None, writer=None) -> None:
        if reader is None and writer is None:
            import multiprocessing

            reader, writer = multiprocessing.Pipe(duplex=False)
        self._reader = reader
        self._writer = writer

    def child_handle(self) -> tuple:
        return ("pipe", self._writer)

    def write(self, data: bytes, timeout: float = 60.0) -> None:
        self._writer.send_bytes(data)

    def read(self) -> bytes:
        chunks: list[bytes] = []
        reader = self._reader
        while reader is not None and reader.poll(0):
            try:
                chunks.append(reader.recv_bytes())
            except EOFError:
                break
        return b"".join(chunks)

    def close_writer(self) -> None:
        """Parent-side: drop the write end so EOF can propagate."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def close(self) -> None:
        for end in (self._reader, self._writer):
            if end is not None:
                try:
                    end.close()
                except OSError:  # pragma: no cover - double close
                    pass
        self._reader = self._writer = None


def shared_memory_available() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms
        return False
    return True


def create_ring(kind: str = "auto", capacity: int = DEFAULT_CAPACITY):
    """Build the parent end of a worker result ring.

    ``kind``: ``"shm"`` forces shared memory, ``"pipe"`` forces the
    pipe fallback, ``"auto"`` prefers shared memory when the platform
    has it.
    """
    if kind not in ("auto", "shm", "pipe"):
        raise ValueError(f"unknown ring kind: {kind!r}")
    if kind == "pipe" or (kind == "auto" and not shared_memory_available()):
        return PipeRing()
    return ShmRing.create(capacity)


def open_child_ring(handle):
    """Turn a ``child_handle()`` descriptor back into a writer."""
    tag = handle[0]
    if tag == "shm":
        return ShmRing.attach(handle[1], handle[2])
    if tag == "pipe":
        return PipeRing(reader=None, writer=handle[1])
    raise ValueError(f"unknown ring handle: {handle!r}")
