"""Structured span tracing of campaign phases.

A :class:`Tracer` records phases of a campaign — universe walk, world
build, shard execution, merge, zone installs, fault windows — as
nested *spans* carrying both clocks: simulated seconds (where the
phase sits inside the scan) and wall-clock seconds (what it actually
cost the machine). Spans nest through an explicit stack, so a span
opened inside another becomes its child; the JSON export is a flat
list with ``parent`` references, the shape trace viewers expect.

Per-shard tracers run in worker processes; their finished spans ride
home on the :class:`~repro.telemetry.hub.TelemetrySnapshot` and are
re-parented under the parent campaign's ``shards`` span at merge time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Iterator


@dataclasses.dataclass
class SpanRecord:
    """One finished (or still-open) span, plain data."""

    span_id: int
    parent_id: int | None
    name: str
    start_sim: float
    end_sim: float | None = None
    start_wall: float = 0.0
    end_wall: float | None = None
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def sim_duration(self) -> float | None:
        if self.end_sim is None:
            return None
        return self.end_sim - self.start_sim

    @property
    def wall_duration(self) -> float | None:
        if self.end_wall is None:
            return None
        return self.end_wall - self.start_wall

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "meta": dict(self.meta),
        }


class Tracer:
    """Span recorder for one process.

    ``clock`` supplies the simulated time; it defaults to a constant 0
    and is repointed at the live network once one exists (the campaign
    builds its network *inside* its outermost span).
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _allocate(self, name: str, meta: dict) -> SpanRecord:
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_sim=self.clock(),
            start_wall=time.perf_counter(),
            meta=meta,
        )
        self._next_id += 1
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str, **meta) -> Iterator[SpanRecord]:
        """Open a child span of whatever span is currently open."""
        record = self._allocate(name, meta)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            self.finish(record)

    def start(self, name: str, **meta) -> SpanRecord:
        """Open a child span that later spans do not nest under.

        For work that runs beside its siblings, such as a forked side
        job: the span stays off the stack until :meth:`finish` closes
        it, so spans opened meanwhile keep their own parents.
        """
        return self._allocate(name, meta)

    def finish(self, record: SpanRecord) -> None:
        """Close a span opened by :meth:`start`."""
        record.end_sim = self.clock()
        record.end_wall = time.perf_counter()

    def add_span(
        self,
        name: str,
        start_sim: float,
        end_sim: float,
        **meta,
    ) -> SpanRecord:
        """Record an already-elapsed simulated interval (e.g. a zone
        install window or a fault-plan latency spike) as a closed child
        span. Wall clock start==end: the interval existed in simulated
        time only."""
        record = self._allocate(name, meta)
        record.start_sim = start_sim
        record.end_sim = end_sim
        now_wall = record.start_wall
        record.end_wall = now_wall
        return record

    def adopt(
        self, spans: list[SpanRecord] | list[dict], **extra_meta
    ) -> None:
        """Graft a child tracer's spans (e.g. one shard's) under the
        currently open span, re-numbering ids so they stay unique."""
        offset = self._next_id
        parent = self._stack[-1] if self._stack else None
        for span in spans:
            if isinstance(span, SpanRecord):
                span = span.to_dict()
            record = SpanRecord(
                span_id=span["span_id"] + offset,
                parent_id=(
                    span["parent"] + offset
                    if span["parent"] is not None else parent
                ),
                name=span["name"],
                start_sim=span["start_sim"],
                end_sim=span["end_sim"],
                start_wall=span["start_wall"],
                end_wall=span["end_wall"],
                meta={**span["meta"], **extra_meta},
            )
            self.spans.append(record)
            if record.span_id >= self._next_id:
                self._next_id = record.span_id + 1

    def export(self) -> list[dict]:
        """The flat JSON-ready span list (insertion order)."""
        return [span.to_dict() for span in self.spans]
