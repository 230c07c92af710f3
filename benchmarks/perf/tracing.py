"""Per-layer timing of the program, installed from outside it.

:func:`install` wraps the public entry points of each layer — and the
scheduler callbacks through which control enters a layer — with timing
wrappers. Nothing under ``src/`` changes: each target is replaced on its
class, or, for a module-level function, on its defining module *and* on
every already-imported ``repro`` module that holds it under a global
name, because that global is where the caller looks it up (for example
``repro.dnssrv.recursive.decode_message``, not only
``repro.dnslib.wire.decode_message``). Modules imported later copy the
already-patched attribute.

A stack of active wrappers gives each layer its *self* time: a call's
duration minus the part covered by wrapped calls beneath it. Every
wrapped call also records a span (id, layer, start, end, parent id,
request id) in memory; call-level spans stop after :data:`SPAN_LIMIT`
per process so a long run cannot grow without bound, while phase-level
spans (campaign stages) are always kept. Spans are written out when the
run ends.

Forked campaign workers inherit the wrappers. The wrapper around the
worker entry point (``repro.core.multicore._worker_main``) notices the
new process, starts a clean record, and flushes it to the dump
directory when the worker returns — after the worker has encoded its
result frame, which happens outside ``run_shard``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import pathlib
import sys
import time

#: Call-level spans kept per process (phase spans are not capped).
SPAN_LIMIT = 20_000

PHASE = "phase"
WORKER_ENTRY = "worker_entry"
EVENTS = "events"
CACHE_HITS = "cache_hits"
REQUEST_ID = "request_id"

_ANALYSIS_MODULES = (
    "repro.analysis.correctness",
    "repro.analysis.empty_question",
    "repro.analysis.forwarders",
    "repro.analysis.headers",
    "repro.analysis.incorrect",
    "repro.analysis.malicious",
    "repro.analysis.summary",
)

#: (layer, module, attribute path, flags). Private names appear only
#: where the scheduler or socket loop calls into a layer through them.
TARGETS: tuple[tuple[str, str, str, frozenset], ...] = tuple(
    (layer, module, attr, frozenset(flags))
    for layer, module, attr, *flags in (
        ("netsim.scheduler", "repro.netsim.events", "Scheduler.run", EVENTS),
        ("netsim.scheduler", "repro.netsim.events", "Scheduler.run_batch", EVENTS),
        ("netsim.scheduler", "repro.netsim.events", "Scheduler.run_until", EVENTS),
        ("netsim.scheduler", "repro.netsim.network", "Network._deliver"),
        ("netsim.send", "repro.netsim.network", "Network.send"),
        ("prober", "repro.prober.probe", "Prober.run", PHASE),
        ("prober", "repro.prober.probe", "Prober._tick"),
        ("prober", "repro.prober.probe", "Prober._on_response"),
        ("prober", "repro.prober.probe", "Prober._maybe_retry"),
        ("resolvers.handle_query", "repro.resolvers.host", "BehaviorHost.handle_query"),
        ("resolvers.handle_upstream", "repro.resolvers.host", "BehaviorHost.handle_upstream"),
        ("core.world_build", "repro.prober.zmap", "probe_list", PHASE),
        ("core.world_build", "repro.resolvers.population", "PopulationSampler.sample", PHASE),
        ("core.world_build", "repro.resolvers.population", "SampledPopulation.deploy", PHASE),
        ("core.world_build", "repro.core.shard", "prime_shard_caches", PHASE),
        ("dnslib.message.decode", "repro.dnslib.wire", "decode_message"),
        ("dnslib.message.encode", "repro.dnslib.wire", "encode_message"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "build_query_wire"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "peek_header"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "peek_msg_id"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "peek_qname"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "parse_simple_query"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "peek_single_a_response"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "Q1Template.render"),
        ("dnslib.fastwire", "repro.dnslib.fastwire", "TemplateCache.render"),
        ("dnssrv.auth.handle", "repro.dnssrv.auth", "AuthoritativeServer.handle"),
        ("dnssrv.delegation.handle", "repro.dnssrv.delegation", "DelegationServer.handle"),
        ("dnssrv.recursive.handle_client", "repro.dnssrv.recursive",
         "RecursiveResolver.handle_client"),
        ("dnssrv.recursive.handle_upstream", "repro.dnssrv.recursive",
         "RecursiveResolver.handle_upstream"),
        ("dnssrv.cache.get", "repro.dnssrv.cache", "DnsCache.get", CACHE_HITS),
        ("dnssrv.cache.put", "repro.dnssrv.cache", "DnsCache.put"),
        ("dnssrv.cache.negative_put", "repro.dnssrv.recursive",
         "RecursiveResolver._store_negative"),
        ("transport.udp.recv", "repro.transport.socketio",
         "AsyncUdpTransport._on_readable"),
        ("transport.udp.recv", "repro.transport.socketio",
         "AsyncUdpTransport._dispatch", REQUEST_ID),
        ("transport.udp.send", "repro.transport.socketio", "AsyncUdpTransport.send"),
        ("stream.sink", "repro.stream.events", "CaptureSink.on_send"),
        ("stream.sink", "repro.stream.events", "CaptureSink.on_deliver"),
        ("stream.sink", "repro.stream.assembler", "FlowAssembler.on_q1"),
        ("stream.sink", "repro.stream.assembler", "FlowAssembler.on_forward"),
        ("stream.sink", "repro.stream.assembler", "FlowAssembler.on_query_served"),
        ("stream.sink", "repro.stream.assembler", "FlowAssembler.on_r2"),
        ("stream.finish", "repro.stream.pipeline", "StreamPipeline.finish", PHASE),
        ("stream.codec.encode", "repro.stream.codec", "encode_outcome", PHASE),
        ("stream.codec.decode", "repro.stream.codec", "decode_outcome", PHASE),
        ("analysis.join_flows", "repro.prober.capture", "join_flows", PHASE),
        ("analysis.measure", "repro.prober.capture", "FlowSet.views", PHASE),
        *(
            ("analysis.measure", module, "measure_*", PHASE)
            for module in _ANALYSIS_MODULES
        ),
        ("analysis.report", "repro.core.campaign", "CampaignResult.report", PHASE),
        ("dnssec.census", "repro.dnssec.validation", "run_validation_census", PHASE),
        ("core.campaign", "repro.core.campaign", "Campaign.run", PHASE),
        ("core.multicore.parent_wait", "repro.core.multicore", "run_multicore",
         PHASE),
        ("core.multicore.worker", "repro.core.multicore", "_worker_main",
         PHASE, WORKER_ENTRY),
        ("core.shard", "repro.core.shard", "run_shard", PHASE),
        ("core.merge", "repro.core.shard", "finalize_outcomes", PHASE),
    )
)


def _qname(payload: bytes) -> str | None:
    """The first question's name, read without the program's codec."""
    labels = []
    pos = 12
    try:
        while True:
            length = payload[pos]
            if length == 0 or length >= 0x40:
                break
            labels.append(payload[pos + 1:pos + 1 + length].decode("ascii", "replace"))
            pos += 1 + length
    except IndexError:
        return None
    return ".".join(labels) if labels else None


def _tally_events(tally, args, result) -> None:
    tally["netsim.events"] += result


def _tally_cache(tally, args, result) -> None:
    tally["dnssrv.cache.get.hits"] += result is not None


_TALLIES = {EVENTS: _tally_events, CACHE_HITS: _tally_cache}


class Tracer:
    """Call counts, self time, tallies and spans for one process."""

    def __init__(self, dump_dir: pathlib.Path | None = None) -> None:
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.stack: list[list] = []
        self.next_id = 0
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Start counting afresh (in-flight calls finish normally)."""
        self.calls: collections.Counter = collections.Counter()
        self.busy: collections.defaultdict = collections.defaultdict(float)
        self.tally: collections.Counter = collections.Counter()
        self.spans: list[tuple] = []
        self.hot_spans = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, fn, flags: frozenset = frozenset()):
        tracer = self
        clock = time.perf_counter
        phase = PHASE in flags
        tally = next((_TALLIES[flag] for flag in flags if flag in _TALLIES), None)
        request_id = REQUEST_ID in flags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            if request_id:
                rid = _qname(args[-1].payload)
            else:
                rid = parent[2] if parent is not None else None
            frame = [0.0, span_id, rid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.busy[layer] += elapsed - frame[0]
                tracer.calls[layer] += 1
                if parent is not None:
                    parent[0] += elapsed
                if phase or tracer.hot_spans < SPAN_LIMIT:
                    tracer.hot_spans += not phase
                    tracer.spans.append((
                        span_id, layer, start, end,
                        parent[1] if parent is not None else None, rid,
                    ))
            if tally is not None:
                tally(tracer.tally, args, result)
            return result

        if WORKER_ENTRY not in flags:
            return traced

        @functools.wraps(fn)
        def worker_entry(*args, **kwargs):
            forked = os.getpid() != tracer.pid
            if forked:  # a fresh worker: drop the parent's inherited record
                tracer.pid = os.getpid()
                tracer.stack = []
                tracer.reset()
            try:
                return traced(*args, **kwargs)
            finally:
                if forked and tracer.dump_dir is not None:
                    tracer.dump(tracer.dump_dir / f"worker-{tracer.pid}.json")

        return worker_entry

    # -- output ------------------------------------------------------------

    def record(self) -> dict:
        """This process's counters and spans as plain JSON data."""
        return {
            "pid": self.pid,
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "tally": dict(self.tally),
            "spans": self.spans,
            "missing": self.missing,
        }

    def dump(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps(self.record()))


def _resolve(module_name: str, attr: str):
    """(owner, name, current value) for ``attr`` in ``module_name``."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if path else getattr(owner, name)


def _expand(module_name: str, attr: str) -> list[str]:
    """Expand ``measure_*``-style patterns over a module's own functions."""
    if not attr.endswith("*"):
        return [attr]
    module = importlib.import_module(module_name)
    prefix = attr[:-1]
    return sorted(
        name for name, value in vars(module).items()
        if name.startswith(prefix) and callable(value)
        and getattr(value, "__module__", None) == module_name
    )


def install(dump_dir: pathlib.Path | None = None) -> Tracer:
    """Wrap every target in :data:`TARGETS`; returns the process tracer.

    Targets that no longer exist are skipped and listed in
    ``tracer.missing``, so the benchmark keeps running across refactors
    while the trace-coverage test reports the hole.
    """
    tracer = Tracer(dump_dir)
    plain: list[tuple[object, object]] = []  # (original, wrapper) functions
    for layer, module_name, pattern, flags in TARGETS:
        for attr in _expand(module_name, pattern):
            try:
                owner, name, value = _resolve(module_name, attr)
            except (ImportError, AttributeError, KeyError):
                tracer.missing.append(f"{module_name}:{attr}")
                continue
            if isinstance(owner, type):
                if isinstance(value, property):
                    setattr(owner, name, property(
                        tracer.wrap(layer, value.fget, flags),
                        value.fset, value.fdel, value.__doc__,
                    ))
                else:
                    setattr(owner, name, tracer.wrap(layer, value, flags))
            else:
                plain.append((value, tracer.wrap(layer, value, flags)))
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for original, wrapper in plain:
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = wrapper
    return tracer


def merge_records(records: list[dict]) -> dict:
    """Sum counters across processes; concatenate spans tagged by pid."""
    merged = {
        "calls": collections.Counter(),
        "busy": collections.defaultdict(float),
        "tally": collections.Counter(),
        "spans": [],
    }
    for record in records:
        merged["calls"].update(record["calls"])
        for layer, seconds in record["busy"].items():
            merged["busy"][layer] += seconds
        merged["tally"].update(record["tally"])
        merged["spans"].extend(
            [record["pid"], *span] for span in record["spans"]
        )
    return merged


def write_spans(path: pathlib.Path, merged: dict) -> None:
    """One JSON object per line: pid, id, name, start, end, parent, rid."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("pid", "id", "name", "start", "end", "parent", "rid")
    with path.open("w") as handle:
        for span in sorted(merged["spans"], key=lambda span: span[3]):
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
