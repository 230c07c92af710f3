"""``repro serve`` — the live-wire DNS serving daemon.

Runs any resolver profile from the study on a real UDP port. The
serving objects are the *same classes* the simulator drives — the
transport seam (:mod:`repro.transport.base`) is the only thing that
changes — so a query answered on loopback is byte-for-byte the answer
the golden-table simulations produce for the same zone fixture.

Profiles:

``recursive``
    A standard-conformant :class:`~repro.dnssrv.recursive
    .RecursiveResolver` in front of a private root/TLD/authoritative
    hierarchy (Fig 1 of the paper, entirely in-process). The PR-7
    defense knobs — RRL, per-client quotas, negative caching, load
    shedding, glueless fan-out caps — are all wireable.
``forwarder``
    A :class:`~repro.dnssrv.forwarder.ForwardingResolver` (the CPE
    proxy) relaying to a hidden recursive upstream.
``transparent``
    A :class:`~repro.resolvers.host.BehaviorHost` in TRANSPARENT mode:
    the query is relayed upstream *with the client's source address
    preserved*, so the answer arrives off-path — from an IP the client
    never queried. On real sockets the spoofed leg is delivered
    in-process (see :mod:`repro.transport.socketio`); the off-path
    reply then travels the real wire.
``dnssec``
    A validating resolver (RESOLVE-mode behavior host with RRSIG
    checking) over a :class:`~repro.dnssec.validation
    .SigningAuthoritativeServer`: ``valid.dnssec-validation.<sld>``
    answers, ``bogus...`` SERVFAILs.

The private hierarchy lives on ``127.77.0.x`` loopback addresses
(Linux answers for all of ``127.0.0.0/8``) at one shared auto-picked
port, so the daemon needs no privileges and no configuration to start.

The daemon drains gracefully: SIGTERM/SIGINT unbinds the client-facing
port, lets in-flight resolutions finish (bounded by ``drain_grace``),
folds every component's counters into a :class:`~repro.telemetry
.MetricsRegistry`, writes the ``--metrics-out`` document, and exits 0.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import pathlib
import signal
import socket
import threading
from typing import Callable

from repro.dnslib.zone import Zone
from repro.dnssrv.auth import AuthoritativeServer
from repro.dnssrv.delegation import Delegation, DelegationServer
from repro.dnssrv.forwarder import ForwardingResolver
from repro.dnssrv.ratelimit import ClientQueryQuota, ResponseRateLimiter
from repro.dnssrv.recursive import RecursiveResolver
from repro.dnssec.validation import (
    SigningAuthoritativeServer,
    build_validation_zone,
)
from repro.policy.config import build_policy
from repro.policy.engine import PolicyEngine
from repro.policy.report import render_policy_decisions
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import BehaviorHost
from repro.telemetry.hub import TelemetryHub
from repro.transport.base import Endpoint, Listener, Transport
from repro.transport.socketio import AsyncUdpTransport

PROFILES = ("recursive", "forwarder", "transparent", "dnssec")

#: Private loopback addresses for the in-daemon hierarchy. 127.0.0.0/8
#: is entirely local on Linux, so these bind without configuration and
#: never leave the machine.
ROOT_IP = "127.77.0.1"
TLD_IP = "127.77.0.2"
AUTH_IP = "127.77.0.3"
UPSTREAM_IP = "127.77.0.4"

#: The measurement SLD the fixture zone serves.
DEFAULT_SLD = "ucfsealresearch.net"

#: (relative name, address) pairs every profile's zone fixture carries.
#: Interop tests and the CI job resolve these; keep them stable.
FIXTURE_RECORDS = (
    ("www", "203.0.113.80"),
    ("api", "203.0.113.81"),
    ("mail", "203.0.113.82"),
)


def build_serve_zone(sld: str = DEFAULT_SLD) -> Zone:
    """The fixture zone: the same records on every backend."""
    zone = Zone(sld)
    for label, address in FIXTURE_RECORDS:
        zone.add_a(f"{label}.{sld}", address)
    return zone


def _pick_free_port() -> int:
    """Ask the OS for a currently-free UDP port (the shared infra port)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to build one serving world.

    ``port=0`` binds an ephemeral client-facing port (read it from the
    ready file or :attr:`DnsService.endpoint`). ``infra_port=0``
    auto-picks the shared hierarchy port on socket backends and uses 53
    on the simulator. The defense knobs mirror the recursive resolver's
    constructor; zero/None disables each.

    The policy knobs (``policy_file``, ``block``, ``sinkhole``,
    ``zone_route``, ``sinkhole_ip``) merge into one
    :class:`~repro.policy.config.PolicyConfig` via
    :func:`~repro.policy.config.build_policy`; all empty means no
    engine is built and the serving paths are byte-identical to a
    policy-less build. ``eviction_horizon`` bounds how long the
    forwarder profile remembers an unanswered upstream relay.
    """

    profile: str = "recursive"
    ip: str = "127.0.0.1"
    port: int = 5300
    sld: str = DEFAULT_SLD
    infra_port: int = 0
    rate_limit: float = 0.0
    quota: float = 0.0
    negative_ttl: float = 0.0
    max_pending: int | None = None
    max_glueless: int = 0
    timeout: float = 2.0
    drain_grace: float = 3.0
    eviction_horizon: float = 10.0
    policy_file: str | None = None
    block: tuple[str, ...] = ()
    sinkhole: tuple[str, ...] = ()
    zone_route: tuple[str, ...] = ()
    sinkhole_ip: str | None = None
    metrics_out: str | None = None
    ready_file: str | None = None

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r} (known: {', '.join(PROFILES)})"
            )
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be non-negative")
        if self.eviction_horizon <= 0:
            raise ValueError("eviction_horizon must be positive")

    def build_policy_engine(self) -> PolicyEngine | None:
        """The front's policy engine, or None when nothing is configured."""
        policy = build_policy(
            policy_file=self.policy_file,
            block=self.block,
            sinkhole=self.sinkhole,
            zone_route=self.zone_route,
            sinkhole_ip=self.sinkhole_ip,
        )
        return PolicyEngine(policy) if policy is not None else None


@dataclasses.dataclass
class ServingWorld:
    """One assembled profile: the servers, the front object, the drain
    hooks. Built identically on every backend — the sim≡socket interop
    tests rely on that."""

    config: ServeConfig
    transport: Transport
    front: RecursiveResolver | ForwardingResolver | BehaviorHost
    listener: Listener | None
    auth: AuthoritativeServer
    root: DelegationServer
    tld: DelegationServer
    upstream: RecursiveResolver | None = None
    infra_port: int = 0
    policy: PolicyEngine | None = None

    @property
    def endpoint(self) -> Endpoint | None:
        return self.listener.endpoint if self.listener is not None else None

    def pending(self) -> int:
        """In-flight work across every component (the drain gate)."""
        total = int(self.front.pending_count)
        if self.upstream is not None:
            total += self.upstream.pending_count
        return total

    # -- metrics ---------------------------------------------------------

    def fold_metrics(self, hub: TelemetryHub) -> None:
        """Fold every component's lifetime counters into the registry."""
        registry = hub.registry
        front = self.front
        if isinstance(front, RecursiveResolver):
            self._fold_resolver(registry, "serve", front)
        elif isinstance(front, ForwardingResolver):
            registry.counter("serve.client_queries").inc(front.forwarded)
            registry.counter("serve.answered").inc(front.relayed)
        else:  # BehaviorHost
            registry.counter("serve.client_queries").inc(
                front.queries_received
            )
            registry.counter("serve.answered").inc(front.responses_sent)
        if isinstance(front, ForwardingResolver):
            registry.counter("serve.answered_locally").inc(front.answered_locally)
            registry.counter("serve.evicted").inc(front.evicted)
            registry.counter("serve.txid_collisions").inc(front.txid_collisions)
            registry.counter("serve.txid_exhausted").inc(front.txid_exhausted)
        if self.upstream is not None:
            self._fold_resolver(registry, "serve.upstream", self.upstream)
        if self.policy is not None:
            stats = self.policy.stats
            for name in (
                "evaluated", "allowed", "refused", "nxdomain",
                "sinkholed", "routed", "rewritten",
            ):
                registry.counter(f"policy.{name}").inc(getattr(stats, name))
            for rule, action, count in self.policy.decision_rows():
                registry.counter(f"policy.decision.{rule}.{action}").inc(count)
        registry.counter("auth.queries_served").inc(self.auth.queries_served)
        registry.counter("serve.referrals_served").inc(
            self.root.queries_served + self.tld.queries_served
        )
        stats = getattr(self.transport, "stats", None)
        if stats is not None:
            for name in (
                "received", "sent", "bytes_received", "bytes_sent",
                "spoof_delivered", "unroutable", "handler_errors",
                "send_errors",
            ):
                registry.counter(f"udp.{name}").inc(getattr(stats, name))
            if stats.kernel_drops is not None:
                registry.counter("udp.kernel_drops").inc(stats.kernel_drops)

    @staticmethod
    def _fold_resolver(
        registry, prefix: str, resolver: RecursiveResolver
    ) -> None:
        stats = resolver.stats
        for source, target in (
            ("client_queries", "client_queries"),
            ("answered", "answered"),
            ("cache_answers", "cache_answers"),
            ("upstream_queries", "upstream_queries"),
            ("servfail", "servfail"),
            ("nxdomain", "nxdomain"),
            ("quota_refused", "defense.quota_refused"),
            ("negative_hits", "defense.negative_hits"),
            ("load_shed", "defense.load_shed"),
            ("glueless_launched", "defense.glueless_launched"),
            ("glueless_capped", "defense.glueless_capped"),
            ("txid_collisions", "txid_collisions"),
            ("txid_exhausted", "txid_exhausted"),
        ):
            registry.counter(f"{prefix}.{target}").inc(
                getattr(stats, source)
            )


def build_world(
    config: ServeConfig,
    transport: Transport,
    infra_port: int | None = None,
) -> ServingWorld:
    """Assemble ``config.profile`` on ``transport``.

    ``infra_port`` overrides the hierarchy port (the simulator passes
    53; the daemon auto-picks a free one). Pure wiring — no sockets are
    opened here beyond what ``transport.bind`` does — so the same call
    builds the simulated and the live world.
    """
    if infra_port is None:
        infra_port = config.infra_port or _pick_free_port()
    sld = config.sld
    tld_name = sld.split(".", 1)[1] if "." in sld else sld
    root = DelegationServer(
        ROOT_IP, "",
        [Delegation(tld_name, ((f"a.gtld-servers.{tld_name}", TLD_IP),))],
    )
    tld = DelegationServer(
        TLD_IP, tld_name,
        [Delegation(sld, ((f"ns1.{sld}", AUTH_IP),))],
    )
    if config.profile == "dnssec":
        auth: AuthoritativeServer = SigningAuthoritativeServer(AUTH_IP)
        auth.load_zone(build_validation_zone(sld))
    else:
        auth = AuthoritativeServer(AUTH_IP)
    # Nothing in serve reads the per-query log; kept on, it grows by one
    # entry per cache miss for the daemon's whole life.
    auth.retain_query_log = False
    auth.load_zone(build_serve_zone(sld))
    root.attach(transport, infra_port)
    tld.attach(transport, infra_port)
    auth.attach(transport, infra_port)

    rate_limiter = (
        ResponseRateLimiter(rate_per_second=config.rate_limit)
        if config.rate_limit > 0 else None
    )
    quota = (
        ClientQueryQuota(queries_per_second=config.quota)
        if config.quota > 0 else None
    )

    def make_recursive(ip: str, **overrides) -> RecursiveResolver:
        knobs = dict(
            rate_limiter=rate_limiter,
            query_quota=quota,
            negative_ttl=config.negative_ttl,
            max_pending=config.max_pending,
            max_glueless=config.max_glueless,
            timeout=config.timeout,
        )
        knobs.update(overrides)
        return RecursiveResolver(
            ip, [ROOT_IP], server_port=infra_port, upstream_port=0,
            **knobs,
        )

    policy = config.build_policy_engine()
    upstream: RecursiveResolver | None = None
    if config.profile == "recursive":
        front: RecursiveResolver | ForwardingResolver | BehaviorHost = (
            make_recursive(config.ip, policy=policy)
        )
    elif config.profile == "forwarder":
        # The proxy's defenses live on the proxy's upstream here —
        # the CPE box itself is dumb, as in the wild. Policy, though,
        # lives on the CPE: it filters before anything is relayed.
        upstream = make_recursive(UPSTREAM_IP)
        upstream.attach(transport, infra_port)
        front = ForwardingResolver(
            config.ip, UPSTREAM_IP,
            forward_port=0, upstream_port=infra_port,
            policy=policy, eviction_horizon=config.eviction_horizon,
        )
    elif config.profile == "transparent":
        upstream = make_recursive(UPSTREAM_IP)
        upstream.attach(transport, infra_port)
        spec = BehaviorSpec(
            name="serve-transparent",
            mode=ResponseMode.TRANSPARENT,
            ra=True, aa=False,
            forward_to=UPSTREAM_IP,
        )
        front = BehaviorHost(
            config.ip, spec, AUTH_IP,
            upstream_port=0, auth_port=infra_port,
            forward_port=infra_port, policy=policy,
        )
    else:  # dnssec
        spec = BehaviorSpec(
            name="serve-dnssec",
            mode=ResponseMode.RESOLVE,
            ra=True, aa=False,
            answer_kind=AnswerKind.CORRECT,
        )
        front = BehaviorHost(
            config.ip, spec, AUTH_IP,
            dnssec_validating=True,
            upstream_port=0, auth_port=infra_port,
            policy=policy,
        )
    listener = front.attach(transport, config.port)
    return ServingWorld(
        config=config, transport=transport, front=front, listener=listener,
        auth=auth, root=root, tld=tld, upstream=upstream,
        infra_port=infra_port, policy=policy,
    )


class DnsService:
    """The daemon: an :class:`AsyncUdpTransport` world on its own loop.

    Two driving modes share all the machinery:

    - :meth:`run` — foreground, installs SIGTERM/SIGINT handlers,
      blocks until a signal, drains, returns the exit code (the CLI).
    - :meth:`start` / :meth:`stop` — the loop runs on a daemon thread;
      ``start`` returns the live client-facing :class:`Endpoint`
      (tests, benchmarks).
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.hub = TelemetryHub()
        self.world: ServingWorld | None = None
        self.endpoint: Endpoint | None = None
        self.drained = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._transport: AsyncUdpTransport | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle -------------------------------------------------------

    def _build(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._stop_event = asyncio.Event()
        self._transport = AsyncUdpTransport(loop)
        self.world = build_world(self.config, self._transport)
        self.endpoint = self.world.endpoint
        self._write_ready_file()

    def _write_ready_file(self) -> None:
        if self.config.ready_file is None or self.endpoint is None:
            return
        document = {
            "profile": self.config.profile,
            "ip": self.endpoint.ip,
            "port": self.endpoint.port,
            "infra_port": self.world.infra_port if self.world else 0,
            "pid": os.getpid(),
        }
        pathlib.Path(self.config.ready_file).write_text(
            json.dumps(document) + "\n"
        )

    def request_stop(self) -> None:
        """Signal-safe (loop-thread) stop request."""
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    async def _serve_until_stopped(self) -> None:
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._drain()

    async def _drain(self) -> None:
        """Stop accepting, let in-flight work finish, fold metrics."""
        world, transport = self.world, self._transport
        assert world is not None and transport is not None
        if world.listener is not None:
            world.listener.close()  # no new client queries
        deadline = transport.now + self.config.drain_grace
        while world.pending() > 0 and transport.now < deadline:
            await asyncio.sleep(0.05)
        self.hub.registry.gauge("serve.drain_pending_left").set(
            float(world.pending())
        )
        transport.close()
        world.fold_metrics(self.hub)
        if self.config.metrics_out is not None:
            self.hub.snapshot().write_metrics(self.config.metrics_out)
        self.drained = True

    # -- foreground ------------------------------------------------------

    def run(self, announce: Callable[[str], None] = print) -> int:
        """Serve until SIGTERM/SIGINT, drain, exit 0."""
        loop = asyncio.new_event_loop()
        try:
            self._build(loop)
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_stop)
            endpoint = self.endpoint
            announce(
                f"serving profile '{self.config.profile}' on "
                f"{endpoint} (hierarchy on 127.77.0.x:"
                f"{self.world.infra_port}); SIGTERM drains"
            )
            loop.run_until_complete(self._serve_until_stopped())
            announce(self._summary())
            return 0
        finally:
            loop.close()

    def _summary(self) -> str:
        snapshot = self.hub.registry.snapshot()
        queries = snapshot.counters.get("serve.client_queries", 0)
        answered = snapshot.counters.get("serve.answered", 0)
        left = self.world.pending() if self.world is not None else 0
        note = "clean" if left == 0 else f"{left} still pending"
        summary = f"drained ({note}): {queries} queries, {answered} answered"
        if self.world is not None and self.world.policy is not None:
            summary += "\n\n" + render_policy_decisions(self.world.policy)
        return summary

    # -- background (tests/benchmarks) -----------------------------------

    def start(self, timeout: float = 5.0) -> Endpoint:
        """Run the daemon on a background thread; returns the endpoint."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.endpoint is not None
        return self.endpoint

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            self._build(loop)
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self._serve_until_stopped())
        finally:
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and join the background thread."""
        if self._thread is None or self._loop is None:
            return
        if not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.request_stop)
            except RuntimeError:
                pass  # loop already shut down
        self._thread.join(timeout)
        self._thread = None
