"""The attack × defense matrix: seeded adversarial campaigns, measured.

Each cell of the matrix runs one attack family against one defense
posture in a fresh, self-contained simulation. The three families:

- ``nxns`` — NXNSAttack delegation amplification: attacker queries for
  fresh names under the attacker zone; its authoritative server
  answers with ``fanout`` glueless NS names under the victim domain,
  which the resolver fleet dutifully resolves — a packet flood against
  the victim's root/TLD/auth path;
- ``water_torture`` — random-subdomain flood: queries for
  pseudo-random names under the victim domain punch through resolver
  caches and land on the victim auth as NXDOMAINs;
- ``reflection`` — population-scale spoofed-source reflection: ANY
  queries for a record-rich name, source forged to the victim host,
  sent to every resolver in the fleet and paced at the attack rate
  (:class:`~repro.attacks.reflection.AmplificationAttack`, the attack
  ``repro amplify`` runs).

A ``baseline`` pseudo-family (benign workload only) anchors the
collateral measurement: a defense's cost is the benign answer rate it
gives up relative to the undefended baseline, and an attack's
collateral is the benign rate lost inside its cell.

Determinism contract (the same one Tables II–X obey): every cell's
network is seeded via :func:`~repro.netsim.seeds.derive_seed` from the
campaign seed through the dedicated :data:`ATTACK_LANE`, and the whole
matrix is a pure function of mode-invariant knobs — never of
``workers``, ``mode`` or capture retention — so serial, sharded,
streaming and resumed campaigns render byte-identical matrices.
"""

from __future__ import annotations

import dataclasses
import random

from repro.attacks.defense import (
    DEFENSE_POSTURES,
    POSTURE_LANES,
    DefensePosture,
    posture_by_name,
)
from repro.attacks.reflection import AmplificationAttack, AttackReport
from repro.attacks.zones import (
    AMP_ORIGIN,
    ATTACKER_IP,
    NXNS_CHILD_PREFIX,
    REFLECTION_VICTIM_IP,
    WATER_PREFIX,
    NXNS_ZONE,
    VICTIM_SLD,
    build_attack_world,
)
from repro.clients.workload import ClientWorkload, WorkloadConfig
from repro.dnslib.constants import QueryType
from repro.dnslib.message import make_query
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.latency import LogNormalLatency
from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.netsim.seeds import derive_seed
from repro.telemetry.hub import as_hub

#: Splitmix64 lane tag for attack-cell seeds (arbitrary, fixed forever:
#: changing it reshuffles every attack schedule and golden pin).
ATTACK_LANE = 0xA77C

#: Stable lane index per family — like ``POSTURE_LANES``, part of the
#: seed derivation, so subsetting families never moves a cell's seed.
FAMILY_LANES = {
    "baseline": 0,
    "nxns": 1,
    "water_torture": 2,
    "reflection": 3,
}

ATTACK_FAMILIES = ("nxns", "water_torture", "reflection")


@dataclasses.dataclass(frozen=True)
class AttackSuiteConfig:
    """Knobs for one attack × defense matrix run.

    Everything here must stay invariant across campaign execution
    modes — the matrix inherits only ``seed`` and ``latency_median``
    from a campaign config, never workers/mode/capture switches.
    """

    seed: int = 0
    latency_median: float = 0.04
    resolvers: int = 6
    #: Benign workload shape (always running, in every cell).
    benign_clients: int = 24
    benign_queries_per_client: int = 4
    benign_domains: int = 16
    benign_qps: float = 40.0
    #: Attacker schedule: single-source floods (nxns/water torture),
    #: round-robined over the fleet. Tuned so the per-resolver share
    #: clearly exceeds the quota budget — a flood that never trips the
    #: defense would make the matrix vacuous.
    attack_queries: int = 96
    attack_qps: float = 160.0
    #: NXNS referral fan-out (glueless NS names per attacker query).
    fanout: int = 12
    #: Water torture draws labels from a pool this size (with
    #: replacement): small enough that negative caching has bite,
    #: large enough that positive caches never help.
    water_pool: int = 8
    #: Reflection: spoofed rounds through the whole resolver fleet —
    #: comfortably past the RRL burst, so rate limiting is visible.
    reflection_rounds: int = 18
    families: tuple[str, ...] = ATTACK_FAMILIES
    #: Defense postures to sweep — :class:`DefensePosture` instances or
    #: their names (normalized to instances on construction).
    postures: tuple[DefensePosture, ...] = DEFENSE_POSTURES

    def __post_init__(self) -> None:
        if self.resolvers < 1:
            raise ValueError("need at least one resolver")
        if self.attack_queries < 1 or self.attack_qps <= 0:
            raise ValueError("attack schedule must be non-empty")
        if self.fanout < 1 or self.water_pool < 1:
            raise ValueError("fanout and water_pool must be positive")
        unknown = [f for f in self.families if f not in FAMILY_LANES]
        if unknown:
            raise ValueError(f"unknown attack families: {unknown}")
        object.__setattr__(
            self,
            "postures",
            tuple(
                posture_by_name(p) if isinstance(p, str) else p
                for p in self.postures
            ),
        )


@dataclasses.dataclass(frozen=True)
class AttackCell:
    """Measured outcome of one (family, posture) simulation."""

    family: str
    posture: str
    attack_queries: int
    attacker_bytes: int
    victim_bytes: int
    victim_packets: int
    #: Attack-namespace queries observed at the victim auth server.
    auth_queries: int
    #: Those queries over the attack's nominal send window.
    auth_qps: float
    #: Family-specific amplification: victim-auth queries per attacker
    #: query (nxns, water torture) or victim bytes per attacker byte
    #: (reflection); 0 for the baseline.
    amplification: float
    benign_sent: int
    benign_answered: int
    #: Defense/degradation accounting, summed over the resolver fleet.
    rrl_dropped: int
    quota_refused: int
    load_shed: int
    glueless_launched: int
    glueless_capped: int
    negative_hits: int
    #: Policy-engine accounting (all zero for policy-less postures).
    policy_refused: int = 0
    policy_nxdomain: int = 0
    policy_sinkholed: int = 0
    policy_routed: int = 0
    policy_rewritten: int = 0

    @property
    def policy_blocked(self) -> int:
        """Queries the policy stopped before recursion (refuse + nxdomain)."""
        return self.policy_refused + self.policy_nxdomain

    @property
    def benign_answer_rate(self) -> float:
        if self.benign_sent == 0:
            return 0.0
        return self.benign_answered / self.benign_sent


@dataclasses.dataclass(frozen=True)
class AttackMatrix:
    """The full attack × defense grid (baseline rows included)."""

    seed: int
    rows: tuple[AttackCell, ...]

    def cell(self, family: str, posture: str) -> AttackCell:
        for row in self.rows:
            if row.family == family and row.posture == posture:
                return row
        raise KeyError(f"no cell ({family!r}, {posture!r})")

    @property
    def families(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.family not in seen:
                seen.append(row.family)
        return tuple(seen)

    @property
    def postures(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.posture not in seen:
                seen.append(row.posture)
        return tuple(seen)


class _BenignFleet:
    """Stub clients resolving popular victim-domain names via the fleet."""

    def __init__(
        self,
        network: Network,
        workload: ClientWorkload,
        qps: float,
    ) -> None:
        self.network = network
        self.queries = workload.queries()
        self.qps = qps
        self.sent = 0
        self.answered = 0
        self._client_ips: dict[int, str] = {}
        for client_id in sorted(workload.client_resolver):
            ip = f"172.16.{client_id // 200}.{client_id % 200 + 1}"
            self._client_ips[client_id] = ip
            network.bind(ip, 5353, self._on_response)

    def start(self) -> None:
        for index, query in enumerate(self.queries):
            self.network.scheduler.after(
                index / self.qps, lambda q=query: self._send(q)
            )

    def _send(self, query) -> None:
        payload = encode_message(
            make_query(query.qname, msg_id=self.sent & 0xFFFF)
        )
        self.network.send(
            Datagram(
                self._client_ips[query.client_id], 5353,
                query.resolver_ip, 53, payload,
            )
        )
        self.sent += 1

    def _on_response(self, datagram: Datagram, network: Network) -> None:
        try:
            response = decode_message(datagram.payload)
        except DnsWireError:
            return
        if any(r.rtype == QueryType.A for r in response.answers):
            self.answered += 1


def _deploy_resolvers(
    network: Network,
    root_servers: list[str],
    posture: DefensePosture,
    config: AttackSuiteConfig,
) -> list[RecursiveResolver]:
    resolvers = []
    for index in range(config.resolvers):
        ip = f"93.184.{index // 200}.{index % 200 + 1}"
        resolver = RecursiveResolver(
            ip, root_servers,
            **posture.resolver_kwargs(
                max_glueless_undefended=config.fanout
            ),
        )
        resolver.attach(network)
        resolvers.append(resolver)
    return resolvers


def _schedule_flood(
    network: Network,
    resolver_ips: list[str],
    config: AttackSuiteConfig,
    qname_for: "callable",
) -> tuple[int, int]:
    """Pace a single-source flood; returns (queries, attacker bytes)."""
    attacker_bytes = 0
    for index in range(config.attack_queries):
        payload = encode_message(
            make_query(qname_for(index), msg_id=index & 0xFFFF)
        )
        datagram = Datagram(
            ATTACKER_IP, 4444,
            resolver_ips[index % len(resolver_ips)], 53, payload,
        )
        attacker_bytes += datagram.wire_size
        network.scheduler.after(
            index / config.attack_qps,
            lambda dg=datagram: network.send(dg),
        )
    return config.attack_queries, attacker_bytes


def _auth_attack_queries(query_log, family: str) -> int:
    """Attack-namespace queries in the victim auth's log — exact, not
    statistical: every family's qnames carry a distinctive prefix."""
    if family == "nxns":
        return sum(
            1 for entry in query_log
            if entry.qname.startswith(NXNS_CHILD_PREFIX)
        )
    if family == "water_torture":
        return sum(
            1 for entry in query_log if entry.qname.startswith(WATER_PREFIX)
        )
    if family == "reflection":
        return sum(1 for entry in query_log if entry.qname == AMP_ORIGIN)
    return 0


def _run_cell(
    config: AttackSuiteConfig, family: str, posture: DefensePosture
) -> AttackCell:
    cell_seed = derive_seed(
        config.seed, ATTACK_LANE,
        FAMILY_LANES[family], POSTURE_LANES[posture.name],
    )
    network = Network(
        seed=cell_seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
    )
    workload = ClientWorkload(
        WorkloadConfig(
            clients=config.benign_clients,
            queries_per_client=config.benign_queries_per_client,
            domains=config.benign_domains,
        ),
        resolver_ips=[
            f"93.184.{i // 200}.{i % 200 + 1}" for i in range(config.resolvers)
        ],
        seed=cell_seed,
        domain_suffix=VICTIM_SLD,
    )
    hierarchy, _ = build_attack_world(network, workload, config.fanout)
    resolvers = _deploy_resolvers(
        network, hierarchy.root_servers, posture, config
    )
    resolver_ips = [resolver.ip for resolver in resolvers]
    fleet = _BenignFleet(network, workload, config.benign_qps)
    fleet.start()

    reflection: AttackReport | None = None
    attack_queries = 0
    attacker_bytes = 0
    if family == "nxns":
        attack_queries, attacker_bytes = _schedule_flood(
            network, resolver_ips, config,
            lambda index: f"p{index}.{NXNS_ZONE}",
        )
    elif family == "water_torture":
        rng = random.Random(derive_seed(cell_seed, 0xF00D))
        pool = [
            f"{WATER_PREFIX}{label:04d}.{VICTIM_SLD}"
            for label in range(config.water_pool)
        ]
        attack_queries, attacker_bytes = _schedule_flood(
            network, resolver_ips, config,
            lambda index: rng.choice(pool),
        )
    elif family == "reflection":
        # The launch runs the network dry, benign fleet included, so
        # the run below has nothing left to do.
        reflection = AmplificationAttack(
            network, ATTACKER_IP, REFLECTION_VICTIM_IP, resolver_ips,
            AMP_ORIGIN,
        ).launch(rounds=config.reflection_rounds, qps=config.attack_qps)
        attack_queries = reflection.queries_sent
        attacker_bytes = reflection.attacker_bytes

    network.run()

    auth_queries = _auth_attack_queries(hierarchy.auth.query_log, family)
    window = attack_queries / config.attack_qps if attack_queries else 0.0
    if reflection is not None:
        amplification = reflection.amplification_factor
    elif attack_queries:
        amplification = auth_queries / attack_queries
    else:
        amplification = 0.0

    return AttackCell(
        family=family,
        posture=posture.name,
        attack_queries=attack_queries,
        attacker_bytes=attacker_bytes,
        victim_bytes=0 if reflection is None else reflection.victim_bytes,
        victim_packets=0 if reflection is None else reflection.victim_packets,
        auth_queries=auth_queries,
        auth_qps=auth_queries / window if window else 0.0,
        amplification=amplification,
        benign_sent=fleet.sent,
        benign_answered=fleet.answered,
        rrl_dropped=sum(
            r.rate_limiter.dropped for r in resolvers
            if r.rate_limiter is not None
        ),
        quota_refused=sum(r.stats.quota_refused for r in resolvers),
        load_shed=sum(r.stats.load_shed for r in resolvers),
        glueless_launched=sum(r.stats.glueless_launched for r in resolvers),
        glueless_capped=sum(r.stats.glueless_capped for r in resolvers),
        negative_hits=sum(r.stats.negative_hits for r in resolvers),
        policy_refused=sum(
            r.policy.stats.refused for r in resolvers if r.policy is not None
        ),
        policy_nxdomain=sum(
            r.policy.stats.nxdomain for r in resolvers if r.policy is not None
        ),
        policy_sinkholed=sum(
            r.policy.stats.sinkholed for r in resolvers if r.policy is not None
        ),
        policy_routed=sum(
            r.policy.stats.routed for r in resolvers if r.policy is not None
        ),
        policy_rewritten=sum(
            r.policy.stats.rewritten for r in resolvers if r.policy is not None
        ),
    )


def run_attack_matrix(
    config: AttackSuiteConfig, telemetry=None
) -> AttackMatrix:
    """Run every (family, posture) cell plus the baseline row.

    ``telemetry`` optionally takes a
    :class:`~repro.telemetry.hub.TelemetryHub` (or config); per-family
    counters land in its registry. The matrix bytes never depend on
    whether telemetry was attached.
    """
    hub = as_hub(telemetry)
    rows = []
    for family in ("baseline", *config.families):
        for posture in config.postures:
            cell = _run_cell(config, family, posture)
            rows.append(cell)
            if hub is not None:
                hub.registry.counter("attacks.cells_run").inc()
                hub.registry.counter(
                    f"attacks.{family}.auth_queries"
                ).inc(cell.auth_queries)
                hub.registry.counter("attacks.rrl_dropped").inc(
                    cell.rrl_dropped
                )
                hub.registry.counter("attacks.quota_refused").inc(
                    cell.quota_refused
                )
                hub.registry.counter("attacks.load_shed").inc(
                    cell.load_shed
                )
                hub.registry.counter("attacks.policy_blocked").inc(
                    cell.policy_blocked
                )
                hub.registry.counter("attacks.policy_sinkholed").inc(
                    cell.policy_sinkholed
                )
    return AttackMatrix(seed=config.seed, rows=tuple(rows))
