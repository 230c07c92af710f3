"""The bait-and-check record-injection experiment."""

from __future__ import annotations

import dataclasses
import random

from repro.dnslib.constants import QueryType
from repro.dnslib.message import DnsMessage, make_query
from repro.dnslib.records import AData, ResourceRecord
from repro.dnslib.zone import Zone
from repro.dnssrv.auth import AuthoritativeServer
from repro.dnssrv.delegation import Delegation, DelegationServer
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from repro.prober.targets import TargetScan

ROOT_IP = "198.41.0.4"
TLD_IP = "192.5.6.30"
VICTIM_AUTH_IP = "93.184.216.34"
ATTACKER_AUTH_IP = "185.66.6.6"
VICTIM_NAME = "www.victim.example"
REAL_VICTIM_ADDRESS = "93.184.0.1"
POISON_ADDRESS = "185.66.6.66"
CLIENT_IP = "203.0.113.77"
CLIENT_PORT = 5000


class PoisoningAuthServer(AuthoritativeServer):
    """An authoritative server that plants out-of-bailiwick additionals.

    It answers its own zone honestly but appends an unsolicited A
    record mapping the victim name to the attacker's address — harmless
    to a bailiwick-checking resolver, poison to a vulnerable one.
    """

    def __init__(
        self,
        ip: str,
        poison_name: str = VICTIM_NAME,
        poison_address: str = POISON_ADDRESS,
    ) -> None:
        super().__init__(ip)
        self.poison_name = poison_name
        self.poison_address = poison_address
        self.poison_attempts = 0

    def respond(self, query: DnsMessage, now: float) -> DnsMessage:
        response = super().respond(query, now)
        if response.answers:
            self.poison_attempts += 1
            response.additionals.append(
                ResourceRecord(
                    self.poison_name, QueryType.A, ttl=600,
                    data=AData(self.poison_address),
                )
            )
        return response


class _Bait(TargetScan):
    """Phase 1: each resolver resolves its own attacker name."""

    def queries(self, index: int, target: str):
        return [make_query(f"bait{index:05d}.attacker.example", msg_id=index)]


class _Check(TargetScan):
    """Phase 2: every resolver is asked for the victim name."""

    def __init__(self, network: Network) -> None:
        super().__init__(network, CLIENT_IP, CLIENT_PORT)
        self.answers: dict[str, str | None] = {}  # target -> victim address

    def queries(self, index: int, target: str):
        return [make_query(VICTIM_NAME, msg_id=10_000 + index)]

    def on_answer(self, target, source, response, now) -> None:
        if response.qname == VICTIM_NAME:
            record = response.first_a_record()
            self.answers[target] = record.data.address if record else None


@dataclasses.dataclass(frozen=True)
class InjectionReport:
    """Measured vulnerability over the tested fleet."""

    tested: int
    vulnerable: tuple[str, ...]
    safe: tuple[str, ...]
    unresponsive: tuple[str, ...]

    @property
    def vulnerable_share(self) -> float:
        responded = len(self.vulnerable) + len(self.safe)
        return len(self.vulnerable) / responded if responded else 0.0


class InjectionExperiment:
    """Builds the world and runs bait-and-check over a resolver fleet.

    ``vulnerable_share`` controls how many deployed resolvers skip the
    bailiwick check; Klein et al. measured >92% on real resolution
    platforms, so that is the calibrated default.
    """

    def __init__(
        self,
        resolver_count: int = 25,
        vulnerable_share: float = 0.92,
        seed: int = 0,
    ) -> None:
        if resolver_count <= 0:
            raise ValueError("resolver_count must be positive")
        if not 0.0 <= vulnerable_share <= 1.0:
            raise ValueError("vulnerable_share must be in [0, 1]")
        self.resolver_count = resolver_count
        self.vulnerable_share = vulnerable_share
        self.seed = seed
        self.truly_vulnerable: set[str] = set()

    def _build_world(self) -> tuple[Network, list[str]]:
        network = Network(seed=self.seed)
        root = DelegationServer(
            ROOT_IP, "",
            [Delegation("example", (("a.gtld.example", TLD_IP),))],
        )
        tld = DelegationServer(
            TLD_IP, "example",
            [
                Delegation(
                    "victim.example", (("ns1.victim.example", VICTIM_AUTH_IP),)
                ),
                Delegation(
                    "attacker.example",
                    (("ns1.attacker.example", ATTACKER_AUTH_IP),),
                ),
            ],
        )
        victim_auth = AuthoritativeServer(VICTIM_AUTH_IP)
        victim_zone = Zone("victim.example")
        victim_zone.add_a(VICTIM_NAME, REAL_VICTIM_ADDRESS, ttl=600)
        victim_auth.load_zone(victim_zone)
        attacker_auth = PoisoningAuthServer(ATTACKER_AUTH_IP)
        attacker_zone = Zone("attacker.example")
        for index in range(self.resolver_count):
            attacker_zone.add_a(
                f"bait{index:05d}.attacker.example", ATTACKER_AUTH_IP, ttl=600
            )
        attacker_auth.load_zone(attacker_zone)
        for server in (root, tld, victim_auth, attacker_auth):
            server.attach(network)
        rng = random.Random((self.seed, "injection").__str__())
        targets = []
        for index in range(self.resolver_count):
            ip = f"203.50.{index // 250}.{index % 250 + 1}"
            vulnerable = rng.random() < self.vulnerable_share
            RecursiveResolver(
                ip, [ROOT_IP], accept_unsolicited_additionals=vulnerable
            ).attach(network)
            if vulnerable:
                self.truly_vulnerable.add(ip)
            targets.append(ip)
        return network, targets

    def run(self) -> InjectionReport:
        network, targets = self._build_world()
        _Bait(network, CLIENT_IP, CLIENT_PORT).probe(targets)
        check = _Check(network)
        check.probe(targets)
        vulnerable, safe, unresponsive = [], [], []
        for target in targets:
            answer = check.answers.get(target)
            if answer is None:
                unresponsive.append(target)
            elif answer == POISON_ADDRESS:
                vulnerable.append(target)
            else:
                safe.append(target)
        return InjectionReport(
            tested=len(targets),
            vulnerable=tuple(vulnerable),
            safe=tuple(safe),
            unresponsive=tuple(unresponsive),
        )


def render_injection(report: InjectionReport) -> str:
    """Text summary against the Klein et al. benchmark."""
    return "\n".join(
        [
            "Record-injection test (bait-and-check)",
            f"  resolvers tested:   {report.tested:,}",
            f"  served the poison:  {len(report.vulnerable):,} "
            f"({report.vulnerable_share:.1%})",
            f"  answered honestly:  {len(report.safe):,}",
            f"  unresponsive:       {len(report.unresponsive):,}",
            "  (Klein et al. measured >92% of resolution platforms "
            "vulnerable to cache injection.)",
        ]
    )
