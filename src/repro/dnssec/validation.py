"""The validation-*behavior* census: does the resolver check signatures?

The DO-probe census (:mod:`repro.dnssec.census`) only observes the AD
bit a resolver claims. This module reproduces the stronger bogus-probe
technique (PAPERS.md: "Measuring DNSSEC validation"): serve a zone
containing one correctly signed name and one whose RRSIG is
deliberately corrupted, then classify each target by the differential

- *validating* — answers the control name with an A record but
  SERVFAILs (or stays silent on) the bogus name, because its upstream
  signature check failed (RFC 4035 section 5.5);
- *non-validating* — answers both names, signatures unchecked;
- *unresponsive* — answers neither (refusers, dead hosts, and
  transparent forwarders, whose relayed answers return from an
  unprobed upstream address and are excluded from the target join).

The census runs on its own :class:`~repro.netsim.network.Network`
seeded from the campaign seed through a dedicated splitmix64 lane, and
depends only on ``(year, seed, latency_median, loss_rate,
fault_profile)`` — never on ``mode``, ``workers`` or capture
retention — so serial, sharded, streaming and resumed campaigns all
render byte-identical validation tables.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.constants import QueryType
from repro.dnslib.message import DnsMessage, make_query
from repro.dnslib.records import ResourceRecord
from repro.dnslib.signing import corrupt_rrsig, sign_rrset
from repro.dnslib.zone import Zone
from repro.dnssrv.auth import AuthoritativeServer
from repro.netsim.network import Network
from repro.netsim.seeds import derive_seed
from repro.prober.targets import TargetScan
from repro.stats import ValidationTable

#: Splitmix64 lane tag for the census network/fault seeds (arbitrary,
#: fixed forever: changing it reshuffles every census's packet fates).
VALIDATION_LANE = 0xD55C

#: Sub-zone label the probe names live under (beneath the measurement
#: SLD, so resolving targets genuinely reach the authoritative server).
VALIDATION_ZONE_LABEL = "dnssec-validation"

#: The two probe owners inside the validation zone.
CONTROL_LABEL = "valid"
BOGUS_LABEL = "bogus"

#: Probe-name answer addresses, drawn from TEST-NET-2 (RFC 5737) so
#: they never collide with a sampled resolver.
CONTROL_ADDRESS = "198.51.100.41"
BOGUS_ADDRESS = "198.51.100.42"


def build_validation_zone(sld: str) -> Zone:
    """The signed probe zone: one good RRSIG, one corrupted one.

    Both names carry TTL 0 (uncacheable, like the DO-probe zone) and a
    real A record; only the ``bogus`` name's signature is broken, so
    the *only* observable difference between the two lookups is
    whether the resolver verifies what it resolved.
    """
    origin = f"{VALIDATION_ZONE_LABEL}.{sld}"
    zone = Zone(origin)
    control_name = f"{CONTROL_LABEL}.{origin}"
    bogus_name = f"{BOGUS_LABEL}.{origin}"
    zone.add_a(control_name, CONTROL_ADDRESS, ttl=0)
    zone.add_a(bogus_name, BOGUS_ADDRESS, ttl=0)
    zone.add(sign_rrset(zone.rrset(control_name, QueryType.A), origin))
    zone.add(corrupt_rrsig(sign_rrset(zone.rrset(bogus_name, QueryType.A), origin)))
    return zone


class SigningAuthoritativeServer(AuthoritativeServer):
    """An authoritative server that returns RRSIGs alongside answers.

    For every answered RRset it appends the zone's stored RRSIG whose
    ``type_covered`` matches — unconditionally, without EDNS(0) DO
    gating, because the census classifies resolvers by what they *do*
    with a signature, not by what they ask for. Overriding
    :meth:`respond` automatically disables the base class's verified
    single-A fast path, so every query takes this path.
    """

    def respond(self, query: DnsMessage, now: float) -> DnsMessage:
        response = super().respond(query, now)
        if not response.answers:
            return response
        rrsigs: list[ResourceRecord] = []
        seen: set[tuple[str, int]] = set()
        for record in response.answers:
            if int(record.rtype) == int(QueryType.RRSIG):
                continue
            key = (record.name, int(record.rtype))
            if key in seen:
                continue
            seen.add(key)
            for zone in self.zones_for(record.name):
                matched = [
                    sig
                    for sig in zone.rrset(record.name, QueryType.RRSIG)
                    if int(sig.data.type_covered) == int(record.rtype)
                ]
                if matched:
                    rrsigs.extend(matched)
                    break
        response.answers.extend(rrsigs)
        return response


@dataclasses.dataclass
class ValidationCensus:
    """Outcome of one bogus-probe scan over a target list."""

    targets: int
    validating: set[str]
    non_validating: set[str]
    unresponsive: set[str]

    def table(self) -> ValidationTable:
        """The census as the campaign report's table structure."""
        return ValidationTable(
            targets=self.targets,
            validating=len(self.validating),
            non_validating=len(self.non_validating),
            unresponsive=len(self.unresponsive),
        )


class ValidationScanner(TargetScan):
    """Probes each target for the control and the bogus name.

    An answer counts only when the probed target itself sent it (the
    scan engine's rule), so an off-path answer — a transparent
    forwarder's upstream replying on the target's behalf — never
    inflates a target's responsiveness. Its decoded qname says which
    of the two probes it answers.
    """

    def __init__(
        self,
        network: Network,
        auth: AuthoritativeServer,
        sld: str,
        scanner_ip: str = "132.170.3.19",
        source_port: int = 31341,
    ) -> None:
        super().__init__(network, scanner_ip, source_port)
        self.auth = auth
        self.sld = sld
        origin = f"{VALIDATION_ZONE_LABEL}.{sld}"
        self.control_qname = f"{CONTROL_LABEL}.{origin}"
        self.bogus_qname = f"{BOGUS_LABEL}.{origin}"

    def scan(self, targets: list[str]) -> ValidationCensus:
        self._answered_control: set[str] = set()
        self._answered_bogus: set[str] = set()
        self.probe(targets, self.auth, build_validation_zone(self.sld))
        probed = set(targets)
        responsive = self._answered_control
        validating = responsive - self._answered_bogus
        return ValidationCensus(
            targets=len(probed),
            validating=validating,
            non_validating=responsive - validating,
            unresponsive=probed - responsive,
        )

    def queries(self, index: int, target: str):
        return [
            make_query(qname, msg_id=index & 0xFFFF)
            for qname in (self.control_qname, self.bogus_qname)
        ]

    def on_answer(self, target, source, response, now) -> None:
        if response.first_a_record() is None:
            return  # SERVFAILs and empty answers are the validating signal
        if response.qname == self.control_qname:
            self._answered_control.add(target)
        elif response.qname == self.bogus_qname:
            self._answered_bogus.add(target)


def run_validation_census(config, population, validators=None) -> ValidationCensus:
    """Run the bogus-probe census against a campaign's population.

    Deploys the population (transparent-forwarder overlay included, if
    the caller applied it) on a fresh network whose seed, faults and
    loss model derive only from campaign knobs that are invariant
    across execution modes — the byte-identity contract for the
    validation table. The scan reuses the campaign's validator set
    when given one, or re-derives it from ``(seed, year)``.

    Hosts that fabricate answers without consulting an upstream are
    counted non-validating even when flagged as validators: they
    answer the bogus name because they never see its signature. That
    is the measurement's honest limit, not a bug — a real bogus-probe
    scan cannot observe validation a resolver never performs.
    """
    from repro.dnssrv.hierarchy import AUTH_IP, MEASUREMENT_SLD
    from repro.netsim.faults import build_injector
    from repro.netsim.latency import LogNormalLatency
    from repro.netsim.loss import BernoulliLoss
    from repro.resolvers.population import deploy_forwarder_upstreams

    if validators is None:
        from repro.dnssec.census import assign_validators

        validators = assign_validators(
            population, year=config.year, seed=config.seed
        )
    census_seed = derive_seed(config.seed, VALIDATION_LANE)
    loss = BernoulliLoss(config.loss_rate) if config.loss_rate else None
    network = Network(
        seed=census_seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
        loss=loss,
    )
    auth = SigningAuthoritativeServer(AUTH_IP, zone_history=None)
    auth.retain_query_log = False  # nothing reads it; the scan is O(2·targets)
    auth.attach(network)
    scanner = ValidationScanner(network, auth, sld=MEASUREMENT_SLD)
    profile = population.profile
    network.attach_faults(
        build_injector(
            config.fault_profile, census_seed, 0, 1,
            exempt={auth.ip, scanner.scanner_ip, *profile.forwarder_upstreams},
        )
    )
    population.deploy(network, auth_ip=auth.ip, dnssec_validators=validators)
    deploy_forwarder_upstreams(network, profile, auth.ip)
    return scanner.scan(sorted(population.address_set()))


def render_validation_census(
    census: ValidationCensus | ValidationTable, year: int
) -> str:
    """Text summary of one year's bogus-probe scan, or of its table."""
    table = census.table() if isinstance(census, ValidationCensus) else census
    return "\n".join(
        [
            f"DNSSEC validation behavior ({year})",
            f"  targets probed (2 qnames):  {table.targets:,}",
            f"  responsive:                 {table.responsive:,}",
            f"  validating (bogus blocked): {table.validating:,} "
            f"({table.validating_share:.1f}% of responsive)",
            f"  non-validating:             {table.non_validating:,}",
            f"  unresponsive:               {table.unresponsive:,}",
        ]
    )
