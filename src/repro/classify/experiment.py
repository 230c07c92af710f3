"""The recursive-vs-proxy classification experiment."""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter

from repro.dnslib.message import make_query
from repro.dnslib.zone import Zone
from repro.dnssrv.forwarder import ForwardingResolver
from repro.dnssrv.hierarchy import Hierarchy, build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from repro.prober.targets import TargetScan
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import BehaviorHost


class ResolverClass(enum.Enum):
    """What the dual capture reveals about a responding target."""

    RECURSIVE = "recursive"        # Q2 source == probed address
    PROXY = "forwarding proxy"     # Q2 source != probed address
    #: The answer itself arrives from an address that was never probed:
    #: the target relayed the query upstream *with the scanner's source
    #: address*, so the upstream resolved and replied directly.
    TRANSPARENT_FORWARDER = "transparent forwarder"
    FABRICATOR = "no-recursion"    # answered without any Q2
    UNRESPONSIVE = "unresponsive"  # no R2 at all

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass
class ClassificationReport:
    """Per-target classes plus the proxy fan-in structure."""

    classes: dict[str, ResolverClass]
    proxy_upstreams: dict[str, str]  # proxy ip -> observed upstream ip
    #: transparent-forwarder ip -> the unprobed address that answered.
    transparent_upstreams: dict[str, str] = dataclasses.field(
        default_factory=dict
    )

    def count(self, cls: ResolverClass) -> int:
        return sum(1 for value in self.classes.values() if value is cls)

    @property
    def upstream_fan_in(self) -> dict[str, int]:
        """How many proxies share each upstream resolver."""
        return dict(Counter(self.proxy_upstreams.values()))

    @property
    def transparent_fan_in(self) -> dict[str, int]:
        """How many transparent forwarders share each answering upstream."""
        return dict(Counter(self.transparent_upstreams.values()))

    def share(self, cls: ResolverClass) -> float:
        total = len(self.classes)
        return self.count(cls) / total if total else 0.0


class ResolverClassifier(TargetScan):
    """Runs the unique-qname probe and reads both capture points."""

    by_qname = True  # an answer from an unprobed address is a signal

    def __init__(
        self,
        network: Network,
        hierarchy: Hierarchy,
        scanner_ip: str = "132.170.3.22",
        source_port: int = 31600,
        probe_prefix: str = "classify",
    ) -> None:
        super().__init__(network, scanner_ip, source_port)
        self.hierarchy = hierarchy
        self.probe_prefix = probe_prefix

    def _qname(self, index: int) -> str:
        return f"{self.probe_prefix}-{index:06d}.{self.hierarchy.sld}"

    def classify(self, targets: list[str]) -> ClassificationReport:
        """Probe every target once and join the captures."""
        auth = self.hierarchy.auth
        zone = Zone(self.hierarchy.sld)
        self._qname_for: dict[str, str] = {}
        for index, target in enumerate(targets):
            qname = self._qname(index)
            self._qname_for[target] = qname
            zone.add_a(qname, auth.ip)
        auth.load_zone(zone)
        log_start = len(auth.query_log)
        self._responders: dict[str, str] = {}  # target -> answering address
        self.probe(targets)
        q2_sources: dict[str, str] = {}
        for entry in auth.query_log[log_start:]:
            q2_sources.setdefault(entry.qname, entry.src_ip)
        classes: dict[str, ResolverClass] = {}
        proxy_upstreams: dict[str, str] = {}
        transparent_upstreams: dict[str, str] = {}
        for target in targets:
            responder = self._responders.get(target)
            source = q2_sources.get(self._qname_for[target])
            if responder is None and source is None:
                classes[target] = ResolverClass.UNRESPONSIVE
            elif responder is not None and responder != target:
                # Off-path answer: the probe's unique qname came back
                # from an address the scan never touched — the
                # transparent-forwarder signature. The Q2 source (when
                # captured) is that same upstream.
                classes[target] = ResolverClass.TRANSPARENT_FORWARDER
                transparent_upstreams[target] = responder
            elif source is None:
                classes[target] = ResolverClass.FABRICATOR
            elif source == target:
                classes[target] = ResolverClass.RECURSIVE
            else:
                classes[target] = ResolverClass.PROXY
                proxy_upstreams[target] = source
        return ClassificationReport(
            classes=classes,
            proxy_upstreams=proxy_upstreams,
            transparent_upstreams=transparent_upstreams,
        )

    def queries(self, index: int, target: str):
        return [make_query(self._qname_for[target], msg_id=index & 0xFFFF)]

    def on_answer(self, target, source, response, now) -> None:
        # Last responder wins, mirroring the campaign join's
        # last-record-wins view of duplicate R2s.
        self._responders[target] = source


def build_classification_world(
    recursives: int = 10,
    proxies: int = 30,
    fabricators: int = 5,
    shared_upstreams: int = 3,
    transparent: int = 0,
    seed: int = 0,
) -> tuple[Network, Hierarchy, list[str]]:
    """A world with the Schomp-style resolver-population structure.

    Proxies dominate; each forwards to one of a few shared upstream
    (ISP) recursives that are not themselves in the probe list.
    Transparent forwarders relay with the client's source address to
    the same shared upstreams, so their answers arrive off-path.
    """
    if shared_upstreams <= 0:
        raise ValueError("need at least one shared upstream")
    network = Network(seed=seed)
    hierarchy = build_hierarchy(network)
    targets: list[str] = []
    upstream_ips = []
    for index in range(shared_upstreams):
        ip = f"203.10.0.{index + 1}"
        RecursiveResolver(ip, hierarchy.root_servers).attach(network)
        upstream_ips.append(ip)
    for index in range(recursives):
        ip = f"203.20.{index // 250}.{index % 250 + 1}"
        RecursiveResolver(ip, hierarchy.root_servers).attach(network)
        targets.append(ip)
    for index in range(proxies):
        ip = f"203.30.{index // 250}.{index % 250 + 1}"
        ForwardingResolver(ip, upstream_ips[index % shared_upstreams]).attach(
            network
        )
        targets.append(ip)
    for index in range(fabricators):
        ip = f"203.40.{index // 250}.{index % 250 + 1}"
        spec = BehaviorSpec(
            name="fabricator", mode=ResponseMode.FABRICATE, ra=True, aa=True,
            answer_kind=AnswerKind.INCORRECT_IP, fixed_answer="208.91.197.91",
        )
        BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
        targets.append(ip)
    for index in range(transparent):
        ip = f"203.50.{index // 250}.{index % 250 + 1}"
        spec = BehaviorSpec(
            name="transparent", mode=ResponseMode.TRANSPARENT, ra=True,
            aa=False, answer_kind=AnswerKind.CORRECT,
            forward_to=upstream_ips[index % shared_upstreams],
        )
        BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
        targets.append(ip)
    return network, hierarchy, targets


def render_classification(report: ClassificationReport) -> str:
    """Text summary of the classification."""
    lines = ["Resolver classification (Schomp-style dual capture)"]
    for cls in ResolverClass:
        lines.append(
            f"  {cls.value:<18} {report.count(cls):>6,} "
            f"({report.share(cls):.1%})"
        )
    fan_in = report.upstream_fan_in
    if fan_in:
        lines.append("")
        lines.append("  proxy fan-in (upstream <- proxies):")
        for upstream, count in sorted(fan_in.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {upstream:<16} <- {count:,} proxies")
    transparent_fan_in = report.transparent_fan_in
    if transparent_fan_in:
        lines.append("")
        lines.append("  transparent fan-in (upstream <- forwarders):")
        for upstream, count in sorted(
            transparent_fan_in.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {upstream:<16} <- {count:,} forwarders")
    return "\n".join(lines)
