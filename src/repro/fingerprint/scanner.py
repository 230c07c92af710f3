"""The version.bind scanner.

Sends CHAOS TXT ``version.bind`` queries to a target list over the
simulated network and collects banners — the second-pass scan the
fingerprinting literature runs against the open resolvers a first
scan discovered.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.chaos import VERSION_BIND, extract_banner
from repro.dnslib.constants import DnsClass, QueryType, Rcode
from repro.dnslib.message import make_query
from repro.netsim.network import Network
from repro.prober.targets import TargetScan


@dataclasses.dataclass
class VersionScanResult:
    """The banner census raw material."""

    banners: dict[str, str]     # ip -> banner text
    refused: list[str]          # ips that answered REFUSED (hiding)
    silent: list[str]           # ips that never answered

    @property
    def responded(self) -> int:
        return len(self.banners) + len(self.refused)


class VersionScanner(TargetScan):
    """Fingerprints a target list with version.bind queries."""

    def __init__(
        self,
        network: Network,
        scanner_ip: str = "132.170.3.15",
        source_port: int = 31338,
    ) -> None:
        super().__init__(network, scanner_ip, source_port)

    def scan(self, targets: list[str]) -> VersionScanResult:
        """Query every target and drain the network."""
        self._banners: dict[str, str] = {}
        self._refused: set[str] = set()
        self.probe(targets)
        answered = set(self._banners) | self._refused
        return VersionScanResult(
            banners=dict(self._banners),
            refused=sorted(self._refused),
            silent=[target for target in targets if target not in answered],
        )

    def queries(self, index: int, target: str):
        return [
            make_query(
                VERSION_BIND, qtype=QueryType.TXT, qclass=DnsClass.CH,
                msg_id=index & 0xFFFF, recursion_desired=False,
            )
        ]

    def on_answer(self, target, source, response, now) -> None:
        banner = extract_banner(response)
        if banner is not None:
            self._banners[target] = banner
        elif response.rcode == Rcode.REFUSED:
            self._refused.add(target)
