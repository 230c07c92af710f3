"""The target-scan engine: one loop for every second pass over responders.

The censuses run after a campaign (version.bind banners, the DNSSEC
censuses, the two classifiers, the record-injection test) are second
passes over its responders. Like ZMap's probe modules over its one
scanner, each is a :class:`TargetScan` that supplies only its queries
for one target and what an answer means.
"""

from __future__ import annotations

from typing import Iterable

from repro.dnslib.message import DnsMessage
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.netsim.network import Network
from repro.netsim.packet import Datagram


class TargetScan:
    """Base class of a scan that probes each target of a list.

    An answer belongs to a target only when the target sent it, unless
    the scan sets :attr:`by_qname`: then it belongs to the target whose
    probe carried its (unique) qname, from whatever address it came.
    """

    by_qname = False

    def __init__(self, network: Network, scanner_ip: str, source_port: int) -> None:
        self.network = network
        self.scanner_ip = scanner_ip
        self.source_port = source_port

    def queries(self, index: int, target: str) -> Iterable[DnsMessage]:
        """The messages for ``targets[index]``, in send order."""
        raise NotImplementedError

    def on_answer(
        self, target: str, source: str, response: DnsMessage, now: float
    ) -> None:
        """Read one decoded answer for ``target``, sent by ``source``."""

    def probe(self, targets: list[str], auth=None, zone=None) -> None:
        """Bind, send every target its queries, run the network, unbind.

        ``zone``, when given, is served by ``auth`` for this scan only.
        Answers that do not decode or belong to no target are dropped.
        """
        probed = set(targets)
        owner: dict[str, str] = {}  # probe qname -> target, by_qname only

        def handle(datagram: Datagram, network: Network) -> None:
            try:
                response = decode_message(datagram.payload)
            except DnsWireError:
                return
            source = datagram.src_ip
            if self.by_qname:
                target = owner.get(response.qname)
            else:
                target = source if source in probed else None
            if target is not None:
                self.on_answer(target, source, response, network.now)

        network, ip, port = self.network, self.scanner_ip, self.source_port
        if zone is not None:
            auth.load_zone(zone)
        network.bind(ip, port, handle)
        try:
            for index, target in enumerate(targets):
                for query in self.queries(index, target):
                    if self.by_qname:
                        owner[query.qname] = target
                    network.send(
                        Datagram(ip, port, target, 53, encode_message(query))
                    )
            network.run()
        finally:
            network.unbind(ip, port)
            if zone is not None:
                auth.unload_zone(zone.origin)
