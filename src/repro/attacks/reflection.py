"""Spoofed-source reflection through open resolvers (section II-C).

The attacker sends 'ANY' queries whose claimed source is the victim;
each open resolver dutifully resolves and sends its (much larger)
response to the victim. The report compares bytes the attacker spent
with bytes the victim received — the paper's "the open resolver acts
as an attack amplifier".

This is the one reflection implementation: ``repro amplify`` and the
RRL ablation fire every query at once, and the attack matrix's
``reflection`` cells pace the same queries at the suite's attack rate.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.constants import QueryType
from repro.dnslib.edns import add_edns
from repro.dnslib.message import make_query
from repro.dnslib.wire import encode_message
from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.netsim.pcap import PacketTap

#: The forged source port: where the victim "asked" from.
VICTIM_PORT = 53000


@dataclasses.dataclass(frozen=True)
class AttackReport:
    """Outcome of one attack run."""

    queries_sent: int
    attacker_bytes: int
    victim_bytes: int
    victim_packets: int

    @property
    def amplification_factor(self) -> float:
        if self.attacker_bytes == 0:
            return 0.0
        return self.victim_bytes / self.attacker_bytes


class AmplificationAttack:
    """Drives spoofed EDNS ANY queries through a fleet of open resolvers."""

    def __init__(
        self,
        network: Network,
        attacker_ip: str,
        victim_ip: str,
        resolver_ips: list[str],
        qname: str,
    ) -> None:
        if not resolver_ips:
            raise ValueError("need at least one open resolver to reflect off")
        self.network = network
        self.attacker_ip = attacker_ip
        self.victim_ip = victim_ip
        self.resolver_ips = list(resolver_ips)
        self.qname = qname

    def launch(self, rounds: int = 1, qps: float | None = None) -> AttackReport:
        """Send ``rounds`` spoofed queries to every resolver, run the
        network dry and tally what reached the victim.

        Without ``qps`` every query leaves at once; with it the k-th
        query leaves ``k / qps`` seconds from now. Whatever else is
        scheduled on the network runs in the same drain.
        """
        network = self.network
        victim_tap = PacketTap("victim", predicate=lambda dg: True)
        network.attach_tap(self.victim_ip, victim_tap)
        # The victim is an innocent host: nothing listens, packets just
        # arrive (and are counted by the tap before being dropped).
        attacker_bytes = 0
        queries = 0
        for _ in range(rounds):
            for resolver_ip in self.resolver_ips:
                query = make_query(
                    self.qname, qtype=QueryType.ANY, msg_id=queries & 0xFFFF
                )
                add_edns(query)
                spoofed = Datagram(
                    src_ip=self.victim_ip,        # forged source
                    src_port=VICTIM_PORT,
                    dst_ip=resolver_ip,
                    dst_port=53,
                    payload=encode_message(query),
                )
                if qps is None:
                    network.send(spoofed, origin=self.attacker_ip)
                else:
                    network.scheduler.after(
                        queries / qps,
                        lambda dg=spoofed: network.send(
                            dg, origin=self.attacker_ip
                        ),
                    )
                attacker_bytes += spoofed.wire_size
                queries += 1
        network.run()
        inbound = victim_tap.inbound()
        network.detach_tap(self.victim_ip, victim_tap)
        return AttackReport(
            queries_sent=queries,
            attacker_bytes=attacker_bytes,
            victim_bytes=sum(record.datagram.wire_size for record in inbound),
            victim_packets=len(inbound),
        )
