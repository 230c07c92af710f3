"""A forwarding resolver (DNS proxy).

Schomp et al. distinguish recursive resolvers from the far more common
*DNS proxies* — home gateways that forward queries to an upstream
resolver. The paper's open-resolver population is full of these; a
proxy is "open" if it forwards for anyone. Proxies also explain some
header oddities: a cheap CPE box may relay the upstream answer while
mangling flag bits.

Outstanding-entry lifecycle: every relayed query is remembered until
the upstream answers *or* it ages past ``eviction_horizon`` — a
blackholed upstream must not pin entries (and the serve daemon's
drain gate) forever. An answer counts only if it comes from the
upstream the query went to and echoes the client's question. The
sweep is amortized like the rate limiter's idle-horizon eviction: it
runs at most once per horizon from the packet handlers, and
unconditionally from ``pending_count`` so drain polling alone retires
dead entries.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.constants import Rcode
from repro.dnslib.message import DnsMessage, make_response
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnssrv.txid import allocate_txid, echoes_question
from repro.netsim.packet import Datagram
from repro.policy.engine import PolicyAction, PolicyEngine
from repro.transport.base import Transport

#: Port the proxy uses toward its upstream resolver.
FORWARD_PORT = 10054

#: How long a relayed query waits for its upstream before eviction.
EVICTION_HORIZON = 10.0


@dataclasses.dataclass
class _Outstanding:
    client: Datagram
    created: float
    upstream_ip: str
    #: The client's question (None for a query without one), which the
    #: upstream's answer must echo.
    qname: str | None = None
    qtype: int | None = None


class ForwardingResolver:
    """Relays client queries to ``upstream_ip`` and answers back.

    ``mangle`` is an optional hook applied to the upstream response
    before it is relayed — used by the population models to express
    flag-rewriting CPE firmware. ``policy`` is an optional
    :class:`~repro.policy.engine.PolicyEngine` evaluated on every
    client query (local REFUSED/NXDOMAIN/sinkhole answers, per-zone
    upstream routing) and every relayed answer (rewrite hook).
    """

    def __init__(
        self,
        ip: str,
        upstream_ip: str,
        mangle=None,
        forward_port: int = FORWARD_PORT,
        upstream_port: int = 53,
        policy: PolicyEngine | None = None,
        eviction_horizon: float | None = EVICTION_HORIZON,
    ) -> None:
        """``forward_port`` is the proxy's source port toward the
        upstream (0 on the socket backend picks an ephemeral one);
        ``upstream_port`` is where the upstream resolver listens.
        ``eviction_horizon=None`` disables the outstanding sweep."""
        if eviction_horizon is not None and eviction_horizon <= 0:
            raise ValueError("eviction_horizon must be positive (or None)")
        self.ip = ip
        self.upstream_ip = upstream_ip
        self.mangle = mangle
        self.forward_port = forward_port
        self.upstream_port = upstream_port
        self.policy = policy
        self.eviction_horizon = eviction_horizon
        self._network: Transport | None = None
        self._outstanding: dict[int, _Outstanding] = {}
        self._next_id = 1
        self._last_sweep = float("-inf")
        self.forwarded = 0
        self.relayed = 0
        self.answered_locally = 0
        self.evicted = 0
        self.txid_collisions = 0
        self.txid_exhausted = 0

    def attach(self, network: Transport, port: int = 53):
        self._network = network
        listener = network.bind(self.ip, port, self.handle_client)
        forward = network.bind(self.ip, self.forward_port, self.handle_upstream)
        if forward is not None:
            self.forward_port = forward.endpoint.port
        return listener

    @property
    def pending_count(self) -> int:
        """Queries relayed upstream and not yet answered or evicted."""
        if self._network is not None and self.eviction_horizon is not None:
            self._sweep(self._network.now)
        return len(self._outstanding)

    def _maybe_sweep(self, now: float) -> None:
        """Amortized eviction: at most one sweep per horizon."""
        if self.eviction_horizon is None:
            return
        if now - self._last_sweep >= self.eviction_horizon:
            self._sweep(now)

    def _sweep(self, now: float) -> None:
        horizon = self.eviction_horizon
        if horizon is None:
            return
        dead = [
            msg_id
            for msg_id, entry in self._outstanding.items()
            if now - entry.created >= horizon
        ]
        for msg_id in dead:
            del self._outstanding[msg_id]
        self.evicted += len(dead)
        self._last_sweep = now

    def _allocate_txid(self) -> int | None:
        """The next free upstream txid, skipping ids still in flight.

        Overwriting a live entry on wraparound would orphan the older
        client and could relay its answer to the wrong one; instead we
        probe forward (counting collisions) and drop the query outright
        when every id is busy.
        """
        msg_id, self._next_id, collisions = allocate_txid(
            self._outstanding, self._next_id
        )
        self.txid_collisions += collisions
        if msg_id is None:
            self.txid_exhausted += 1
        return msg_id

    def handle_client(self, datagram: Datagram, network: Transport) -> None:
        try:
            query = decode_message(datagram.payload)
        except DnsWireError:
            return
        self._maybe_sweep(network.now)
        upstream_ip = self.upstream_ip
        if self.policy is not None:
            decision = self.policy.evaluate_query(datagram.src_ip, query.qname)
            if decision.action is PolicyAction.REFUSE:
                self._answer_locally(datagram, network, make_response(query, rcode=Rcode.REFUSED))
                return
            if decision.action is PolicyAction.NXDOMAIN:
                self._answer_locally(datagram, network, make_response(query, rcode=Rcode.NXDOMAIN))
                return
            if decision.action is PolicyAction.SINKHOLE:
                response = make_response(
                    query, answers=[self.policy.sinkhole_answer(query.qname)]
                )
                self._answer_locally(datagram, network, response)
                return
            if decision.action is PolicyAction.ROUTE:
                upstream_ip = decision.target
        msg_id = self._allocate_txid()
        if msg_id is None:
            return
        self._outstanding[msg_id] = _Outstanding(
            datagram, network.now, upstream_ip, query.qname,
            query.questions[0].qtype if query.questions else None,
        )
        # The client's additionals (EDNS OPT and friends) ride along:
        # the upstream and the header-analysis tables need them intact.
        rewritten = DnsMessage(
            header=dataclasses.replace(query.header, msg_id=msg_id),
            questions=list(query.questions),
            additionals=list(query.additionals),
        )
        self.forwarded += 1
        network.send(
            Datagram(
                self.ip, self.forward_port, upstream_ip,
                self.upstream_port, encode_message(rewritten),
            )
        )

    def _answer_locally(
        self, datagram: Datagram, network: Transport, response: DnsMessage
    ) -> None:
        if self.policy is not None:
            response = self.policy.rewrite_response(response)
        self.answered_locally += 1
        network.send(datagram.reply(encode_message(response)))

    def handle_upstream(self, datagram: Datagram, network: Transport) -> None:
        try:
            response = decode_message(datagram.payload)
        except DnsWireError:
            return
        self._maybe_sweep(network.now)
        msg_id = response.header.msg_id
        outstanding = self._outstanding.get(msg_id)
        if outstanding is None:
            return
        if datagram.src_ip != outstanding.upstream_ip or not echoes_question(
            response, outstanding.qname, outstanding.qtype
        ):
            # Forged, or late for an earlier use of this id: the real
            # answer may still arrive before the entry is evicted.
            return
        del self._outstanding[msg_id]
        relayed = DnsMessage(
            header=dataclasses.replace(
                response.header,
                msg_id=_original_id(outstanding.client),
            ),
            questions=list(response.questions),
            answers=list(response.answers),
            authorities=list(response.authorities),
            additionals=list(response.additionals),
        )
        if self.mangle is not None:
            relayed = self.mangle(relayed)
        if self.policy is not None:
            relayed = self.policy.rewrite_response(relayed)
        self.relayed += 1
        network.send(outstanding.client.reply(encode_message(relayed)))


def _original_id(client: Datagram) -> int:
    """The client's original message ID: the first two bytes of its query.

    ``handle_client`` decoded this payload before keeping it, so it
    holds at least a whole header.
    """
    payload = client.payload
    return payload[0] << 8 | payload[1]
