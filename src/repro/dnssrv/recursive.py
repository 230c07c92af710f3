"""The iterative-resolution engine behind a *standard* open resolver.

Implements Fig 1 of the paper: a client query arrives (step 1), the
engine walks root → TLD → authoritative following referrals (steps
2-7), caches the result and answers the client with RA=1 (step 8).

The engine is fully event-driven over the simulated network: an
upstream answer completes the pending resolution whose message ID it
carries only if it comes from the server that was asked and echoes the
question that was asked; retries move to the next server of the
current referral level, and exhaustion or depth overrun yields
SERVFAIL — the standard-conformant behaviors the paper's deviant
resolvers fail to exhibit.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.chaos import is_version_bind_query, version_bind_response
from repro.dnslib.constants import DnsClass, QueryType, Rcode
from repro.dnslib.fastwire import FastQuery, parse_simple_query
from repro.dnslib.message import DnsMessage, make_query, make_response
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnssrv.cache import DnsCache
from repro.dnssrv.txid import allocate_txid, echoes_question
from repro.netsim.packet import Datagram
from repro.policy.engine import PolicyAction
from repro.transport.base import CancelHandle, Transport

#: Port the engine uses for its upstream (iterative) queries.
UPSTREAM_PORT = 10053


@dataclasses.dataclass
class ResolutionTrace:
    """The servers consulted while resolving one name, in order."""

    qname: str
    steps: list[tuple[str, str]] = dataclasses.field(default_factory=list)
    outcome: str = "pending"

    def visit(self, server_ip: str, disposition: str) -> None:
        self.steps.append((server_ip, disposition))


@dataclasses.dataclass
class _Pending:
    client: Datagram | None
    query: DnsMessage | None
    qname: str
    qtype: int
    servers: list[str]
    server_index: int = 0
    depth: int = 0
    restarts: int = 0
    timeout_event: CancelHandle | None = None
    trace: ResolutionTrace | None = None
    #: Set on internal sub-resolutions spawned to chase a glueless NS
    #: name (the NXNSAttack vector); completion feeds the parent
    #: instead of answering a client.
    parent: "_Pending | None" = None
    #: On a parent awaiting glueless NS children: how many are still in
    #: flight, and whether one already resumed the referral walk.
    ns_outstanding: int = 0
    ns_resumed: bool = False


@dataclasses.dataclass
class ResolverStats:
    client_queries: int = 0
    cache_answers: int = 0
    upstream_queries: int = 0
    answered: int = 0
    servfail: int = 0
    nxdomain: int = 0
    #: Defense/degradation accounting (all zero with the knobs off).
    quota_refused: int = 0
    negative_hits: int = 0
    load_shed: int = 0
    glueless_launched: int = 0
    glueless_capped: int = 0
    #: Upstream txid allocation: in-flight ids skipped, and resolutions
    #: failed because all 65,535 ids were busy.
    txid_collisions: int = 0
    txid_exhausted: int = 0


def _with_id(fast: FastQuery, payload: bytes) -> FastQuery:
    """``fast`` carrying ``payload``'s id; the bytes after it are equal."""
    return FastQuery(
        payload[0] << 8 | payload[1], fast.flags_word, fast.qname,
        fast.qtype, fast.qclass, fast.question_wire,
    )


class RecursiveResolver:
    """A correct, recursion-available resolver bound to one IP."""

    def __init__(
        self,
        ip: str,
        root_servers: list[str],
        cache: DnsCache | None = None,
        timeout: float = 2.0,
        max_depth: int = 8,
        max_restarts: int = 4,
        record_traces: bool = False,
        version_banner: str | None = None,
        accept_unsolicited_additionals: bool = False,
        rate_limiter=None,
        query_quota=None,
        negative_ttl: float = 0.0,
        max_negative_entries: int = 10_000,
        max_glueless: int = 0,
        max_pending: int | None = None,
        upstream_port: int = UPSTREAM_PORT,
        server_port: int = 53,
        policy=None,
    ) -> None:
        """``accept_unsolicited_additionals=True`` models the record-
        injection vulnerability of Schomp et al. / Klein et al.: the
        resolver caches A records from a response's additional section
        without a bailiwick check, letting a malicious authoritative
        server plant answers for *other* domains.

        The remaining knobs are the defense matrix (DESIGN.md §11):

        - ``query_quota`` — a :class:`~repro.dnssrv.ratelimit
          .ClientQueryQuota`; clients over budget get REFUSED before
          any recursion starts;
        - ``negative_ttl`` — cache NXDOMAIN/SERVFAIL outcomes for that
          many seconds (RFC 2308 in miniature), so repeated junk names
          stop reaching the authoritative hierarchy;
        - ``max_glueless`` — how many glueless NS names one referral
          may fan out into sub-resolutions (0 disables the chase
          entirely, the historical behavior; NXNSAttack's fix caps
          this small);
        - ``max_pending`` — bound on the in-flight resolution table;
          at the bound new work is shed with SERVFAIL (counted in
          ``stats.load_shed``) instead of growing without limit.

        ``upstream_port`` is the source port for iterative queries
        (``0`` on the socket backend picks an ephemeral port — attach
        records the resolved one); ``server_port`` is where the
        root/TLD/authoritative servers listen. Both default to the
        historical simulator values.

        ``policy`` is an optional :class:`~repro.policy.engine
        .PolicyEngine` consulted before the defense knobs on every
        client query (REFUSED/NXDOMAIN/sinkhole verdicts answered
        locally, zone routes seeding resolution at the routed
        upstream) and on every outbound answer (rewrite hook).
        Restarted resolutions (CNAME chase, stale-cache retry) fall
        back to the root servers even for routed zones.
        """
        if not root_servers:
            raise ValueError("need at least one root server address")
        if negative_ttl < 0:
            raise ValueError("negative_ttl must be non-negative")
        if max_glueless < 0:
            raise ValueError("max_glueless must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        self.ip = ip
        self.version_banner = version_banner
        self.accept_unsolicited_additionals = accept_unsolicited_additionals
        self.rate_limiter = rate_limiter
        self.query_quota = query_quota
        self.negative_ttl = negative_ttl
        self.max_negative_entries = max_negative_entries
        self.max_glueless = max_glueless
        self.max_pending = max_pending
        self.policy = policy
        self.root_servers = list(root_servers)
        self.cache = cache if cache is not None else DnsCache()
        self.timeout = timeout
        self.max_depth = max_depth
        self.max_restarts = max_restarts
        self.record_traces = record_traces
        self.upstream_port = upstream_port
        self.server_port = server_port
        self.traces: list[ResolutionTrace] = []
        self.stats = ResolverStats()
        self._network: Transport | None = None
        self._pending: dict[int, _Pending] = {}
        self._negative: dict[tuple[str, int], tuple[float, int]] = {}
        self._next_id = 1
        #: Cache-hit reply memo: query bytes after the id -> (their
        #: parse, the rrset the reply was encoded from, the reply bytes
        #: after the id).
        self._hit_memo: dict[bytes, tuple[FastQuery, list, bytes]] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, network: Transport, port: int = 53):
        """Bind the client-facing port and the upstream port.

        Returns the client-facing :class:`~repro.transport.base
        .Listener` on transports that produce one (the bare simulated
        network returns None). Binding an ephemeral upstream port
        (``upstream_port=0``) records the resolved port so outgoing
        iterative queries carry the address their socket really has.
        """
        self._network = network
        listener = network.bind(self.ip, port, self.handle_client)
        upstream = network.bind(self.ip, self.upstream_port, self.handle_upstream)
        if upstream is not None:
            self.upstream_port = upstream.endpoint.port
        return listener

    @property
    def pending_count(self) -> int:
        """In-flight resolutions (the daemon's drain gate)."""
        return len(self._pending)

    # -- client side ---------------------------------------------------------

    def handle_client(self, datagram: Datagram, network: Transport) -> None:
        if self.policy is None:
            payload = datagram.payload
            memo = self._hit_memo.get(payload[2:])
            if memo is not None:
                # The parser's verdict ignores the id, and these bytes
                # after it were accepted when the entry was made.
                fast = _with_id(memo[0], payload)
            else:
                fast = parse_simple_query(payload)
            if fast is not None and fast.qclass == DnsClass.IN:
                self._handle_simple(datagram, network, fast, memo)
                return
        try:
            query = decode_message(datagram.payload)
        except DnsWireError:
            return
        self.stats.client_queries += 1
        if not query.questions:
            self._reply(datagram, make_response(query, rcode=Rcode.FORMERR, ra=True))
            return
        if is_version_bind_query(query):
            network.send(
                datagram.reply(version_bind_response(query, self.version_banner))
            )
            return
        route_servers: list[str] | None = None
        if self.policy is not None:
            decision = self.policy.evaluate_query(datagram.src_ip, query.qname)
            if decision.action is PolicyAction.REFUSE:
                self._reply(
                    datagram, make_response(query, rcode=Rcode.REFUSED, ra=True)
                )
                return
            if decision.action is PolicyAction.NXDOMAIN:
                self.stats.nxdomain += 1
                self._reply(
                    datagram, make_response(query, rcode=Rcode.NXDOMAIN, ra=True)
                )
                return
            if decision.action is PolicyAction.SINKHOLE:
                self.stats.answered += 1
                self._reply(
                    datagram,
                    make_response(
                        query,
                        answers=[self.policy.sinkhole_answer(query.qname)],
                        ra=True,
                    ),
                )
                return
            if decision.action is PolicyAction.ROUTE:
                route_servers = [decision.target]
        if self._over_quota(datagram, network):
            self._reply(
                datagram, make_response(query, rcode=Rcode.REFUSED, ra=True)
            )
            return
        question = query.questions[0]
        cached = self.cache.get(question.qname, question.qtype, network.now)
        if cached is not None:
            self._answer_cached(datagram, query, cached)
            return
        self._recurse(datagram, network, query, route_servers)

    def _handle_simple(
        self,
        datagram: Datagram,
        network: Transport,
        fast: FastQuery,
        memo: tuple[FastQuery, list, bytes] | None,
    ) -> None:
        """Serve a strictly parsed IN query when no policy is configured.

        Same steps in the same order as :meth:`handle_client`, but a
        cache hit whose reply is memoised goes out as the query's id
        followed by the memoised reply tail: no decode, no
        ``make_response``, no encode. Everything else continues from
        ``fast.to_message()``, which is exactly the decoded query.
        """
        self.stats.client_queries += 1
        if self._over_quota(datagram, network):
            self._reply(
                datagram,
                make_response(fast.to_message(), rcode=Rcode.REFUSED, ra=True),
            )
            return
        cached = self.cache.get(fast.qname, fast.qtype, network.now)
        if cached is None:
            self._recurse(datagram, network, fast.to_message(), None)
            return
        payload = datagram.payload
        if memo is not None and memo[1] == cached:
            self.stats.cache_answers += 1
            self.stats.answered += 1
            if self._rrl_allows(datagram, network):
                network.send(datagram.reply(payload[:2] + memo[2]))
            return
        wire = self._answer_cached(datagram, fast.to_message(), cached)
        if wire is not None:
            self._remember_hit(payload[2:], fast, cached, wire[2:])

    def _remember_hit(
        self, key: bytes, fast: FastQuery, rrset: list, tail: bytes
    ) -> None:
        """Memoise one encoded cache-hit reply, FIFO-bounded like the cache.

        A reply is a pure function of the query bytes after the id and
        the rrset it answers with, so an entry stays exact for as long
        as :meth:`DnsCache.get` returns an equal rrset.
        """
        memo = self._hit_memo
        if key not in memo and len(memo) >= self.cache.max_entries:
            del memo[next(iter(memo))]
        memo[key] = (fast, rrset, tail)

    def _over_quota(self, datagram: Datagram, network: Transport) -> bool:
        if self.query_quota is None or self.query_quota.allow(
            datagram.src_ip, network.now
        ):
            return False
        self.stats.quota_refused += 1
        return True

    def _answer_cached(
        self, datagram: Datagram, query: DnsMessage, cached: list
    ) -> bytes | None:
        self.stats.cache_answers += 1
        self.stats.answered += 1
        return self._reply(datagram, make_response(query, answers=cached, ra=True))

    def _recurse(
        self,
        datagram: Datagram,
        network: Transport,
        query: DnsMessage,
        route_servers: list[str] | None,
    ) -> None:
        """A positive-cache miss: negative cache, load shedding, then
        start walking the hierarchy."""
        question = query.questions[0]
        if self.negative_ttl > 0.0:
            entry = self._negative.get((question.qname, int(question.qtype)))
            if entry is not None:
                expires, rcode = entry
                if network.now < expires:
                    self.stats.negative_hits += 1
                    if rcode == Rcode.NXDOMAIN:
                        self.stats.nxdomain += 1
                    else:
                        self.stats.servfail += 1
                    self._reply(
                        datagram, make_response(query, rcode=rcode, ra=True)
                    )
                    return
                del self._negative[(question.qname, int(question.qtype))]
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            self.stats.load_shed += 1
            self.stats.servfail += 1
            self._reply(
                datagram, make_response(query, rcode=Rcode.SERVFAIL, ra=True)
            )
            return
        pending = _Pending(
            client=datagram,
            query=query,
            qname=question.qname,
            qtype=int(question.qtype),
            servers=route_servers if route_servers is not None else list(self.root_servers),
        )
        if self.record_traces:
            pending.trace = ResolutionTrace(question.qname)
            self.traces.append(pending.trace)
        self._send_upstream(pending)

    # -- upstream side ---------------------------------------------------

    def _send_upstream(self, pending: _Pending) -> None:
        network = self._require_network()
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        msg_id, self._next_id, collisions = allocate_txid(
            self._pending, self._next_id
        )
        self.stats.txid_collisions += collisions
        if msg_id is None:
            self.stats.txid_exhausted += 1
            self._finish_error(pending, Rcode.SERVFAIL)
            return
        self._pending[msg_id] = pending
        pending.timeout_event = network.schedule(
            self.timeout, lambda: self._on_timeout(msg_id)
        )
        server_ip = pending.servers[pending.server_index]
        upstream = make_query(
            pending.qname, qtype=pending.qtype, msg_id=msg_id, recursion_desired=False
        )
        self.stats.upstream_queries += 1
        network.send(
            Datagram(
                self.ip, self.upstream_port, server_ip, self.server_port,
                encode_message(upstream),
            )
        )

    def handle_upstream(self, datagram: Datagram, network: Transport) -> None:
        try:
            response = decode_message(datagram.payload)
        except DnsWireError:
            return
        msg_id = response.header.msg_id
        pending = self._pending.get(msg_id)
        if pending is None:
            return  # late or unsolicited
        asked = pending.servers[pending.server_index]
        if datagram.src_ip != asked or not echoes_question(
            response, pending.qname, pending.qtype
        ):
            # Forged, or late for an earlier use of this id: the real
            # answer may still arrive before the timeout.
            return
        del self._pending[msg_id]
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        self._advance(pending, datagram.src_ip, response)

    def _advance(self, pending: _Pending, server_ip: str, response: DnsMessage) -> None:
        """Interpret one upstream response: answer, referral, or error."""
        if self.accept_unsolicited_additionals and response.answers:
            # VULNERABLE PATH: cache additional-section A records with no
            # bailiwick check (the record-injection vector).
            network = self._require_network()
            for record in response.additionals:
                if record.rtype == QueryType.A:
                    self.cache.put(record.name, QueryType.A, [record], network.now)
        if response.rcode != Rcode.NOERROR:
            self._trace(pending, server_ip, Rcode(response.rcode).name.lower())
            self._finish_error(pending, response.rcode)
            return
        if response.answers:
            addresses = [
                record for record in response.answers if record.rtype == pending.qtype
            ]
            if addresses or pending.qtype == QueryType.ANY:
                self._trace(pending, server_ip, "answer")
                self._finish_answer(pending, response.answers)
                return
            cnames = [
                record
                for record in response.answers
                if record.rtype == QueryType.CNAME
            ]
            if cnames:
                self._trace(pending, server_ip, "cname")
                self._restart(pending, cnames[0].data.cname)
                return
            self._trace(pending, server_ip, "answer")
            self._finish_answer(pending, response.answers)
            return
        glue = {
            record.name: record.data.address
            for record in response.additionals
            if record.rtype == QueryType.A
        }
        referral_ips = [
            glue[record.data.nsdname]
            for record in response.authorities
            if record.rtype == QueryType.NS and record.data.nsdname in glue
        ]
        if referral_ips:
            self._trace(pending, server_ip, "referral")
            pending.depth += 1
            if pending.depth > self.max_depth:
                self._finish_error(pending, Rcode.SERVFAIL)
                return
            pending.servers = referral_ips
            pending.server_index = 0
            self._send_upstream(pending)
            return
        ns_names = [
            record.data.nsdname
            for record in response.authorities
            if record.rtype == QueryType.NS
        ]
        if ns_names and self.max_glueless > 0:
            self._chase_glueless(pending, server_ip, ns_names)
            return
        # NOERROR, no answers, no usable referral: NODATA.
        self._trace(pending, server_ip, "nodata")
        self._finish_answer(pending, [])

    def _chase_glueless(
        self, pending: _Pending, server_ip: str, ns_names: list[str]
    ) -> None:
        """Resolve glueless NS names with internal sub-resolutions.

        This is the NXNSAttack surface: one referral listing N glueless
        NS names fans out into up to N full root-to-auth walks for
        names the zone owner controls. ``max_glueless`` is the fan-out
        cap (the post-NXNS fix in production resolvers); the parent's
        depth counter still bounds chained referrals.
        """
        self._trace(pending, server_ip, "glueless")
        pending.depth += 1
        if pending.depth > self.max_depth:
            self._finish_error(pending, Rcode.SERVFAIL)
            return
        names = ns_names[: self.max_glueless]
        self.stats.glueless_capped += len(ns_names) - len(names)
        pending.ns_outstanding = len(names)
        pending.ns_resumed = False
        for name in names:
            self.stats.glueless_launched += 1
            child = _Pending(
                client=None,
                query=None,
                qname=name,
                qtype=int(QueryType.A),
                servers=list(self.root_servers),
                parent=pending,
            )
            self._send_upstream(child)

    def _restart(self, pending: _Pending, new_qname: str) -> None:
        """Chase a CNAME by restarting resolution at the root."""
        pending.restarts += 1
        if pending.restarts > self.max_restarts:
            self._finish_error(pending, Rcode.SERVFAIL)
            return
        pending.qname = new_qname
        pending.depth = 0
        pending.servers = list(self.root_servers)
        pending.server_index = 0
        self._send_upstream(pending)

    def _on_timeout(self, msg_id: int) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is None:
            return
        pending.server_index += 1
        if pending.server_index < len(pending.servers):
            self._send_upstream(pending)
            return
        self._finish_error(pending, Rcode.SERVFAIL)

    # -- completion ------------------------------------------------------

    def _finish_answer(self, pending: _Pending, answers) -> None:
        network = self._require_network()
        if answers:
            self.cache.put(pending.qname, pending.qtype, answers, network.now)
        if pending.parent is not None:
            self._finish_glueless(pending, answers)
            return
        self.stats.answered += 1
        if pending.trace is not None:
            pending.trace.outcome = "answered"
        self._reply(
            pending.client, make_response(pending.query, answers=answers, ra=True)
        )

    def _finish_error(self, pending: _Pending, rcode: int) -> None:
        if self.negative_ttl > 0.0 and rcode in (Rcode.NXDOMAIN, Rcode.SERVFAIL):
            self._store_negative(pending.qname, pending.qtype, int(rcode))
        if pending.trace is not None:
            pending.trace.outcome = Rcode(rcode).name.lower()
        if pending.parent is not None:
            self._finish_glueless(pending, [])
            return
        if rcode == Rcode.NXDOMAIN:
            self.stats.nxdomain += 1
        else:
            self.stats.servfail += 1
        self._reply(pending.client, make_response(pending.query, rcode=rcode, ra=True))

    def _finish_glueless(self, child: _Pending, answers) -> None:
        """Fold a glueless-NS sub-resolution back into its parent.

        The first child to produce an address resumes the parent's
        referral walk against that address; children completing after
        the resume are no-ops. If every child fails the parent
        SERVFAILs — there is no server left to ask.
        """
        parent = child.parent
        if parent is None:  # pragma: no cover - guarded by callers
            return
        parent.ns_outstanding -= 1
        if parent.ns_resumed:
            return
        addresses = [
            record.data.address
            for record in answers
            if record.rtype == QueryType.A
        ]
        if addresses:
            parent.ns_resumed = True
            parent.servers = addresses
            parent.server_index = 0
            self._send_upstream(parent)
            return
        if parent.ns_outstanding == 0:
            self._finish_error(parent, Rcode.SERVFAIL)

    def _store_negative(self, qname: str, qtype: int, rcode: int) -> None:
        """Bounded RFC 2308-style negative cache (NXDOMAIN/SERVFAIL)."""
        if len(self._negative) >= self.max_negative_entries:
            # Deterministic FIFO eviction: dicts preserve insert order.
            self._negative.pop(next(iter(self._negative)))
        network = self._require_network()
        self._negative[(qname, qtype)] = (
            network.now + self.negative_ttl, rcode,
        )

    def _reply(self, client: Datagram, response: DnsMessage) -> bytes | None:
        """Rewrite (policy), rate-limit (RRL), encode and send a response.

        Returns the bytes sent, or None when RRL suppressed the reply.
        """
        network = self._require_network()
        if self.policy is not None:
            response = self.policy.rewrite_response(response)
        if not self._rrl_allows(client, network):
            return None
        wire = encode_message(response)
        network.send(client.reply(wire))
        return wire

    def _rrl_allows(self, client: Datagram, network: Transport) -> bool:
        return self.rate_limiter is None or self.rate_limiter.allow(
            client.src_ip, network.now
        )

    def _trace(self, pending: _Pending, server_ip: str, disposition: str) -> None:
        if pending.trace is not None:
            pending.trace.visit(server_ip, disposition)

    def _require_network(self) -> Transport:
        if self._network is None:
            raise RuntimeError("resolver not attached to a network")
        return self._network
