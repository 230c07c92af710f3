"""A host that enacts one :class:`BehaviorSpec` on the network.

Hosts in RESOLVE mode perform a real upstream resolution against the
measurement authoritative server (producing the Q2/R1 flows captured
there) before answering; FABRICATE hosts answer immediately from their
spec. Either way the R2 header is written exactly as the spec dictates
— which is how the population reproduces the paper's deviant flag and
rcode combinations.

Resolving hosts query the authoritative server directly rather than
walking root/TLD each time: a real resolver caches the ``.net`` and SLD
delegations after its first lookup, so steady-state Q2 goes straight to
the auth server (the only place the paper captures).
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.chaos import VERSION_BIND, is_version_bind_query, version_bind_response
from repro.dnslib.constants import DnsClass, QueryType, Rcode
from repro.dnslib.fastwire import (
    FastQuery,
    TemplateCache,
    build_query_wire,
    parse_simple_query,
    peek_single_a_response,
)
from repro.dnslib.message import DnsMessage, make_query, make_response
from repro.dnslib.names import DnsNameError, normalize_name
from repro.dnslib.records import (
    AData,
    CnameData,
    ResourceRecord,
    RrsigData,
    TxtData,
    bytes_to_ipv4,
)
from repro.dnslib.signing import verify_rrsig
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnssrv.txid import echoes_question
from repro.policy.engine import PolicyAction
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.netsim.packet import Datagram
from repro.transport.base import Transport

#: Port behavior hosts use toward the authoritative server.
HOST_UPSTREAM_PORT = 10055


@dataclasses.dataclass
class _PendingProbe:
    client: Datagram
    query: DnsMessage | None
    fast: FastQuery | None
    #: The server the upstream query went to; only its answer counts.
    server_ip: str

    def message(self) -> DnsMessage:
        """The client query as a :class:`DnsMessage`, however it arrived."""
        if self.query is not None:
            return self.query
        return self.fast.to_message()

    def echoed_by(self, response: DnsMessage) -> bool:
        """Whether ``response`` echoes the question this probe asked."""
        if self.fast is not None:
            return echoes_question(response, self.fast.qname, self.fast.qtype)
        question = self.query.questions[0]
        return echoes_question(response, question.qname, question.qtype)


class BehaviorHost:
    """One probed IP address and the behavior it exhibits.

    ``version_banner`` is the CHAOS TXT ``version.bind`` string the
    host reveals to fingerprinting scans (None: the host refuses, like
    a banner-hiding operator).
    """

    def __init__(
        self,
        ip: str,
        spec: BehaviorSpec,
        auth_ip: str,
        version_banner: str | None = None,
        dnssec_validating: bool = False,
        upstream_port: int = HOST_UPSTREAM_PORT,
        auth_port: int = 53,
        forward_port: int = 53,
        policy=None,
    ) -> None:
        """``upstream_port`` is the host's source port toward the auth
        server (0 on the socket backend picks an ephemeral one);
        ``auth_port`` is where that server listens; ``forward_port``
        is where a TRANSPARENT spec's ``forward_to`` upstream listens.
        Defaults are the historical simulator values.

        ``policy`` is an optional :class:`~repro.policy.engine
        .PolicyEngine`. A policied host takes the full-codec path for
        every query (the fast template cache cannot express per-query
        verdicts): block/sinkhole verdicts are answered locally, zone
        routes redirect the upstream (RESOLVE) or forward (TRANSPARENT)
        target, and outbound answers pass the rewrite hook — except
        MALFORMED wires, which are not decodable to rewrite."""
        self.ip = ip
        self.spec = spec
        self.auth_ip = auth_ip
        self.version_banner = version_banner
        self.dnssec_validating = dnssec_validating
        self.upstream_port = upstream_port
        self.auth_port = auth_port
        self.forward_port = forward_port
        self.policy = policy
        self._network: Transport | None = None
        self._pending: dict[int, _PendingProbe] = {}
        self._next_id = 1
        self.queries_received = 0
        self.responses_sent = 0
        # Verified response templates (see fastwire.TemplateCache): the
        # R2 for a given spec depends on the query only through
        # (msg_id, question), so responses are encoded once per shape
        # and patched per reply. CNAME targets are the one rdata that
        # can compress against the qname; guard their suffix profile.
        self._templates = TemplateCache()
        self._guard_names: tuple[str, ...] = ()
        if spec.answer_kind is AnswerKind.INCORRECT_URL and spec.fixed_answer:
            try:
                self._guard_names = (normalize_name(spec.fixed_answer),)
            except DnsNameError:
                pass  # the slow encoder will raise, template or not

    def attach(self, network: Transport, port: int = 53):
        self._network = network
        listener = network.bind(self.ip, port, self.handle_query)
        if self.spec.contacts_auth:
            upstream = network.bind(
                self.ip, self.upstream_port, self.handle_upstream
            )
            if upstream is not None:
                self.upstream_port = upstream.endpoint.port
        return listener

    @property
    def pending_count(self) -> int:
        """Probes awaiting an upstream response (the drain gate)."""
        return len(self._pending)

    # -- query path ------------------------------------------------------

    def handle_query(self, datagram: Datagram, network: Transport) -> None:
        if self.policy is not None:
            # Policy verdicts are per-query; the template fast path
            # cannot express them, so policied hosts always take the
            # full-codec route.
            self._handle_query_slow(datagram, network)
            return
        fast_query = parse_simple_query(datagram.payload)
        if fast_query is None:
            self._handle_query_slow(datagram, network)
            return
        self.queries_received += 1
        if (
            fast_query.qname == VERSION_BIND
            and fast_query.qclass == DnsClass.CH
            and fast_query.qtype in (QueryType.TXT, QueryType.ANY)
        ):
            self.responses_sent += 1
            network.send(
                datagram.reply(
                    version_bind_response(
                        fast_query.to_message(), self.version_banner
                    )
                )
            )
            return
        if self.spec.mode is ResponseMode.TRANSPARENT:
            ghost = (
                build_query_wire(
                    fast_query.qname, qtype=fast_query.qtype, msg_id=0,
                    recursion_desired=False,
                )
                if self.spec.extra_q2 else None
            )
            self._relay_transparent(datagram, ghost, network)
            return
        if self.spec.mode is ResponseMode.FABRICATE:
            self._respond_fabricated_fast(datagram, fast_query, network)
            return
        # RESOLVE: forward upstream. build_query_wire emits exactly the
        # bytes the make_query/encode_message pair did.
        msg_id = self._next_id
        self._next_id = self._next_id % 0xFFFF + 1
        self._pending[msg_id] = _PendingProbe(
            datagram, None, fast_query, self.auth_ip
        )
        network.send(
            Datagram(
                self.ip, self.upstream_port, self.auth_ip, self.auth_port,
                build_query_wire(
                    fast_query.qname, qtype=fast_query.qtype,
                    msg_id=msg_id, recursion_desired=False,
                ),
            )
        )
        if self.spec.extra_q2:
            # Resolver-farm / retry duplicates: extra upstream queries
            # whose responses are discarded (unknown message IDs). All
            # ghosts carry msg_id=0, so one encoding serves them all.
            ghost = build_query_wire(
                fast_query.qname, qtype=fast_query.qtype, msg_id=0,
                recursion_desired=False,
            )
            for _ in range(self.spec.extra_q2):
                network.send(
                    Datagram(self.ip, self.upstream_port, self.auth_ip,
                             self.auth_port, ghost)
                )

    def _handle_query_slow(self, datagram: Datagram, network: Transport) -> None:
        """The full-codec query path: anything the strict parser refused."""
        try:
            query = decode_message(datagram.payload)
        except DnsWireError:
            return
        self.queries_received += 1
        if is_version_bind_query(query):
            self.responses_sent += 1
            network.send(
                datagram.reply(version_bind_response(query, self.version_banner))
            )
            return
        route_ip: str | None = None
        if self.policy is not None:
            decision = self.policy.evaluate_query(datagram.src_ip, query.qname)
            if self._policy_answer(datagram, query, decision, network):
                return
            if decision.action is PolicyAction.ROUTE:
                route_ip = decision.target
        if self.spec.mode is ResponseMode.TRANSPARENT:
            qname = query.qname
            ghost = None
            if self.spec.extra_q2 and qname is not None:
                ghost = encode_message(
                    make_query(qname, qtype=query.questions[0].qtype,
                               msg_id=0, recursion_desired=False)
                )
            self._relay_transparent(datagram, ghost, network, forward_ip=route_ip)
            return
        if self.spec.mode is ResponseMode.FABRICATE:
            self._respond(datagram, query, resolved=None)
            return
        qname = query.qname
        if qname is None:
            self._respond(datagram, query, resolved=None)
            return
        auth_ip = route_ip if route_ip is not None else self.auth_ip
        qtype = query.questions[0].qtype
        msg_id = self._next_id
        self._next_id = self._next_id % 0xFFFF + 1
        self._pending[msg_id] = _PendingProbe(datagram, query, None, auth_ip)
        upstream = make_query(qname, qtype=qtype, msg_id=msg_id,
                              recursion_desired=False)
        network.send(
            Datagram(self.ip, self.upstream_port, auth_ip,
                     self.auth_port, encode_message(upstream))
        )
        # Resolver-farm / retry duplicates: extra upstream queries whose
        # responses are discarded (they arrive with unknown message IDs).
        for _ in range(self.spec.extra_q2):
            ghost = make_query(qname, qtype=qtype, msg_id=0,
                               recursion_desired=False)
            network.send(
                Datagram(self.ip, self.upstream_port, auth_ip,
                         self.auth_port, encode_message(ghost))
            )

    def _policy_answer(
        self,
        datagram: Datagram,
        query: DnsMessage,
        decision,
        network: Transport,
    ) -> bool:
        """Answer a blocked/sinkholed query locally; True when handled."""
        if decision.action is PolicyAction.REFUSE:
            response = make_response(query, rcode=Rcode.REFUSED, ra=self.spec.ra)
        elif decision.action is PolicyAction.NXDOMAIN:
            response = make_response(query, rcode=Rcode.NXDOMAIN, ra=self.spec.ra)
        elif decision.action is PolicyAction.SINKHOLE:
            response = make_response(
                query,
                answers=[self.policy.sinkhole_answer(query.qname)],
                ra=self.spec.ra,
            )
        else:
            return False
        response = self.policy.rewrite_response(response)
        self.responses_sent += 1
        network.send(datagram.reply(encode_message(response)))
        return True

    def _relay_transparent(
        self,
        datagram: Datagram,
        ghost: bytes | None,
        network: Transport,
        forward_ip: str | None = None,
    ) -> None:
        """Relay the query upstream with the *client's* source address.

        The upstream resolves and answers the client directly, so the
        prober's R2 arrives from an address that never received a probe
        — the transparent-forwarder signature. The host still emits its
        own ``extra_q2`` ghosts toward the auth server from its real
        address, exactly like a resolving farm member.
        """
        network.send(
            Datagram(
                datagram.src_ip, datagram.src_port,
                forward_ip if forward_ip is not None else self.spec.forward_to,
                self.forward_port, datagram.payload,
            ),
            origin=self.ip,
        )
        if ghost is not None:
            for _ in range(self.spec.extra_q2):
                network.send(
                    Datagram(self.ip, self.upstream_port, self.auth_ip,
                             self.auth_port, ghost)
                )

    def handle_upstream(self, datagram: Datagram, network: Transport) -> None:
        """Complete a pending probe with its upstream answer.

        The id alone does not prove the answer is the probe's: a forged
        or stray answer can carry it too. An answer counts only when it
        comes from the server the probe asked and echoes the probe's
        question (the question bytes on the single-A fast path);
        anything else is dropped and the probe stays pending.
        """
        fast = peek_single_a_response(datagram.payload)
        if fast is not None:
            msg_id, question_wire, ttl, addr = fast
            pending = self._pending.get(msg_id)
            if pending is None:
                return  # ghost duplicate
            fast_query = pending.fast
            if fast_query is not None:
                if (
                    datagram.src_ip != pending.server_ip
                    or fast_query.question_wire != question_wire
                ):
                    return
                del self._pending[msg_id]
                self._respond_resolved_fast(
                    pending.client, fast_query, ttl, addr, network
                )
                return
        try:
            response = decode_message(datagram.payload)
        except DnsWireError:
            return
        msg_id = response.header.msg_id
        pending = self._pending.get(msg_id)
        if pending is None:
            return  # ghost duplicate
        if (
            datagram.src_ip != pending.server_ip
            or not pending.echoed_by(response)
        ):
            return
        del self._pending[msg_id]
        if self.dnssec_validating and not self._resolved_validates(response):
            self._respond_servfail(pending.client, pending.message())
            return
        self._respond(pending.client, pending.message(), resolved=response)

    def _resolved_validates(self, response: DnsMessage) -> bool:
        """Check every RRSIG in the upstream answer against its RRset.

        Unsigned answers validate trivially (the toy model has no
        chain-of-trust, so "insecure" and "secure" both pass); a
        signature that fails verification makes the whole response
        bogus, which a validating resolver reports as SERVFAIL
        (RFC 4035 section 5.5).
        """
        answers = response.answers
        for record in answers:
            if not isinstance(record.data, RrsigData):
                continue
            covered = [
                other for other in answers
                if other.name == record.name
                and int(other.rtype) == int(record.data.type_covered)
            ]
            if not verify_rrsig(record.data, covered):
                return False
        return True

    def _respond_servfail(self, client: Datagram, query: DnsMessage) -> None:
        """The validator's bogus-signature verdict: SERVFAIL, no answer."""
        from repro.dnslib.constants import Rcode

        network = self._network
        if network is None:
            raise RuntimeError("host not attached")
        response = make_response(
            query, rcode=Rcode.SERVFAIL, answers=[],
            aa=False, ra=self.spec.ra,
        )
        self.responses_sent += 1
        network.send(client.reply(encode_message(response)))

    # -- fast response paths ---------------------------------------------

    def _respond_fabricated_fast(
        self, client: Datagram, fast_query: FastQuery, network: Transport
    ) -> None:
        """FABRICATE (or resolve-less) responses through the template cache."""
        key = (fast_query.qtype, fast_query.qclass,
               fast_query.flags_word & 0x0100)
        wire = self._templates.render(
            key, fast_query,
            lambda: self.build_response_wire(fast_query.to_message(), None),
            guard_names=self._guard_names,
        )
        self.responses_sent += 1
        network.send(client.reply(wire))

    def _respond_resolved_fast(
        self, client: Datagram, fast_query: FastQuery, ttl: int,
        addr: bytes, network: Transport,
    ) -> None:
        """Answer after a recognized single-A upstream resolution."""
        spec = self.spec
        if spec.answer_kind is AnswerKind.CORRECT:
            # The slow oracle gets a stub carrying exactly the record
            # decode_message would have produced; the answer bytes are
            # key material because they land in the template tail.
            record = ResourceRecord(
                fast_query.qname, QueryType.A, 1, ttl,
                AData(bytes_to_ipv4(addr)),
            )
            resolved = DnsMessage(answers=[record])
            key = (
                AnswerKind.CORRECT, fast_query.qtype, fast_query.qclass,
                fast_query.flags_word & 0x0100, ttl, addr,
            )
            wire = self._templates.render(
                key, fast_query,
                lambda: self.build_response_wire(
                    fast_query.to_message(), resolved
                ),
            )
        else:
            # Every other answer kind ignores the upstream content, so
            # this shares the fabricated template shape.
            key = (fast_query.qtype, fast_query.qclass,
                   fast_query.flags_word & 0x0100)
            wire = self._templates.render(
                key, fast_query,
                lambda: self.build_response_wire(fast_query.to_message(), None),
                guard_names=self._guard_names,
            )
        self.responses_sent += 1
        network.send(client.reply(wire))

    # -- response synthesis ----------------------------------------------

    def _respond(
        self, client: Datagram, query: DnsMessage, resolved: DnsMessage | None
    ) -> None:
        network = self._network
        if network is None:
            raise RuntimeError("host not attached")
        payload = self.build_response_wire(query, resolved)
        self.responses_sent += 1
        network.send(client.reply(payload))

    def build_response_wire(
        self, query: DnsMessage, resolved: DnsMessage | None
    ) -> bytes:
        """Encode the R2 this behavior produces for ``query``."""
        spec = self.spec
        answers = self._answers_for(query, resolved)
        if spec.answer_kind is AnswerKind.MALFORMED:
            return self._malformed_wire(query)
        # A validating resolver marks genuinely resolved answers AD=1 when
        # the client asked with DO (RFC 6840); fabricated answers never
        # earn the bit because there is no chain to validate.
        from repro.dnslib.edns import extract_edns

        edns = extract_edns(query)
        ad = (
            self.dnssec_validating
            and spec.answer_kind is AnswerKind.CORRECT
            and edns is not None
            and edns.dnssec_ok
        )
        response = make_response(
            query,
            rcode=spec.rcode,
            answers=answers,
            aa=spec.aa,
            ra=spec.ra,
            ad=ad,
            copy_question=not spec.empty_question,
        )
        if self.policy is not None:
            response = self.policy.rewrite_response(response)
        return encode_message(response)

    def _answers_for(
        self, query: DnsMessage, resolved: DnsMessage | None
    ) -> list[ResourceRecord]:
        spec = self.spec
        qname = query.qname or "answer.invalid"
        if spec.answer_kind is AnswerKind.NONE:
            return []
        if spec.answer_kind is AnswerKind.CORRECT:
            return list(resolved.answers) if resolved is not None else []
        if spec.answer_kind is AnswerKind.INCORRECT_IP:
            return [
                ResourceRecord(
                    qname, QueryType.A, ttl=spec.answer_ttl,
                    data=AData(spec.fixed_answer),
                )
            ]
        if spec.answer_kind is AnswerKind.INCORRECT_URL:
            return [
                ResourceRecord(
                    qname, QueryType.CNAME, ttl=spec.answer_ttl,
                    data=CnameData(spec.fixed_answer),
                )
            ]
        if spec.answer_kind is AnswerKind.INCORRECT_STRING:
            return [
                ResourceRecord(
                    qname, QueryType.TXT, ttl=spec.answer_ttl,
                    data=TxtData((spec.fixed_answer,)),
                )
            ]
        return []

    def _malformed_wire(self, query: DnsMessage) -> bytes:
        """A response whose header/question decode but whose answer doesn't.

        This reproduces the paper's 8,764 packets "not decoded
        appropriately" by libpcap: flags and rcode were readable (they
        appear in Tables IV-VI) while dns_answer was garbage (Table
        VII's N/A row).
        """
        spec = self.spec
        header_only = make_response(
            query, rcode=spec.rcode, aa=spec.aa, ra=spec.ra,
            copy_question=not spec.empty_question,
        )
        wire = bytearray(encode_message(header_only))
        wire[6:8] = (1).to_bytes(2, "big")  # claim ANCOUNT=1 ...
        wire += b"\xc0\x0c"                 # owner: pointer to the question
        wire += (1).to_bytes(2, "big")      # TYPE A
        wire += (1).to_bytes(2, "big")      # CLASS IN
        wire += (300).to_bytes(4, "big")    # TTL
        wire += (4).to_bytes(2, "big")      # RDLENGTH 4 ...
        wire += b"\x00"                     # ... but only 1 octet follows
        return bytes(wire)
