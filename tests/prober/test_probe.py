"""End-to-end prober tests over small synthetic populations."""

from repro.dnslib.constants import Rcode
from repro.dnssrv.hierarchy import build_hierarchy
from repro.netsim.network import Network
from repro.prober.capture import join_flows, parse_r2
from repro.prober.probe import ProbeConfig, Prober
from repro.prober.zmap import probe_order
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import BehaviorHost
from repro.netsim.ipv4 import int_to_ip


def build_world(specs_by_offset, q1_target=200, seed=0, **config_overrides):
    """Deploy hosts at chosen positions of the probe order, then scan.

    ``specs_by_offset`` maps an index into the probe order to a
    BehaviorSpec; the prober will hit them in-order during the scan.
    """
    network = Network(seed=seed)
    hierarchy = build_hierarchy(network)
    addresses = list(probe_order(seed=seed, limit=q1_target))
    hosts = []
    for offset, spec in specs_by_offset.items():
        ip = int_to_ip(addresses[offset])
        host = BehaviorHost(ip, spec, hierarchy.auth.ip)
        host.attach(network)
        hosts.append(host)
    config = ProbeConfig(
        q1_target=q1_target,
        rate_pps=50.0,
        cluster_size=100,
        seed=seed,
        **config_overrides,
    )
    prober = Prober(network, hierarchy.auth, config)
    capture = prober.run()
    return network, hierarchy, hosts, capture


def std_spec():
    return BehaviorSpec(
        name="std", mode=ResponseMode.RESOLVE, ra=True, aa=False,
        answer_kind=AnswerKind.CORRECT,
    )


def refuser_spec():
    return BehaviorSpec(
        name="refuser", mode=ResponseMode.FABRICATE, ra=False, aa=False,
        rcode=Rcode.REFUSED,
    )


def hijack_spec():
    return BehaviorSpec(
        name="hijack", mode=ResponseMode.FABRICATE, ra=False, aa=True,
        answer_kind=AnswerKind.INCORRECT_IP, fixed_answer="208.91.197.91",
    )


class TestScan:
    def test_q1_count_and_duration(self):
        _, _, _, capture = build_world({}, q1_target=200)
        assert capture.q1_sent == 200
        # 200 probes at 50 pps -> ~4s of scan plus the cluster load.
        assert 3.0 <= capture.duration <= 20.0
        assert capture.q1_bytes == 200 * (28 + 12 + 4 + 2 + len(
            "or000.0000000.ucfsealresearch.net"
        ))

    def test_r2_collected_from_each_responder(self):
        specs = {3: std_spec(), 10: refuser_spec(), 42: hijack_spec()}
        _, _, _, capture = build_world(specs)
        assert capture.r2_count == 3
        views = [parse_r2(record) for record in capture.r2_records]
        kinds = sorted(
            (view.rcode, view.has_answer) for view in views
        )
        assert kinds == [
            (int(Rcode.NOERROR), True),   # hijack
            (int(Rcode.NOERROR), True),   # std
            (int(Rcode.REFUSED), False),  # refuser
        ]

    def test_correct_resolution_travels_through_auth(self):
        specs = {5: std_spec()}
        _, hierarchy, _, capture = build_world(specs)
        assert len(hierarchy.auth.query_log) == 1
        view = parse_r2(capture.r2_records[0])
        assert view.answers[0][0] == "ip"
        assert view.answers[0][1] == hierarchy.auth.ip  # cluster ground truth
        assert view.qname == hierarchy.auth.query_log[0].qname

    def test_unique_qname_per_probe(self):
        specs = {index: refuser_spec() for index in range(0, 60, 2)}
        _, _, _, capture = build_world(specs)
        qnames = [parse_r2(record).qname for record in capture.r2_records]
        assert len(set(qnames)) == len(qnames) == 30

    def test_subdomain_reuse_limits_clusters(self):
        _, _, _, capture = build_world(
            {}, q1_target=1000, response_window=1.0
        )
        # 1000 probes over clusters of 100: without reuse this needs 10.
        assert capture.cluster_stats.clusters_created <= 3
        assert capture.cluster_stats.reused_allocations > 0

    def test_without_reuse_consumes_clusters(self):
        _, _, _, capture = build_world(
            {}, q1_target=1000, reuse_subdomains=False
        )
        assert capture.cluster_stats.clusters_created == 10

    def test_responder_hint_equivalence(self):
        """The accelerated path must produce identical measurements."""
        specs = {1: std_spec(), 7: hijack_spec(), 20: refuser_spec()}
        network_full, hierarchy_full, _, full = build_world(specs, q1_target=100)

        network = Network(seed=0)
        hierarchy = build_hierarchy(network)
        addresses = list(probe_order(seed=0, limit=100))
        hint = set()
        for offset, spec in specs.items():
            ip = int_to_ip(addresses[offset])
            BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
            hint.add(ip)
        config = ProbeConfig(q1_target=100, rate_pps=50.0, cluster_size=100, seed=0)
        fast = Prober(network, hierarchy.auth, config, responder_hint=hint).run()

        assert fast.q1_sent == full.q1_sent
        assert fast.q1_bytes == full.q1_bytes
        assert fast.r2_count == full.r2_count
        assert sorted(r.payload for r in fast.r2_records) == sorted(
            r.payload for r in full.r2_records
        )
        assert len(hierarchy.auth.query_log) == len(hierarchy_full.auth.query_log)

    def test_sent_log_optional(self):
        specs = {2: refuser_spec()}
        _, _, _, capture = build_world(specs, record_sent_log=True)
        assert len(capture.sent_log) == capture.q1_sent
        view = parse_r2(capture.r2_records[0])
        assert capture.sent_log[view.qname] == view.src_ip
        _, _, _, capture = build_world(specs, record_sent_log=False)
        assert capture.sent_log == {}


class TestFlowJoin:
    def test_flows_join_q2_and_r2(self):
        specs = {4: std_spec(), 9: hijack_spec()}
        _, hierarchy, _, capture = build_world(specs)
        flow_set = join_flows(capture.r2_records, hierarchy.auth.query_log)
        assert flow_set.r2_count == 2
        resolved = [f for f in flow_set.flows_with_r2() if f.resolved_via_auth]
        assert len(resolved) == 1  # only the std resolver contacted auth
        assert flow_set.q2_count == 1
        assert flow_set.r1_count == 1

    def test_empty_question_unjoinable(self):
        eq_spec = BehaviorSpec(
            name="eq", mode=ResponseMode.FABRICATE, ra=True, aa=False,
            rcode=Rcode.SERVFAIL, empty_question=True,
        )
        _, hierarchy, _, capture = build_world({6: eq_spec})
        flow_set = join_flows(capture.r2_records, hierarchy.auth.query_log)
        assert len(flow_set.unjoinable) == 1
        assert flow_set.views == []

    def test_malformed_answer_still_joined(self):
        malformed = BehaviorSpec(
            name="bad", mode=ResponseMode.FABRICATE, ra=False, aa=False,
            answer_kind=AnswerKind.MALFORMED, fixed_answer=None,
        )
        _, hierarchy, _, capture = build_world({8: malformed})
        flow_set = join_flows(capture.r2_records, hierarchy.auth.query_log)
        (view,) = flow_set.views
        assert view.malformed_answer
        assert view.has_answer
        assert view.qname is not None
        assert view.answer_forms() == {"na"}
