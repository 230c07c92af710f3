"""Daemon lifecycle: ready files, graceful drain, metrics, defenses."""

import json
import signal
import socket

import pytest

from repro.dnslib.constants import Rcode
from repro.dnslib.fastwire import build_query_wire
from repro.dnslib.wire import decode_message
from repro.netsim.packet import Datagram
from repro.telemetry.hub import TelemetryHub
from repro.transport.serve import (
    DEFAULT_SLD,
    DnsService,
    ServeConfig,
    build_serve_zone,
    build_world,
)
from repro.transport.sim import SimTransport
from repro.transport.socketio import SOCKET_RCVBUF, kernel_drops
from tests.cli.test_serve_cli import SHUTDOWN_TIMEOUT, start_daemon

#: Queries sent to a stopped daemon: several times what a 1 MiB
#: receive buffer holds (2,520 on Linux 6.x).
STALL_QUERIES = 10_000


def make_client(timeout=2.0):
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(timeout)
    client.bind(("127.0.0.1", 0))
    return client


def query_wire(label="www", msg_id=1):
    return build_query_wire(f"{label}.{DEFAULT_SLD}", msg_id=msg_id)


class TestConfigValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            ServeConfig(profile="authoritative-only")

    def test_negative_drain_grace_rejected(self):
        with pytest.raises(ValueError, match="drain_grace"):
            ServeConfig(drain_grace=-1.0)

    def test_fixture_zone_matches_declared_records(self):
        zone = build_serve_zone()
        assert zone.record_count == 3


class TestLifecycle:
    def test_ready_file_reports_the_live_endpoint(self, tmp_path):
        ready = tmp_path / "ready.json"
        service = DnsService(
            ServeConfig(port=0, ready_file=str(ready), drain_grace=0.5)
        )
        endpoint = service.start()
        try:
            info = json.loads(ready.read_text())
            assert info["profile"] == "recursive"
            assert info["ip"] == endpoint.ip
            assert info["port"] == endpoint.port
            assert info["infra_port"] > 0
        finally:
            service.stop()

    def test_stop_drains_and_folds_metrics(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        service = DnsService(
            ServeConfig(port=0, metrics_out=str(metrics_path), drain_grace=1.0)
        )
        endpoint = service.start()
        client = make_client()
        sent = 3
        try:
            for index in range(sent):
                client.sendto(
                    query_wire(msg_id=index + 1), (endpoint.ip, endpoint.port)
                )
                client.recvfrom(65535)
        finally:
            client.close()
            service.stop()
        assert service.drained
        document = json.loads(metrics_path.read_text())
        counters = document["counters"]
        # The metrics document must be consistent with the workload:
        # every query answered, nothing pending at drain, UDP traffic
        # accounted (sent queries + replies at minimum).
        assert counters["serve.client_queries"] == sent
        assert counters["serve.answered"] == sent
        assert counters["auth.queries_served"] >= 1
        assert counters["udp.received"] >= sent
        assert counters["udp.sent"] >= sent
        assert document["gauges"]["serve.drain_pending_left"]["last"] == 0.0

    def test_drain_unbinds_the_client_port(self):
        service = DnsService(ServeConfig(port=0, drain_grace=0.2))
        endpoint = service.start()
        client = make_client(timeout=0.5)
        try:
            service.stop()
            client.sendto(query_wire(), (endpoint.ip, endpoint.port))
            with pytest.raises(socket.timeout):
                client.recvfrom(65535)
        finally:
            client.close()

    def test_start_twice_is_an_error(self):
        service = DnsService(ServeConfig(port=0, drain_grace=0.2))
        service.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                service.start()
        finally:
            service.stop()

    def test_unbindable_address_surfaces_at_start(self):
        # 203.0.113.0/24 is TEST-NET-3: never a local interface, so the
        # daemon thread's bind failure must propagate to the caller.
        service = DnsService(ServeConfig(ip="203.0.113.7", port=0))
        with pytest.raises(Exception, match="cannot bind"):
            service.start()


class TestDefenseKnobs:
    def test_quota_refuses_over_budget_clients(self):
        service = DnsService(
            ServeConfig(port=0, quota=1.0, drain_grace=0.5)
        )
        endpoint = service.start()
        client = make_client()
        rcodes = []
        try:
            # ClientQueryQuota's default burst is 20: a fast burst of 30
            # queries must see REFUSED once the bucket empties.
            for index in range(30):
                client.sendto(
                    query_wire(msg_id=index + 1), (endpoint.ip, endpoint.port)
                )
                payload, _ = client.recvfrom(65535)
                rcodes.append(decode_message(payload).rcode)
        finally:
            client.close()
            service.stop()
        assert Rcode.REFUSED in rcodes
        assert rcodes[0] == Rcode.NOERROR  # within the initial burst
        counters = service.hub.registry.snapshot().counters
        assert counters["serve.defense.quota_refused"] == rcodes.count(
            Rcode.REFUSED
        )

    def test_rate_limit_suppresses_responses(self):
        service = DnsService(
            ServeConfig(port=0, rate_limit=1.0, drain_grace=0.5)
        )
        endpoint = service.start()
        client = make_client(timeout=0.3)
        answered = 0
        sent = 25
        try:
            # RRL default burst is 10: a 25-query flood gets at most the
            # burst's worth of responses; the rest are suppressed.
            for index in range(sent):
                client.sendto(
                    query_wire(msg_id=index + 1), (endpoint.ip, endpoint.port)
                )
                try:
                    client.recvfrom(65535)
                    answered += 1
                except socket.timeout:
                    pass
        finally:
            client.close()
            service.stop()
        assert 0 < answered < sent

    def test_negative_cache_short_circuits_repeat_misses(self):
        service = DnsService(
            ServeConfig(port=0, negative_ttl=30.0, drain_grace=0.5)
        )
        endpoint = service.start()
        client = make_client()
        try:
            for index in range(3):
                client.sendto(
                    build_query_wire(
                        f"no-such-name.{DEFAULT_SLD}", msg_id=index + 1
                    ),
                    (endpoint.ip, endpoint.port),
                )
                payload, _ = client.recvfrom(65535)
                assert decode_message(payload).rcode == Rcode.NXDOMAIN
        finally:
            client.close()
            service.stop()
        counters = service.hub.registry.snapshot().counters
        # First miss walks the hierarchy; the two repeats answer from
        # the negative cache without touching the auth server.
        assert counters["serve.defense.negative_hits"] == 2


class TestSimWorld:
    def test_misses_leave_no_auth_query_log(self):
        transport = SimTransport()
        world = build_world(ServeConfig(port=5300), transport, infra_port=53)
        transport.bind("8.8.4.100", 5555, lambda dg, net: None)
        names = [f"miss{i}.{DEFAULT_SLD}" for i in range(25)]
        for msg_id, name in enumerate(names):
            transport.send(Datagram(
                "8.8.4.100", 5555, world.endpoint.ip, world.endpoint.port,
                build_query_wire(name, msg_id=msg_id),
            ))
        transport.run()
        assert world.auth.query_log == []
        assert world.auth.queries_served == len(names)

    def test_fold_reports_recursive_txid_counters(self):
        world = build_world(ServeConfig(port=5300), SimTransport(), infra_port=53)
        world.front.stats.txid_collisions = 3
        world.front.stats.txid_exhausted = 1
        hub = TelemetryHub()
        world.fold_metrics(hub)
        counters = hub.registry.snapshot().counters
        assert counters["serve.txid_collisions"] == 3
        assert counters["serve.txid_exhausted"] == 1


class TestStalledDaemon:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP/SIGCONT"
    )
    def test_every_query_is_answered_or_counted(self, tmp_path):
        # Stop the daemon, send more queries than its socket can hold,
        # resume it: each query must be answered or counted as a drop,
        # by the daemon's kernel_drops or by the client's own socket.
        with make_client(timeout=5.0) as client:
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_RCVBUF
            )
            if kernel_drops(client) is None:
                pytest.skip("the platform reports no per-socket drops")
            process, info, metrics_path = start_daemon(tmp_path)
            target = (info["ip"], info["port"])
            answered: set[int] = set()
            try:
                client.sendto(query_wire(msg_id=STALL_QUERIES), target)
                client.recvfrom(65535)  # warm: the rest are cache hits
                process.send_signal(signal.SIGSTOP)
                try:
                    for index in range(STALL_QUERIES):
                        client.sendto(query_wire(msg_id=index), target)
                finally:
                    process.send_signal(signal.SIGCONT)
                client.settimeout(1.5)
                try:
                    while True:
                        payload, _ = client.recvfrom(65535)
                        answered.add(int.from_bytes(payload[:2], "big"))
                except socket.timeout:
                    pass
                client_drops = kernel_drops(client)
            finally:
                process.send_signal(signal.SIGTERM)
                out, _ = process.communicate(timeout=SHUTDOWN_TIMEOUT)
        assert process.returncode == 0, out
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["udp.kernel_drops"] > 0  # the buffer overflowed
        assert len(answered) + counters["udp.kernel_drops"] + client_drops + (
            counters["udp.send_errors"]
        ) == STALL_QUERIES
