"""Socket backend mechanics: real loopback UDP behind the protocol."""

import asyncio
import socket

import pytest

from repro.netsim.packet import Datagram
from repro.transport.socketio import SOCKET_RCVBUF, AsyncUdpTransport


@pytest.fixture()
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture()
def transport(loop):
    transport = AsyncUdpTransport(loop)
    yield transport
    transport.close()


def run_loop_until(loop, predicate, timeout=2.0):
    """Drive the loop until ``predicate()`` holds (or fail the test)."""

    async def waiter():
        deadline = loop.time() + timeout
        while not predicate():
            if loop.time() > deadline:
                raise AssertionError("condition not reached in time")
            await asyncio.sleep(0.01)

    loop.run_until_complete(waiter())


def read_rmem_max() -> int | None:
    try:
        with open("/proc/sys/net/core/rmem_max") as handle:
            return int(handle.read())
    except (OSError, ValueError):
        return None


class TestReceiveBuffer:
    @pytest.mark.skipif(
        read_rmem_max() is None, reason="no net.core.rmem_max to compare"
    )
    def test_bound_socket_asks_for_a_large_receive_buffer(self, transport):
        # A stalled daemon holds only what its receive buffer holds.
        # Linux doubles the request and caps it at twice rmem_max.
        listener = transport.bind("127.0.0.1", 0, lambda dg, net: None)
        endpoint = listener.endpoint
        sock = transport._sockets[(endpoint.ip, endpoint.port)]
        granted = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        assert granted >= min(2 * SOCKET_RCVBUF, 2 * read_rmem_max())


class TestBinding:
    def test_ephemeral_bind_reports_actual_port(self, transport):
        listener = transport.bind("127.0.0.1", 0, lambda dg, net: None)
        assert listener.endpoint.ip == "127.0.0.1"
        assert listener.endpoint.port > 0
        assert transport.is_bound("127.0.0.1", listener.endpoint.port)
        assert listener.endpoint in transport.endpoints

    def test_loopback_subnet_addresses_bind(self, transport):
        # The in-daemon hierarchy lives on 127.77.0.x; Linux answers
        # for the whole 127.0.0.0/8 block without configuration.
        listener = transport.bind("127.77.0.1", 0, lambda dg, net: None)
        assert listener.endpoint.ip == "127.77.0.1"

    def test_unbind_releases_the_port(self, transport):
        listener = transport.bind("127.0.0.1", 0, lambda dg, net: None)
        port = listener.endpoint.port
        listener.close()
        assert not transport.is_bound("127.0.0.1", port)
        # The port is free again: a fresh bind on it succeeds.
        transport.bind("127.0.0.1", port, lambda dg, net: None)


class TestDatagramFlow:
    def test_external_client_round_trip(self, loop, transport):
        received = []
        listener = transport.bind(
            "127.0.0.1", 0,
            lambda dg, net: (received.append(dg), net.send(dg.reply(b"pong")))[0],
        )
        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        client.settimeout(2.0)
        client.bind(("127.0.0.1", 0))
        client.sendto(b"ping", (listener.endpoint.ip, listener.endpoint.port))
        run_loop_until(loop, lambda: transport.stats.sent >= 1)
        payload, address = client.recvfrom(65535)
        client.close()
        assert payload == b"pong"
        assert address[1] == listener.endpoint.port
        assert received[0].payload == b"ping"
        assert received[0].dst_port == listener.endpoint.port
        assert transport.stats.received == 1
        assert transport.stats.bytes_received == 4

    def test_spoofed_source_delivers_in_process(self, loop, transport):
        # A datagram claiming a source we do not own cannot go on the
        # wire, but a locally-bound destination still receives it with
        # the claimed source intact — the transparent-forwarder relay.
        seen = []
        upstream = transport.bind(
            "127.0.0.1", 0, lambda dg, net: seen.append(dg)
        )
        transport.send(
            Datagram(
                "198.51.100.9", 4242,
                upstream.endpoint.ip, upstream.endpoint.port, b"relayed",
            )
        )
        run_loop_until(loop, lambda: bool(seen))
        assert seen[0].src_ip == "198.51.100.9"
        assert seen[0].src_port == 4242
        assert transport.stats.spoof_delivered == 1
        assert transport.stats.sent == 0

    def test_unroutable_spoof_is_counted_and_dropped(self, transport):
        transport.send(
            Datagram("198.51.100.9", 4242, "198.51.100.10", 53, b"nope")
        )
        assert transport.stats.unroutable == 1

    def test_handler_exception_does_not_kill_the_loop(self, loop, transport):
        def exploding(dg, net):
            raise ValueError("bad packet day")

        listener = transport.bind("127.0.0.1", 0, exploding)
        survivor = []
        ok = transport.bind("127.0.0.1", 0, lambda dg, net: survivor.append(dg))
        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        client.sendto(b"boom", (listener.endpoint.ip, listener.endpoint.port))
        client.sendto(b"fine", (ok.endpoint.ip, ok.endpoint.port))
        run_loop_until(loop, lambda: bool(survivor))
        client.close()
        assert transport.stats.handler_errors == 1
        assert isinstance(transport.last_handler_error, ValueError)
        assert survivor[0].payload == b"fine"

    def test_schedule_runs_on_the_loop_clock(self, loop, transport):
        fired = []
        transport.schedule(0.01, lambda: fired.append(transport.now))
        run_loop_until(loop, lambda: bool(fired))
        cancelled = transport.schedule(60.0, lambda: fired.append(-1.0))
        cancelled.cancel()
        assert len(fired) == 1
