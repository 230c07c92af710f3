"""Protocol conformance: every backend satisfies the transport seam."""

import asyncio

import pytest

from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.transport import (
    AsyncUdpTransport,
    CancelHandle,
    Endpoint,
    Listener,
    SimTransport,
    Transport,
    TransportError,
)


class TestProtocolConformance:
    def test_bare_network_is_a_transport(self):
        # Structural typing: Network never imports repro.transport, yet
        # satisfies the protocol — serving code keeps taking bare
        # networks everywhere the simulator already passes them.
        assert isinstance(Network(), Transport)

    @pytest.mark.parametrize("factory", [SimTransport, AsyncUdpTransport])
    def test_backends_are_transports(self, factory):
        assert isinstance(factory(), Transport)

    def test_network_schedule_is_cancellable(self):
        network = Network()
        fired = []
        handle = network.schedule(1.0, lambda: fired.append(1))
        assert isinstance(handle, CancelHandle)
        handle.cancel()
        network.run()
        assert fired == []

    def test_network_schedule_fires_on_simulated_clock(self):
        network = Network()
        times = []
        network.schedule(2.5, lambda: times.append(network.now))
        network.run()
        assert times == [2.5]


class TestEndpointAndListener:
    def test_endpoint_renders_as_address(self):
        assert str(Endpoint("127.0.0.1", 5300)) == "127.0.0.1:5300"

    def test_listener_close_unbinds(self):
        transport = SimTransport()
        listener = transport.bind("10.0.0.1", 53, lambda dg, net: None)
        assert isinstance(listener, Listener)
        assert listener.endpoint == Endpoint("10.0.0.1", 53)
        assert transport.is_bound("10.0.0.1", 53)
        listener.close()
        assert not transport.is_bound("10.0.0.1", 53)


class TestSimTransport:
    def test_delegates_to_the_wrapped_network(self):
        network = Network()
        transport = SimTransport(network)
        received = []
        transport.bind("10.0.0.2", 53, lambda dg, net: received.append(dg))
        transport.send(Datagram("10.0.0.9", 999, "10.0.0.2", 53, b"hi"))
        transport.run()
        assert [dg.payload for dg in received] == [b"hi"]
        assert network.stats.delivered == 1
        assert transport.now == network.now

    def test_handler_receives_the_wrapped_network(self):
        # The Network delivers with itself as the second handler arg;
        # serving objects must keep working when replies go out that way.
        transport = SimTransport()
        replies = []
        transport.bind(
            "10.0.0.3", 53, lambda dg, net: net.send(dg.reply(b"pong"))
        )
        transport.bind("10.0.0.9", 40000, lambda dg, net: replies.append(dg))
        transport.send(Datagram("10.0.0.9", 40000, "10.0.0.3", 53, b"ping"))
        transport.run()
        assert [dg.payload for dg in replies] == [b"pong"]


class TestAsyncUdpBindingRules:
    def test_closed_transport_refuses_bind(self):
        transport = AsyncUdpTransport(asyncio.new_event_loop())
        try:
            transport.close()
            with pytest.raises(TransportError):
                transport.bind("127.0.0.1", 0, lambda dg, net: None)
        finally:
            transport.loop.close()

    def test_unbindable_address_raises(self):
        transport = AsyncUdpTransport(asyncio.new_event_loop())
        try:
            # 203.0.113.0/24 is TEST-NET-3: never a local interface.
            with pytest.raises(TransportError):
                transport.bind("203.0.113.7", 0, lambda dg, net: None)
        finally:
            transport.close()
            transport.loop.close()
