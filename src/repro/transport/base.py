"""The transport abstraction every serving path speaks.

Before this layer existed, the authoritative server, the recursive
resolver, the forwarding proxy and the behavior hosts were welded to
``repro.netsim.Network``: they could only answer queries inside the
discrete-event clock. The :class:`Transport` protocol is the seam that
frees them — the same five operations (``bind``/``unbind``/``send``/
``now``/``schedule``) cover a simulated internet and a real asyncio
UDP socket loop, so one resolver implementation serves golden-table
simulations and live loopback traffic without a line of per-backend
code.

Backends:

========================  ==========================================
:class:`~repro.transport.sim.SimTransport`
                          the discrete-event simulator (wraps
                          :class:`~repro.netsim.network.Network`;
                          zero behavior change — Tables II–X stay
                          byte-identical)
:class:`~repro.transport.socketio.AsyncUdpTransport`
                          real non-blocking UDP sockets on an asyncio
                          loop (the ``repro serve`` daemon)
========================  ==========================================

``Network`` itself satisfies the protocol structurally (it grew a
``schedule`` method for exactly this purpose), so existing simulation
code keeps passing bare networks around; :class:`SimTransport` exists
for call sites that want the richer :class:`Listener` return from
``bind``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol, runtime_checkable

from repro.netsim.packet import Datagram

#: A bound handler: receives the datagram and the transport to reply on.
Handler = Callable[[Datagram, "Transport"], None]


class TransportError(RuntimeError):
    """Raised for transport-level failures (bad bind, closed transport)."""


@dataclasses.dataclass(frozen=True)
class Endpoint:
    """One (ip, port) attachment point on a transport."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@runtime_checkable
class CancelHandle(Protocol):
    """What :meth:`Transport.schedule` returns: something cancellable.

    The simulator hands back a
    :class:`~repro.netsim.events.ScheduledEvent`; the socket backend an
    :class:`asyncio.TimerHandle`. Serving code only ever calls
    ``cancel()``.
    """

    def cancel(self) -> None: ...


@dataclasses.dataclass
class Listener:
    """A live binding: the transport plus the *actual* bound endpoint.

    Matters on the socket backend, where binding port 0 resolves to an
    ephemeral port — the listener is how the daemon learns the address
    it is really serving on. ``close()`` detaches the handler.
    """

    transport: "Transport"
    endpoint: Endpoint

    def close(self) -> None:
        self.transport.unbind(self.endpoint.ip, self.endpoint.port)


@runtime_checkable
class Transport(Protocol):
    """The serving-path contract (structural; no registration needed).

    Implementations promise:

    - ``bind(ip, port, handler)`` attaches ``handler`` to the endpoint
      and returns a :class:`Listener` carrying the actual bound port
      (backends without ephemeral ports may return ``None``; callers
      that need the resolved port must check).
    - ``send(datagram, origin=None)`` is fire-and-forget UDP. ``origin``
      names the host actually transmitting when the claimed source
      address is spoofed (taps/captures attribute traffic to it).
    - ``now`` is the transport's clock in seconds — simulated time on
      the simulator, a monotonic wall clock on sockets.
    - ``schedule(delay, callback)`` runs ``callback`` after ``delay``
      seconds of transport time and returns a cancellable handle.
    """

    @property
    def now(self) -> float: ...

    def bind(self, ip: str, port: int, handler: Handler) -> "Listener | None": ...

    def unbind(self, ip: str, port: int) -> None: ...

    def is_bound(self, ip: str, port: int) -> bool: ...

    def send(self, datagram: Datagram, origin: str | None = None) -> None: ...

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> CancelHandle: ...
