"""Real UDP sockets behind the transport protocol.

:class:`AsyncUdpTransport` runs the exact serving objects the simulator
runs — the same :class:`~repro.dnssrv.auth.AuthoritativeServer`, the
same :class:`~repro.dnssrv.recursive.RecursiveResolver` — on
non-blocking UDP sockets driven by an asyncio selector loop, ZDNS-style:
the resolver core never learns it left the simulation.

Design points:

- **One socket per bound endpoint.** ``bind`` opens a non-blocking
  socket on (ip, port), registers a reader callback, and returns a
  :class:`Listener` carrying the *actual* port (bind port 0 to get an
  ephemeral one). Serving replies and upstream queries are routed to
  the socket whose local address matches the datagram's claimed source,
  so every legitimate send leaves from the address it claims.
- **Loopback spoof delivery.** The transparent-forwarder profile needs
  to relay a query upstream *preserving the client's source address* —
  the off-path trick real transparent CPE performs with raw IP. A
  userspace UDP socket cannot forge sources, but when the spoofed
  datagram's destination is another endpoint bound on this same
  transport, delivery happens in-process (``loop.call_soon``) with the
  claimed source intact. The upstream's reply then travels over a real
  socket straight to the client — arriving from an address the client
  never queried, exactly the transparent-forwarder signature.
- **Single-threaded.** All transport calls must happen on the loop
  thread (handlers already do — they run inside reader callbacks). The
  daemon owns the loop; test clients talk to it from other threads
  through their own plain sockets.

Everything is standard library; there is nothing to install.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import socket
from typing import Callable

from repro.netsim.packet import Datagram
from repro.transport.base import (
    Endpoint,
    Handler,
    Listener,
    TransportError,
)

#: Largest datagram we accept (DNS-over-UDP with EDNS tops out well
#: below this; 65535 is the UDP maximum).
RECV_BUFFER = 65535

#: Kernel receive buffer each socket asks for, as the benchmark's load
#: generator does. The kernel caps it at ``net.core.rmem_max``. At the
#: default buffer a stalled daemon held only 256 queries.
SOCKET_RCVBUF = 1 << 20


@dataclasses.dataclass
class SocketStats:
    """Lifetime counters, mirroring :class:`repro.netsim.network.NetworkStats`."""

    received: int = 0
    sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    #: Spoofed-source datagrams delivered in-process to a local binding.
    spoof_delivered: int = 0
    #: Sends with no matching source socket and no local destination.
    unroutable: int = 0
    #: Handler exceptions swallowed (a daemon must survive bad packets).
    handler_errors: int = 0
    #: OS-level sendto failures (buffer full, unreachable) — UDP drops.
    send_errors: int = 0
    #: Datagrams the kernel dropped because a socket's receive buffer
    #: was full, summed as each socket closes. None where the platform
    #: does not report them.
    kernel_drops: int | None = None


def kernel_drops(sock: socket.socket) -> int | None:
    """The kernel's count of datagrams dropped on ``sock``'s receive queue.

    Read from the ``drops`` column of ``/proc/net/udp``, on the row of
    the socket's inode; None where the platform has no such column.
    """
    try:
        inode = str(os.fstat(sock.fileno()).st_ino)
        with open("/proc/net/udp") as table:
            if table.readline().split()[-1] != "drops":
                return None
            for line in table:
                fields = line.split()
                if fields[9] == inode:
                    return int(fields[-1])
    except (OSError, ValueError, IndexError):
        pass
    return None


class AsyncUdpTransport:
    """The asyncio UDP socket backend.

    ``loop`` defaults to the running loop at first use; constructing
    the transport off-loop and binding from within the loop thread is
    the intended pattern (see :class:`repro.transport.serve.DnsService`).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop
        self._sockets: dict[tuple[str, int], socket.socket] = {}
        self._handlers: dict[tuple[str, int], Handler] = {}
        self._closed = False
        self.stats = SocketStats()
        #: Handler exceptions are counted and dropped; the most recent
        #: one is kept here so tests and post-mortems can see it.
        self.last_handler_error: BaseException | None = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    @property
    def now(self) -> float:
        """Monotonic transport time in seconds (the loop's clock)."""
        return self.loop.time()

    # -- binding ---------------------------------------------------------

    def bind(self, ip: str, port: int, handler: Handler) -> Listener:
        """Open a non-blocking UDP socket on (ip, port).

        ``port=0`` asks the OS for an ephemeral port; the returned
        :class:`Listener` carries whatever was actually assigned.
        """
        if self._closed:
            raise TransportError("transport is closed")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_RCVBUF)
            sock.setblocking(False)
            sock.bind((ip, port))
        except OSError as error:
            sock.close()
            raise TransportError(f"cannot bind {ip}:{port}: {error}") from error
        bound_ip, bound_port = sock.getsockname()[:2]
        key = (bound_ip, bound_port)
        if key in self._handlers:  # port!=0 rebind of a live endpoint
            sock.close()
            raise TransportError(f"{bound_ip}:{bound_port} already bound")
        self._sockets[key] = sock
        self._handlers[key] = handler
        self.loop.add_reader(sock.fileno(), self._on_readable, key, sock)
        return Listener(self, Endpoint(bound_ip, bound_port))

    def unbind(self, ip: str, port: int) -> None:
        key = (ip, port)
        sock = self._sockets.pop(key, None)
        self._handlers.pop(key, None)
        if sock is not None:
            self.loop.remove_reader(sock.fileno())
            drops = kernel_drops(sock)
            if drops is not None:
                self.stats.kernel_drops = (self.stats.kernel_drops or 0) + drops
            sock.close()

    def is_bound(self, ip: str, port: int) -> bool:
        return (ip, port) in self._handlers

    @property
    def endpoints(self) -> list[Endpoint]:
        """Every live binding (daemon introspection)."""
        return [Endpoint(ip, port) for ip, port in self._handlers]

    def close(self) -> None:
        """Tear down every socket. The transport cannot be reused."""
        for ip, port in list(self._handlers):
            self.unbind(ip, port)
        self._closed = True

    # -- receiving -------------------------------------------------------

    def _on_readable(self, key: tuple[str, int], sock: socket.socket) -> None:
        """Drain one socket: deliver every queued datagram to its handler."""
        bound_ip, bound_port = key
        while True:
            try:
                payload, address = sock.recvfrom(RECV_BUFFER)
            except BlockingIOError:
                return
            except OSError:
                return  # socket closed under us mid-drain
            handler = self._handlers.get(key)
            if handler is None:
                return
            self.stats.received += 1
            self.stats.bytes_received += len(payload)
            datagram = Datagram(
                src_ip=address[0], src_port=address[1],
                dst_ip=bound_ip, dst_port=bound_port, payload=payload,
            )
            self._dispatch(handler, datagram)

    def _dispatch(self, handler: Handler, datagram: Datagram) -> None:
        """Invoke a handler, surviving whatever it raises."""
        try:
            handler(datagram, self)
        except Exception as error:  # noqa: BLE001 - daemon must not die
            self.stats.handler_errors += 1
            self.last_handler_error = error

    # -- sending ---------------------------------------------------------

    def send(self, datagram: Datagram, origin: str | None = None) -> None:
        """Transmit from the socket bound to the datagram's source.

        A datagram whose claimed source is *not* one of our sockets is
        a spoof: it is delivered in-process when its destination is
        bound here (the transparent-forwarder relay), and dropped
        (counted ``unroutable``) otherwise — a userspace transport
        cannot put forged sources on the wire.
        """
        sock = self._sockets.get((datagram.src_ip, datagram.src_port))
        if sock is not None:
            try:
                sock.sendto(datagram.payload, (datagram.dst_ip, datagram.dst_port))
            except (BlockingIOError, OSError):
                self.stats.send_errors += 1
                return
            self.stats.sent += 1
            self.stats.bytes_sent += len(datagram.payload)
            return
        handler = self._handlers.get((datagram.dst_ip, datagram.dst_port))
        if handler is not None:
            self.stats.spoof_delivered += 1
            self.loop.call_soon(self._dispatch, handler, datagram)
            return
        self.stats.unroutable += 1

    # -- timers ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]):
        """Run ``callback`` after ``delay`` seconds; returns a TimerHandle."""
        return self.loop.call_later(delay, callback)
