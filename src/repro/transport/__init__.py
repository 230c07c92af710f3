"""Pluggable transports: one serving stack, two wires.

The protocol and backends live in submodules; the daemon built on top
of them is :mod:`repro.transport.serve` (imported lazily by the CLI so
that importing this package never drags in the serving stack).
"""

from repro.transport.base import (
    CancelHandle,
    Endpoint,
    Handler,
    Listener,
    Transport,
    TransportError,
)
from repro.transport.sim import SimTransport
from repro.transport.socketio import AsyncUdpTransport, SocketStats

__all__ = [
    "AsyncUdpTransport",
    "CancelHandle",
    "Endpoint",
    "Handler",
    "Listener",
    "SimTransport",
    "SocketStats",
    "Transport",
    "TransportError",
]
