"""A TTL-respecting DNS cache with LRU eviction.

The paper's subdomain-generation scheme exists precisely to defeat this
cache (every probe qname is globally unique, so a hit implies the
resolver is lying). The cache model is still needed for the standard
resolver behavior and for the DNS-manipulation argument in section
IV-C2: a fresh qname cannot be answered from cache.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.dnslib.constants import QueryType
from repro.dnslib.names import normalize_name
from repro.dnslib.records import ResourceRecord


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    stale_serves: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclasses.dataclass
class _Entry:
    expires_at: float
    records: list[ResourceRecord]


class DnsCache:
    """Maps (qname, qtype) to an rrset with an absolute expiry time.

    Policy knobs model real-world cache misbehavior the literature
    measures: ``min_ttl`` clamps short TTLs up (TTL-extending caches,
    which keep records alive long after the zone owner said to drop
    them — the mechanism behind Jiang et al.'s ghost domains), and
    ``serve_stale`` returns expired entries instead of missing (common
    in cheap CPE).
    """

    def __init__(
        self,
        max_entries: int = 100_000,
        min_ttl: int = 0,
        max_ttl: int | None = None,
        serve_stale: bool = False,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if min_ttl < 0:
            raise ValueError("min_ttl must be non-negative")
        if max_ttl is not None and max_ttl < min_ttl:
            raise ValueError("max_ttl must be >= min_ttl")
        self._max_entries = max_entries
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.serve_stale = serve_stale
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        """The LRU bound on live entries."""
        return self._max_entries

    @staticmethod
    def _key(qname: str, qtype: int) -> tuple[str, int]:
        return normalize_name(qname), int(qtype)

    def put(self, qname: str, qtype: int, records: list[ResourceRecord], now: float) -> None:
        """Cache an rrset; its lifetime is the minimum TTL of the set
        (subject to the min/max TTL policy clamps)."""
        if not records:
            return
        ttl = min(record.ttl for record in records)
        ttl = max(ttl, self.min_ttl)
        if self.max_ttl is not None:
            ttl = min(ttl, self.max_ttl)
        if ttl <= 0:
            return
        key = self._key(qname, qtype)
        self._entries[key] = _Entry(now + ttl, list(records))
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get(self, qname: str, qtype: int, now: float) -> list[ResourceRecord] | None:
        """Fetch a live rrset, or None on miss/expiry."""
        key = self._key(qname, qtype)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.expires_at <= now:
            if self.serve_stale:
                self.stats.stale_serves += 1
                self.stats.hits += 1
                return list(entry.records)
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return list(entry.records)

    def contains(self, qname: str, qtype: int = QueryType.A) -> bool:
        """Membership check without touching stats or LRU order."""
        return self._key(qname, qtype) in self._entries

    def purge_expired(self, now: float) -> int:
        """Drop every expired entry; returns how many were dropped."""
        dead = [key for key, entry in self._entries.items() if entry.expires_at <= now]
        for key in dead:
            del self._entries[key]
        self.stats.expirations += len(dead)
        return len(dead)

    def clear(self) -> None:
        self._entries.clear()
