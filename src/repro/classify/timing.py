"""Timing-based resolver classification.

The dual-capture method (:mod:`repro.classify.experiment`) needs the
authoritative server's logs. A weaker observer — anyone probing from
outside — can still distinguish *fabricators* from *resolvers* by
response time alone: a host that answers from a script replies in one
round trip, while a host that actually resolves pays the extra trip(s)
to the authority first. The classifier measures per-target RTTs and
splits them with a 1-D two-means (Otsu-style) threshold.
"""

from __future__ import annotations

import dataclasses

from repro.dnslib.message import make_query
from repro.dnslib.zone import Zone
from repro.dnssrv.hierarchy import Hierarchy
from repro.netsim.network import Network
from repro.prober.targets import TargetScan

FAST = "fabricator-like"
SLOW = "resolver-like"


def two_means_threshold(values: list[float]) -> float:
    """The split maximizing between-class variance (Otsu in 1-D).

    Returns the midpoint between the two cluster means at the best
    split of the sorted values. With fewer than two values, returns
    the single value (or 0.0 for none).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0]
    total = sum(ordered)
    count = len(ordered)
    best_split, best_score = 1, -1.0
    left_sum = 0.0
    for split in range(1, count):
        left_sum += ordered[split - 1]
        left_count = split
        right_count = count - split
        left_mean = left_sum / left_count
        right_mean = (total - left_sum) / right_count
        score = left_count * right_count * (left_mean - right_mean) ** 2
        if score > best_score:
            best_score = score
            best_split = split
    left_mean = sum(ordered[:best_split]) / best_split
    right_mean = sum(ordered[best_split:]) / (count - best_split)
    return (left_mean + right_mean) / 2


@dataclasses.dataclass
class TimingResult:
    """Measured RTTs and the derived classification."""

    rtts: dict[str, float]
    threshold: float
    labels: dict[str, str]

    def count(self, label: str) -> int:
        return sum(1 for value in self.labels.values() if value == label)


class TimingClassifier(TargetScan):
    """Measures per-target response times over the simulated network."""

    by_qname = True  # the first answer, from any address, times a probe

    def __init__(
        self,
        network: Network,
        hierarchy: Hierarchy,
        scanner_ip: str = "132.170.3.23",
        source_port: int = 31700,
        probe_prefix: str = "timing",
    ) -> None:
        super().__init__(network, scanner_ip, source_port)
        self.hierarchy = hierarchy
        self.probe_prefix = probe_prefix

    def classify(self, targets: list[str]) -> TimingResult:
        zone = Zone(self.hierarchy.sld)
        self._qname_for: dict[str, str] = {}
        for index, target in enumerate(targets):
            qname = f"{self.probe_prefix}-{index:06d}.{self.hierarchy.sld}"
            self._qname_for[target] = qname
            zone.add_a(qname, self.hierarchy.auth.ip)
        self.hierarchy.auth.load_zone(zone)
        self._sent_at: dict[str, float] = {}
        self._rtts: dict[str, float] = {}
        self.probe(targets)
        rtts = self._rtts
        threshold = two_means_threshold(list(rtts.values()))
        labels = {
            target: (FAST if rtt <= threshold else SLOW)
            for target, rtt in rtts.items()
        }
        return TimingResult(rtts=rtts, threshold=threshold, labels=labels)

    def queries(self, index: int, target: str):
        self._sent_at[target] = self.network.now
        return [make_query(self._qname_for[target], msg_id=index & 0xFFFF)]

    def on_answer(self, target, source, response, now) -> None:
        if target not in self._rtts:
            self._rtts[target] = now - self._sent_at[target]
