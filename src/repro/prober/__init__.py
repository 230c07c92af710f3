"""The measurement system: scanner, subdomain scheme, probe campaign.

- :mod:`repro.prober.zmap` — ZMap's address-space permutation (a random
  cycle of the multiplicative group mod the smallest prime > 2^32) and
  generator selection, reimplemented from Durumeric et al.
- :mod:`repro.prober.subdomain` — the paper's two-tier subdomain
  structure (Fig 3), cluster allocation and the subdomain-reuse
  optimization that cut the cluster count from ~800 to 4.
- :mod:`repro.prober.probe` — the prober itself: rate-paced Q1
  generation over the (non-reserved) IPv4 space, R2 collection,
  cluster installs at the authoritative server.
- :mod:`repro.prober.capture` — joining Q1/Q2/R1/R2 into per-target
  flows on the qname key (Fig 2).
- :mod:`repro.prober.targets` — the target-scan engine that every
  second-pass census runs on: bind, send, decode, attribute.
"""

from repro.prober.capture import (
    FlowSet,
    ProbeFlow,
    R2Record,
    join_flows,
    merge_flow_sets,
)
from repro.prober.probe import (
    ProbeCapture,
    ProbeConfig,
    Prober,
    RetryPolicy,
    merge_captures,
)
from repro.prober.subdomain import ClusterAllocator, ClusterStats, SubdomainScheme
from repro.prober.zmap import AddressPermutation, GROUP_PRIME, probe_order

__all__ = [
    "AddressPermutation",
    "ClusterAllocator",
    "ClusterStats",
    "FlowSet",
    "GROUP_PRIME",
    "ProbeCapture",
    "ProbeConfig",
    "ProbeFlow",
    "Prober",
    "R2Record",
    "RetryPolicy",
    "SubdomainScheme",
    "join_flows",
    "merge_captures",
    "merge_flow_sets",
    "probe_order",
]
