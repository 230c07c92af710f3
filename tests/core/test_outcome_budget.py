"""Regression guard: a streaming shard's result payload stays small.

The whole point of ``--drop-captures`` streaming is that what crosses
the process boundary (and lands in shard checkpoints) is accumulator
state, not packets — a few KB regardless of probe count. Both carry
the bytes of :func:`repro.stream.codec.encode_outcome`. This pins that
property to a fixed byte budget so a field quietly added to
:class:`TableAggregate` or :class:`ShardOutcome` that drags O(probes)
state back onto the wire fails loudly here instead of silently
fattening every result message and checkpoint.

The budget (``OUTCOME_BUDGET_BYTES``, 64 KiB) is deliberately loose —
typical encoded outcomes are under 2 KiB — because the failure mode it
guards against is asymptotic (per-probe state), not constant bloat:
doubling the probe count must not move the payload size.
"""

import dataclasses

from repro.core import CampaignConfig
from repro.core.shard import ShardTask, run_shard
from repro.stream.codec import OUTCOME_BUDGET_BYTES, encode_outcome

STREAM_CONFIG = CampaignConfig(
    year=2018, seed=3, mode="stream", drop_captures=True, workers=2
)


def _outcome(scale):
    config = dataclasses.replace(STREAM_CONFIG, scale=scale)
    return run_shard(ShardTask(config=config, index=0, workers=2))


def test_pickled_outcome_fits_budget():
    assert len(encode_outcome(_outcome(scale=65536))) < OUTCOME_BUDGET_BYTES


def test_payload_is_flat_in_probe_count():
    # 4x the probes must not move the payload materially: the state is
    # keyed by distinct destinations, not probes. Allow 2x slack for
    # genuinely destination-shaped growth.
    small = encode_outcome(_outcome(scale=65536))
    large = encode_outcome(_outcome(scale=16384))
    assert len(large) < 2 * len(small)
