"""Round trip of the one shard-outcome format.

Every :class:`ShardOutcome` that leaves its process — a forked
worker's result message, a shard checkpoint — is written by
``encode_outcome`` and read by ``decode_outcome``, and the conformance
suite's byte-identity contract rides on those bytes. Rather than
hand-build outcomes, the test runs small real shards of every shape a
campaign produces, so the encoded state is exactly what a worker would
send or a checkpoint would hold.
"""

import dataclasses

import pytest

from repro.core import CampaignConfig
from repro.core.shard import ShardOutcome, ShardTask, run_shard
from repro.stream.codec import decode_outcome, encode_outcome
from repro.telemetry import TelemetryConfig

BASE = CampaignConfig(year=2018, scale=65536, seed=3, workers=2)

DROP = {"mode": "stream", "drop_captures": True}

#: (config overrides, telemetry) for each outcome shape.
SHAPES = {
    "batch": ({}, None),
    "stream": ({"mode": "stream"}, None),
    "drop_captures": (DROP, None),
    # Faults fill the retry, rcode and unjoinable fields a clean run
    # leaves sparse.
    "bursty": ({**DROP, "fault_profile": "bursty"}, None),
    "telemetry": (DROP, TelemetryConfig()),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_field_survives(shape):
    overrides, telemetry = SHAPES[shape]
    config = dataclasses.replace(BASE, **overrides)
    outcome = run_shard(
        ShardTask(config=config, index=1, workers=2, telemetry=telemetry)
    )
    decoded = decode_outcome(encode_outcome(outcome))
    for field in dataclasses.fields(ShardOutcome):
        assert getattr(decoded, field.name) == getattr(
            outcome, field.name
        ), field.name
