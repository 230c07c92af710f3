"""One-worker report digests, pinned under faults and loss.

A one-worker campaign is shard 0 of 1 run in-process, and a one-shard
campaign keeps the campaign seed as its network seed. Faults and loss
draw from that seed, so these digests pin the serial bytes where the
zero-loss equivalence suites cannot see them: bursty and hostile fault
profiles, Bernoulli loss, streaming, and the compressed 2013 scan.
They were captured from the serial engine before every scan ran
through ``run_sharded`` and do not depend on ``PYTHONHASHSEED``.
"""

import dataclasses
import hashlib

import pytest

from repro.core import Campaign, CampaignConfig

BASE = CampaignConfig(year=2018, scale=65536, seed=3)

HOSTILE = "4741a4524da5771ed7d97cf728e606a55c2d8445d1a7e0495d85242f31bbd926"

DIGESTS = {
    "default": (
        {},
        "e3456c7c6e11efa7635f7cbf5ab4969209134cc729612a4f566cacf1c964d321",
    ),
    "bursty": (
        {"fault_profile": "bursty"},
        "842cb0ed39dc2bddb33bdc6f071ce8c5678125ac3585380a0c6db508be289824",
    ),
    "hostile": ({"fault_profile": "hostile"}, HOSTILE),
    "loss": (
        {"loss_rate": 0.05},
        "c53a605f3f8ba1da489c117d688fbf5e4656e34991bea2184bbd6276c1144adb",
    ),
    "hostile-stream": ({"fault_profile": "hostile", "mode": "stream"}, HOSTILE),
    "2013": (
        {"year": 2013, "scale": 16384, "time_compression": 32},
        "4853342e1f5ecd2928dc1c33ffdefce28e3b1b8b038ec2dc5d026a641bd07808",
    ),
}


@pytest.mark.parametrize("variant", sorted(DIGESTS))
def test_one_worker_report_digest(variant):
    knobs, digest = DIGESTS[variant]
    result = Campaign(dataclasses.replace(BASE, **knobs)).run()
    assert hashlib.sha256(result.report().encode()).hexdigest() == digest
