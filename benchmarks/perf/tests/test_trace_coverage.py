"""Every per-layer wrapper must see calls where its layer runs, and none
where the workload bypasses it.

A wrapper patched onto a name the caller never looks up reads 0 on the
workload that exercises its layer; one patched too broadly reads above 0
on the workload that bypasses it. Each workload runs once, traced, at a
reduced size (campaigns at scale 32768, serve for 4 s) — the same code
path as a benchmark run, less input.
"""

from __future__ import annotations

import pytest

from benchmarks.perf import campaign, serve
from benchmarks.perf.workloads import PER_LAYER

CAMPAIGNS = ("campaign-batch", "campaign-stream")
SERVES = ("serve-hit", "serve-miss")
ALL = CAMPAIGNS + SERVES

#: per-layer metric -> workloads that exercise it (all others bypass it).
EXERCISED = {
    "netsim.events": CAMPAIGNS,
    "netsim.send.calls": CAMPAIGNS,
    "prober.q1": CAMPAIGNS,
    "prober.self_s": CAMPAIGNS,
    "resolvers.handle_query.calls": CAMPAIGNS,
    "resolvers.handle_upstream.calls": CAMPAIGNS,
    "core.world_build_s": CAMPAIGNS,
    "dnssec.census_s": CAMPAIGNS,
    "dnslib.message.decode.calls": ALL,
    "dnslib.message.encode.calls": ALL,
    "dnssrv.auth.handle.calls": CAMPAIGNS + ("serve-miss",),
    "dnssrv.delegation.handle.calls": ("serve-miss",),
    "dnssrv.recursive.handle_client.calls": SERVES,
    "dnssrv.recursive.handle_upstream.calls": ("serve-miss",),
    "dnssrv.cache.get.calls": SERVES,
    "dnssrv.cache.negative_put.calls": ("serve-miss",),
    "transport.udp.recv.self_s": SERVES,
    "transport.udp.send.calls": SERVES,
    "udp.received": SERVES,
    "stream.sink.self_s": ("campaign-stream",),
    "stream.finish_s": ("campaign-stream",),
    "stream.events": ("campaign-stream",),
    "analysis.join_flows_s": ("campaign-batch",),
    "analysis.measure_s": ("campaign-batch",),
    "core.multicore.parent_wait_s": ("campaign-stream",),
    "core.multicore.worker_busy_s": ("campaign-stream",),
    "core.multicore.bytes_shipped": ("campaign-stream",),
    "core.shard.self_s": ("campaign-stream",),
    "stream.codec.encode_s": ("campaign-stream",),
    "stream.codec.decode_s": ("campaign-stream",),
    "loadgen.sent": SERVES,
}


@pytest.fixture(scope="module")
def traced():
    runs = {}
    for name in CAMPAIGNS:
        runs[name] = campaign.run(name, seed=3, seconds=0, trace=True, scale=32768)
    for name in SERVES:
        runs[name] = serve.run(name, seed=3, seconds=4, trace=True)
    return runs


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_is_correct_and_complete(traced, workload):
    result = traced[workload]
    assert result.correct, result.notes
    assert not [note for note in result.notes if "missing" in note]
    assert set(result.layers) == {metric["name"] for metric in PER_LAYER}


@pytest.mark.parametrize("metric", sorted(EXERCISED))
def test_layer_counts_follow_the_workload(traced, metric):
    for workload in ALL:
        value = traced[workload].layers[metric]
        if workload in EXERCISED[metric]:
            assert value > 0, f"{metric} is 0 on {workload}, which runs it"
        else:
            assert value == 0, f"{metric} is {value} on {workload}, which bypasses it"


def test_every_miss_walks_root_tld_auth(traced):
    layers = traced["serve-miss"].layers
    assert layers["dnssrv.recursive.upstream_per_miss"] == pytest.approx(3.0, abs=0.05)
    assert traced["serve-hit"].layers["dnssrv.cache.hit_ratio"] == 1.0

