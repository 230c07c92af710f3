"""Capture-order independence of the analysis pipeline.

The paper's offline pipeline (and our sharded merge) must not care in
which order R2 packets landed in the pcap: flows join on the qname
key, and every table is an aggregate over flow *content*. These tests
shuffle the captured record list and assert that every rendered table
survives byte for byte.
"""

import dataclasses
import random

import pytest

from repro.core import Campaign, CampaignConfig
from repro.prober.capture import join_flows, merge_flow_sets


@pytest.fixture(scope="module")
def campaign_result():
    return Campaign(
        CampaignConfig(year=2018, scale=65536, seed=5, record_sent_log=True)
    ).run()


def _report_with_records(result, records):
    """Re-join shuffled records and re-run the full analysis."""
    campaign = Campaign(result.config)
    capture = dataclasses.replace(result.capture, r2_records=records)
    flow_set = join_flows(records, result.query_log)
    rebuilt = campaign._analyze(
        result.population,
        result.hierarchy,
        result.network,
        result.software_map,
        result.dnssec_validators,
        capture,
        flow_set,
        validation_table=result.validation_table,
        query_log=result.query_log,
    )
    return rebuilt.report()


class TestShuffledCapture(object):
    @pytest.mark.parametrize("shuffle_seed", [1, 2, 3])
    def test_every_table_unchanged(self, campaign_result, shuffle_seed):
        baseline = campaign_result.report()
        records = list(campaign_result.capture.r2_records)
        random.Random(shuffle_seed).shuffle(records)
        assert _report_with_records(campaign_result, records) == baseline

    def test_reversed_capture_unchanged(self, campaign_result):
        baseline = campaign_result.report()
        records = list(reversed(campaign_result.capture.r2_records))
        assert _report_with_records(campaign_result, records) == baseline


class TestShuffledQueryLog(object):
    def test_query_log_order_irrelevant(self, campaign_result):
        baseline = campaign_result.report()
        log = list(campaign_result.query_log)
        random.Random(9).shuffle(log)
        campaign = Campaign(campaign_result.config)
        flow_set = join_flows(campaign_result.capture.r2_records, log)
        rebuilt = campaign._analyze(
            campaign_result.population,
            campaign_result.hierarchy,
            campaign_result.network,
            campaign_result.software_map,
            campaign_result.dnssec_validators,
            campaign_result.capture,
            flow_set,
            validation_table=campaign_result.validation_table,
            query_log=log,
        )
        assert rebuilt.report() == baseline


class TestMergeOrderIndependence(object):
    def test_flow_set_merge_order_irrelevant(self, campaign_result):
        records = campaign_result.capture.r2_records
        half = len(records) // 2
        first = join_flows(records[:half])
        second = join_flows(records[half:])
        # Q2/R1 joins ride along with whichever part owns the qname.
        whole = join_flows(records, campaign_result.query_log)
        forward = merge_flow_sets([first, second])
        backward = merge_flow_sets([second, first])
        assert forward.views == backward.views
        assert forward.unjoinable == backward.unjoinable
        assert set(forward.flows) == set(whole.flows)

    def test_merge_rejects_colliding_qnames(self, campaign_result):
        records = campaign_result.capture.r2_records
        flow_set = join_flows(records)
        with pytest.raises(ValueError):
            merge_flow_sets([flow_set, flow_set])
