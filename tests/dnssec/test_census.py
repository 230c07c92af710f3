"""DNSSEC validator census tests."""

import pytest

from repro.core import Campaign, CampaignConfig
from repro.dnssec import (
    ValidatorScanner,
    assign_validators,
    render_validator_census,
    validator_share_for_year,
)


@pytest.fixture(scope="module")
def campaign():
    return Campaign(CampaignConfig(year=2018, scale=16384, seed=13)).run()


class TestAssignment:
    def test_deterministic(self, campaign):
        first = assign_validators(campaign.population, 2018, seed=1)
        second = assign_validators(campaign.population, 2018, seed=1)
        assert first == second

    def test_share_roughly_calibrated(self, campaign):
        validators = assign_validators(campaign.population, 2018, seed=1)
        share = len(validators) / campaign.population.host_count
        assert abs(share - validator_share_for_year(2018)) < 0.05

    def test_year_shares(self):
        assert validator_share_for_year(2013) < validator_share_for_year(2018)


class TestScanner:
    def test_census_matches_assignment(self, campaign):
        # The campaign assigned validators at deploy time with the same
        # (population, year, seed) triple.
        expected = campaign.dnssec_validators
        targets = sorted(campaign.population.address_set())
        scanner = ValidatorScanner(
            campaign.network, campaign.hierarchy.auth, campaign.hierarchy.sld
        )
        census = scanner.scan(targets)
        # Only genuinely resolving hosts can earn AD: the measured
        # validating set is the assigned validators that answer correctly.
        assert census.validating <= expected
        assert census.validating, "expected at least one validating resolver"
        # Only probed targets are counted: the answers a transparent
        # forwarder's upstream sends from an unprobed address are not.
        assert census.validating | census.non_validating <= set(targets)
        assert census.answered <= len(targets)

    def test_share_in_plausible_band(self, campaign):
        targets = sorted(campaign.population.address_set())
        scanner = ValidatorScanner(
            campaign.network, campaign.hierarchy.auth, campaign.hierarchy.sld,
            scanner_ip="132.170.3.19", source_port=31500,
        )
        census = scanner.scan(targets)
        # ~12% of *all* resolvers validate, but only answer-bearing hosts
        # resolve the probe; the share among answerers lands near the
        # calibrated rate.
        assert 0.02 < census.validating_share < 0.30

    def test_probe_zone_cleaned_up(self, campaign):
        auth = campaign.hierarchy.auth
        scanner = ValidatorScanner(
            campaign.network, auth, campaign.hierarchy.sld,
            scanner_ip="132.170.3.20", source_port=31501,
        )
        scanner.scan(sorted(campaign.population.address_set())[:10])
        assert not auth.has_subdomain_loaded(scanner.probe_qname)

    def test_render(self, campaign):
        targets = sorted(campaign.population.address_set())[:40]
        scanner = ValidatorScanner(
            campaign.network, campaign.hierarchy.auth, campaign.hierarchy.sld,
            scanner_ip="132.170.3.21", source_port=31502,
        )
        census = scanner.scan(targets)
        text = render_validator_census(census, 2018)
        assert "DNSSEC validator census" in text
        assert "AD=1" in text

    def test_disabled_dnssec_yields_no_validators(self):
        result = Campaign(
            CampaignConfig(year=2018, scale=65536, seed=3, dnssec=False)
        ).run()
        assert result.dnssec_validators == set()
        scanner = ValidatorScanner(
            result.network, result.hierarchy.auth, result.hierarchy.sld
        )
        census = scanner.scan(sorted(result.population.address_set()))
        assert census.validating == set()
