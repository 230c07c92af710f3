"""Markdown report generation tests."""

import pytest

from repro.core import Campaign, CampaignConfig
from repro.reporting import campaign_markdown, write_markdown_report


@pytest.fixture(scope="module")
def result():
    return Campaign(CampaignConfig(year=2018, scale=16384, seed=19)).run()


class TestCampaignMarkdown:
    def test_sections_present(self, result):
        document = campaign_markdown(result)
        for heading in (
            "# Open-resolver scan report — 2018",
            "## Headline",
            "## Probing summary (Table II)",
            "## Answer correctness (Table III)",
            "## Header behavior (Tables IV-VI)",
            "## Incorrect answers (Tables VII-VIII)",
            "## Malicious responses (Tables IX-X, countries)",
            "## Open-resolver estimates (section IV-B1)",
        ):
            assert heading in document

    def test_tables_fenced(self, result):
        document = campaign_markdown(result)
        assert document.count("```") % 2 == 0
        assert document.count("```") >= 20

    def test_estimates_extrapolated(self, result):
        document = campaign_markdown(result)
        full = result.estimates.ra_and_correct * result.scale
        assert f"{full:,}" in document

    def test_write_to_disk(self, result, tmp_path):
        target = write_markdown_report(result, tmp_path / "sub" / "report.md")
        assert target.exists()
        assert "# Open-resolver scan report" in target.read_text()
