"""Report generation: campaign results as standalone documents."""

from repro.reporting.markdown import campaign_markdown, write_markdown_report

__all__ = [
    "campaign_markdown",
    "write_markdown_report",
]
