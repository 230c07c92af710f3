"""Markdown rendering of campaign results.

Produces a self-contained document — headline, the paper's reference
values, every table in fenced blocks — suitable for committing next to
a saved dataset or posting as a scan report.
"""

from __future__ import annotations

import pathlib

from repro.analysis.report import (
    render_correctness,
    render_country_distribution,
    render_empty_question,
    render_flag_table,
    render_forwarder_table,
    render_incorrect_forms,
    render_malicious_categories,
    render_malicious_flags,
    render_probe_summary,
    render_rcode_table,
    render_top_destinations,
    render_validation_table,
)

#: Paper reference values quoted in the generated documents.
_PAPER_NOTES = {
    2013: "paper: 16.66M R2, Err 1.029%, 12,874 malicious R2",
    2018: "paper: 6.51M R2, Err 3.879%, 26,926 malicious R2",
}


def _fence(text: str) -> str:
    return f"```\n{text}\n```"


def campaign_markdown(result) -> str:
    """One campaign as a markdown document."""
    year = result.year
    lines = [
        f"# Open-resolver scan report — {year}",
        "",
        f"*Reproduction of Park et al. (DSN 2019), scale 1/{result.scale}, "
        f"seed {result.config.seed}.*",
        "",
        "## Headline",
        "",
        result.summary(),
        "",
        f"({_PAPER_NOTES.get(year, '')})",
        "",
        "## Probing summary (Table II)",
        "",
        _fence(
            render_probe_summary(
                [result.probe_summary], title="measured (scaled)"
            )
            + "\n\n"
            + render_probe_summary(
                [result.extrapolated_summary()], title="extrapolated"
            )
        ),
        "",
        "## Answer correctness (Table III)",
        "",
        _fence(render_correctness({year: result.correctness})),
        "",
        "## Header behavior (Tables IV-VI)",
        "",
        _fence(render_flag_table({year: result.ra_table})),
        "",
        _fence(render_flag_table({year: result.aa_table})),
        "",
        _fence(render_rcode_table({year: result.rcode_table})),
        "",
        "## Empty dns_question (section IV-B4)",
        "",
        _fence(render_empty_question(result.empty_question.summary)),
        "",
        "## Incorrect answers (Tables VII-VIII)",
        "",
        _fence(render_incorrect_forms({year: result.incorrect_forms})),
        "",
        _fence(render_top_destinations(result.top_destinations)),
        "",
        "## Malicious responses (Tables IX-X, countries)",
        "",
        _fence(render_malicious_categories({year: result.malicious_categories})),
        "",
        _fence(render_malicious_flags(result.malicious_flags)),
        "",
        _fence(render_country_distribution(result.country_distribution)),
        "",
    ]
    if result.forwarder_table is not None:
        lines += [
            "## Transparent forwarders (off-path R2 join)",
            "",
            _fence(render_forwarder_table(result.forwarder_table)),
            "",
        ]
    if result.validation_table is not None:
        lines += [
            "## DNSSEC validation behavior (bogus-RRSIG probe)",
            "",
            _fence(render_validation_table({year: result.validation_table})),
            "",
        ]
    if getattr(result, "attack_matrix", None) is not None:
        from repro.attacks.report import render_attack_matrix

        lines += [
            "## Attack x defense matrix (adversarial workload suite)",
            "",
            _fence(render_attack_matrix(result.attack_matrix)),
            "",
        ]
    lines += [
        "## Open-resolver estimates (section IV-B1)",
        "",
        f"- RA flag only: **{result.estimates.ra_flag_only:,}** "
        f"(~{result.estimates.ra_flag_only * result.scale:,} full-scale)",
        f"- RA=1 and correct (strictest): "
        f"**{result.estimates.ra_and_correct:,}** "
        f"(~{result.estimates.ra_and_correct * result.scale:,} full-scale)",
        f"- correct regardless of RA: "
        f"**{result.estimates.correct_any_flag:,}** "
        f"(~{result.estimates.correct_any_flag * result.scale:,} full-scale)",
        "",
    ]
    return "\n".join(lines)


def write_markdown_report(result, path) -> pathlib.Path:
    """Write :func:`campaign_markdown` to ``path`` and return it."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(campaign_markdown(result))
    return target
