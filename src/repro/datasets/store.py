"""Saving, loading and offline-analyzing campaign datasets.

Directory layout (one campaign per directory)::

    metadata.json     year, scale, seed, counts, truth address, timing
    r2.pcap           every captured R2 as a raw-IPv4 pcap packet
    auth_log.jsonl    the auth server's query log (the Q2/R1 capture)
    cymon.jsonl       threat reports
    geo.jsonl         geolocation registrations
    whois.jsonl       whois allocations

The offline path re-runs the *same* analyzers the live campaign uses,
so a loaded dataset reproduces the tables bit for bit.

Checkpoint layout (one sharded campaign per directory, see
:func:`save_shard_checkpoint`)::

    shards.json       checkpoint version + the campaign fingerprint
    shard_NNNN.pkl    one completed ShardOutcome, written atomically
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from repro.analysis.correctness import measure_correctness
from repro.analysis.empty_question import EmptyQuestionDetail, measure_empty_question
from repro.analysis.headers import (
    measure_flag_table,
    measure_open_resolver_estimates,
    measure_rcode_table,
)
from repro.analysis.incorrect import measure_incorrect_forms, measure_top_destinations
from repro.analysis.malicious import (
    measure_country_distribution,
    measure_malicious_categories,
    measure_malicious_flags,
)
from repro.dnssrv.auth import QueryLogEntry
from repro.netsim.packet import Datagram
from repro.netsim.pcapfile import PcapWriter, read_pcap
from repro.prober.capture import R2Record, join_flows
from repro.stats import (
    CorrectnessTable,
    FlagTable,
    IncorrectFormsTable,
    MaliciousCategoryTable,
    MaliciousFlagTable,
    OpenResolverEstimates,
    ProbeSummary,
    RcodeTable,
    TopDestinationRow,
)
from repro.stream.codec import decode_outcome, encode_outcome
from repro.threatintel.cymon import CymonDatabase, ThreatCategory, ThreatReport
from repro.threatintel.geo import GeoDatabase
from repro.threatintel.whois import WhoisDatabase

_METADATA = "metadata.json"
_R2_PCAP = "r2.pcap"
_AUTH_LOG = "auth_log.jsonl"
_CYMON = "cymon.jsonl"
_GEO = "geo.jsonl"
_WHOIS = "whois.jsonl"

#: Format version, bumped on layout changes.
FORMAT_VERSION = 1

_SHARD_MANIFEST = "shards.json"

#: Checkpoint format version, bumped on layout changes.
CHECKPOINT_VERSION = 1


def _shard_filename(index: int) -> str:
    return f"shard_{index:04d}.pkl"


def _fsync_directory(path: pathlib.Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    Some filesystems don't support fsync on a directory fd; treat that
    as best-effort rather than failing the checkpoint.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_atomic(target: pathlib.Path, payload: bytes) -> None:
    """Write ``payload`` to ``target`` via tmp-file + fsync + rename.

    The data hits the disk before the rename is issued, and the
    directory entry is flushed after, so a crash at any point leaves
    either the old file (or nothing) or the complete new file — never
    a torn one under the real name.
    """
    temporary = target.parent / (target.name + ".tmp")
    with open(temporary, "wb") as stream:
        stream.write(payload)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temporary, target)
    _fsync_directory(target.parent)


def save_shard_checkpoint(
    directory, fingerprint: dict, index: int, outcome
) -> pathlib.Path:
    """Persist one completed shard outcome, crash-durably.

    The first checkpoint writes a manifest carrying the campaign
    ``fingerprint`` (every config field that shapes shard bytes);
    later writes — and :func:`load_shard_checkpoints` — verify against
    it, so a checkpoint directory can never silently mix shards from
    two different campaigns. Both the manifest and the outcome's bytes
    (:func:`repro.stream.codec.encode_outcome`) are written to a temp
    file, fsynced, and renamed into place (with the directory entry
    flushed after): a crash mid-write leaves no torn manifest or
    half-checkpoint for a resume to trip over.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest_path = path / _SHARD_MANIFEST
    manifest = {"checkpoint_version": CHECKPOINT_VERSION, "campaign": fingerprint}
    if manifest_path.exists():
        _verify_shard_manifest(manifest_path, fingerprint)
    else:
        _write_atomic(
            manifest_path,
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
        )
    target = path / _shard_filename(index)
    _write_atomic(target, encode_outcome(outcome))
    return target


def _verify_shard_manifest(manifest_path: pathlib.Path, fingerprint: dict) -> None:
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise ValueError(
            "unsupported checkpoint version: "
            f"{manifest.get('checkpoint_version')}"
        )
    recorded = manifest.get("campaign")
    if recorded != fingerprint:
        changed = sorted(
            key
            for key in set(recorded or {}) | set(fingerprint)
            if (recorded or {}).get(key) != fingerprint.get(key)
        )
        raise ValueError(
            "checkpoint directory belongs to a different campaign "
            f"(differs in: {', '.join(changed)})"
        )


def load_shard_checkpoints(directory, fingerprint: dict) -> dict[int, object]:
    """Load every completed shard checkpoint under ``directory``.

    Returns ``{shard_index: outcome}``. An empty or nonexistent
    directory resumes to nothing (a fresh run); a directory whose
    manifest names a different campaign raises. A checkpoint that fails
    to decode is treated as not completed, and stray ``*.tmp`` files
    left by a crash mid-write are quarantined — crash tolerance means a
    torn file costs a shard re-run, never the campaign.
    """
    path = pathlib.Path(directory)
    manifest_path = path / _SHARD_MANIFEST
    if not manifest_path.exists():
        return {}
    _verify_shard_manifest(manifest_path, fingerprint)
    for leftover in sorted(path.glob("*.tmp")):
        # A crash between tmp-write and rename leaves a torn tmp file.
        # Quarantine it so it can never be mistaken for a checkpoint;
        # the shard it belonged to simply re-runs.
        try:
            os.replace(leftover, leftover.with_name(leftover.name + ".quarantined"))
        except OSError:
            pass
    outcomes: dict[int, object] = {}
    for checkpoint in sorted(path.glob("shard_*.pkl")):
        try:
            index = int(checkpoint.stem.split("_", 1)[1])
        except ValueError:
            continue
        try:
            outcomes[index] = decode_outcome(checkpoint.read_bytes())
        except Exception:
            continue  # torn or foreign file: re-run that shard
    return outcomes


@dataclasses.dataclass
class CampaignDataset:
    """A campaign's artifacts, loaded back into memory."""

    metadata: dict
    r2_records: list[R2Record]
    query_log: list[QueryLogEntry]
    cymon: CymonDatabase
    geo: GeoDatabase
    whois: WhoisDatabase

    @property
    def year(self) -> int:
        return self.metadata["year"]

    @property
    def scale(self) -> int:
        return self.metadata["scale"]

    @property
    def truth_ip(self) -> str:
        return self.metadata["truth_ip"]


def save_campaign(result, directory) -> pathlib.Path:
    """Persist a :class:`~repro.core.campaign.CampaignResult`."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    capture = result.capture
    metadata = {
        "format_version": FORMAT_VERSION,
        "year": result.config.year,
        "scale": result.config.scale,
        "seed": result.config.seed,
        "truth_ip": result.hierarchy.auth.ip,
        "prober_ip": _prober_ip(result),
        "q1_sent": capture.q1_sent,
        "q1_bytes": capture.q1_bytes,
        "start_time": capture.start_time,
        "end_time": capture.end_time,
        "r2_count": capture.r2_count,
        "clusters_created": capture.cluster_stats.clusters_created,
    }
    (path / _METADATA).write_text(json.dumps(metadata, indent=2) + "\n")
    with open(path / _R2_PCAP, "wb") as stream:
        writer = PcapWriter(stream)
        for record in capture.r2_records:
            writer.write(
                record.timestamp,
                Datagram(record.src_ip, 53, metadata["prober_ip"], 31337,
                         record.payload),
            )
    _write_jsonl(
        path / _AUTH_LOG,
        (
            {
                "timestamp": entry.timestamp,
                "src_ip": entry.src_ip,
                "qname": entry.qname,
                "qtype": entry.qtype,
                "rcode": entry.rcode,
            }
            for entry in result.query_log
        ),
    )
    _write_jsonl(
        path / _CYMON,
        (
            {
                "ip": report.ip,
                "category": report.category.value,
                "source": report.source,
            }
            for report in result.population.cymon.all_reports()
        ),
    )
    _write_jsonl(
        path / _GEO,
        (
            {
                "cidr": str(entry.block),
                "country": entry.country,
                "asn": entry.asn,
                "as_name": entry.as_name,
            }
            for entry in result.population.geo.entries()
        ),
    )
    _write_jsonl(
        path / _WHOIS,
        (
            {"cidr": str(record.block), "org": record.org_name}
            for record in result.population.whois.records()
        ),
    )
    return path


def _prober_ip(result) -> str:
    from repro.prober.probe import PROBER_IP

    return PROBER_IP


def _write_jsonl(path: pathlib.Path, rows) -> None:
    with open(path, "w") as stream:
        for row in rows:
            stream.write(json.dumps(row) + "\n")


def _read_jsonl(path: pathlib.Path):
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_campaign(directory) -> CampaignDataset:
    """Load a campaign saved by :func:`save_campaign`."""
    path = pathlib.Path(directory)
    metadata = json.loads((path / _METADATA).read_text())
    if metadata.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format: {metadata.get('format_version')}"
        )
    with open(path / _R2_PCAP, "rb") as stream:
        r2_records = [
            R2Record(packet.timestamp, packet.datagram.src_ip,
                     packet.datagram.payload)
            for packet in read_pcap(stream)
        ]
    query_log = [
        QueryLogEntry(
            timestamp=row["timestamp"],
            src_ip=row["src_ip"],
            qname=row["qname"],
            qtype=row["qtype"],
            rcode=row["rcode"],
        )
        for row in _read_jsonl(path / _AUTH_LOG)
    ]
    cymon = CymonDatabase()
    for row in _read_jsonl(path / _CYMON):
        cymon.add_report(
            ThreatReport(
                ip=row["ip"],
                category=ThreatCategory(row["category"]),
                source=row["source"],
            )
        )
    geo = GeoDatabase()
    for row in _read_jsonl(path / _GEO):
        geo.add(row["cidr"], row["country"], row["asn"], row["as_name"])
    whois = WhoisDatabase()
    for row in _read_jsonl(path / _WHOIS):
        whois.add(row["cidr"], row["org"])
    return CampaignDataset(
        metadata=metadata,
        r2_records=r2_records,
        query_log=query_log,
        cymon=cymon,
        geo=geo,
        whois=whois,
    )


@dataclasses.dataclass
class DatasetAnalysis:
    """Every paper table, computed offline from stored artifacts."""

    dataset: CampaignDataset
    probe_summary: ProbeSummary
    correctness: CorrectnessTable
    ra_table: FlagTable
    aa_table: FlagTable
    rcode_table: RcodeTable
    estimates: OpenResolverEstimates
    empty_question: EmptyQuestionDetail
    incorrect_forms: IncorrectFormsTable
    top_destinations: list[TopDestinationRow]
    malicious_categories: MaliciousCategoryTable
    malicious_flags: MaliciousFlagTable
    country_distribution: dict[str, int]


def analyze_dataset(dataset: CampaignDataset) -> DatasetAnalysis:
    """Run the full table pipeline over a loaded dataset."""
    flow_set = join_flows(dataset.r2_records, dataset.query_log)
    views = flow_set.views
    truth = dataset.truth_ip
    metadata = dataset.metadata
    summary = ProbeSummary(
        year=dataset.year,
        duration_seconds=metadata["end_time"] - metadata["start_time"],
        q1=metadata["q1_sent"],
        q2_r1=flow_set.q2_count,
        r2=flow_set.r2_count,
    )
    return DatasetAnalysis(
        dataset=dataset,
        probe_summary=summary,
        correctness=measure_correctness(views, truth),
        ra_table=measure_flag_table(views, truth, "ra"),
        aa_table=measure_flag_table(views, truth, "aa"),
        rcode_table=measure_rcode_table(views),
        estimates=measure_open_resolver_estimates(views, truth),
        empty_question=measure_empty_question(flow_set.unjoinable),
        incorrect_forms=measure_incorrect_forms(views, truth),
        top_destinations=measure_top_destinations(
            views, truth, dataset.whois, dataset.cymon
        ),
        malicious_categories=measure_malicious_categories(
            views, truth, dataset.cymon
        ),
        malicious_flags=measure_malicious_flags(views, truth, dataset.cymon),
        country_distribution=measure_country_distribution(
            views, truth, dataset.cymon, dataset.geo
        ),
    )
