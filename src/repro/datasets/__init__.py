"""Campaign dataset persistence and offline (re-)analysis.

The paper analyzed its 2013 scan years later from stored ``.pcap``
files. This subpackage provides the same workflow for the
reproduction: a completed campaign saves to a directory (R2 packets as
binary pcap, the auth-side query log and the threat-intel databases as
JSON lines, metadata as JSON) and the whole table pipeline can be
re-run offline from the stored artifacts — no simulation required.
"""

from repro.datasets.store import (
    CampaignDataset,
    DatasetAnalysis,
    analyze_dataset,
    load_campaign,
    load_shard_checkpoints,
    save_campaign,
    save_shard_checkpoint,
)

__all__ = [
    "CampaignDataset",
    "DatasetAnalysis",
    "analyze_dataset",
    "load_campaign",
    "load_shard_checkpoints",
    "save_campaign",
    "save_shard_checkpoint",
]
