"""The one byte format of a shard outcome.

A :class:`~repro.core.shard.ShardOutcome` leaves the process that ran
its shard in two ways: as the one message a forked worker sends back
(:mod:`repro.core.multicore`) and as a shard checkpoint on disk
(:func:`repro.datasets.store.save_shard_checkpoint`). Both write
:func:`encode_outcome` and read :func:`decode_outcome`, so this module
alone decides the format: one ``HIGHEST_PROTOCOL`` pickle, the layout
checkpoints have always had. ``decode_outcome(encode_outcome(o))``
equals ``o`` field by field, so the transport can never perturb
Tables II–X.
"""

from __future__ import annotations

import pickle

__all__ = ["OUTCOME_BUDGET_BYTES", "encode_outcome", "decode_outcome"]

#: Hard ceiling on one encoded shard outcome in a ``drop_captures``
#: streaming campaign. Accumulator state is O(distinct keys), not
#: O(probes); a payload near this limit means someone reintroduced
#: per-probe state into the shipping path. The regression test in
#: ``tests/core/test_outcome_budget.py`` pins it.
OUTCOME_BUDGET_BYTES = 64 * 1024


def encode_outcome(outcome) -> bytes:
    """The bytes of one shard outcome."""
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def decode_outcome(blob: bytes):
    """The shard outcome :func:`encode_outcome` wrote.

    Unpickling can run code, so ``blob`` must come from this program:
    a worker's result pipe or a checkpoint directory it wrote.
    """
    return pickle.loads(blob)
