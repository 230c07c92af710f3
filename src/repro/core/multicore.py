"""Fork+ring transport: one campaign round in shared-nothing children.

:func:`repro.core.shard.run_sharded` runs every campaign; when a round
runs in worker processes, it hands that round to :func:`run_multicore`,
which runs the pending shards the ZDNS/ZMap scale-out way:

- **Work distribution without task objects.** The parent sends each
  worker only scalars: the config's field tuple plus
  ``(worker_id, nworkers, attempt)``. The worker derives everything
  else locally — its seed via :func:`~repro.core.shard.shard_seed` and
  its strided probe slice ``universe[worker_id::nworkers]`` — exactly
  as :func:`~repro.core.shard.run_shard` does in-process, so the
  per-shard simulation is byte-identical wherever it runs. Under the
  fork start method the parent primes the shared universe and world
  memos first, so children inherit them instead of each recomputing
  them.
- **Compact result rings, drained incrementally.** Each worker owns a
  single-producer ring (:mod:`repro.core.ringbuf`: shared memory, or a
  pipe where the platform has none) and ships its outcome as a
  struct-packed frame (:mod:`repro.stream.codec`) when the state is
  compact (streaming ``drop_captures``), or a pickle frame otherwise.
  The parent drains all rings continuously while workers run, so a
  ring never blocks a producer and results are decoded as they land,
  not at the end of the round.
- **Batched dispatch inside the worker.** The scan drains the
  scheduler in :data:`DEFAULT_EVENT_BATCH`-event batches
  (:meth:`~repro.netsim.events.Scheduler.run_batch`) and folds
  telemetry wire tallies once per batch instead of per probe.

A worker that raises ships an error frame; a worker that dies without
a frame (chaos kill, crash) is detected by its exit code. Either way
the shard comes back as an error, and ``run_sharded`` decides whether
to requeue it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import struct
import time

from repro.core.ringbuf import (
    KIND_ERROR,
    KIND_OUTCOME_COMPACT,
    KIND_OUTCOME_PICKLE,
    FrameParser,
    PipeRing,
    create_ring,
    open_child_ring,
    pack_frame,
)
from repro.core.shard import (
    ShardExecutionError,
    ShardOutcome,
    ShardTask,
    run_shard,
    shard_seed,
)
from repro.resolvers.population import SampledPopulation

__all__ = ["run_multicore", "DEFAULT_EVENT_BATCH"]

#: Scheduler events pulled per batch inside each worker. Large enough
#: to amortize the batch-boundary work to noise, small enough that
#: telemetry tallies stay fresh for live samplers.
DEFAULT_EVENT_BATCH = 4096

#: Outcome-frame prefix: worker index, attempt, CPU-busy seconds. Busy
#: time is ``time.process_time`` — CPU consumed by the worker process —
#: so aggregate capacity numbers are honest even when workers contend
#: for fewer physical cores than there are shards.
_PREFIX = struct.Struct("<IId")

#: Fork-inheritance slot for ``population_override``: an evolved world
#: cannot be re-derived from the seed, so it cannot ride the scalar
#: wire. The parent parks it here before forking and clears it after;
#: forked children read it at task build time.
_fork_override: SampledPopulation | None = None


def _config_to_wire(config) -> tuple:
    """The config as a flat scalar tuple (field order is the schema)."""
    return tuple(
        getattr(config, field.name) for field in dataclasses.fields(config)
    )


def _config_from_wire(wire: tuple):
    from repro.core.campaign import CampaignConfig

    names = [field.name for field in dataclasses.fields(CampaignConfig)]
    return CampaignConfig(**dict(zip(names, wire)))


def _worker_main(
    wire: tuple,
    index: int,
    workers: int,
    attempt: int,
    ring_handle,
    telemetry_config,
) -> None:
    """One worker: derive the slice locally, scan, ship one frame.

    Runs as a child process (fork or spawn — the args are scalars plus
    a ring descriptor). Exactly one frame leaves: a compact or pickled
    outcome on success, an error frame on
    :class:`ShardExecutionError`. A hard kill ships nothing; the parent
    reads the exit code instead.
    """
    ring = open_child_ring(ring_handle)
    try:
        task = ShardTask(
            config=_config_from_wire(wire),
            index=index,
            workers=workers,
            population_override=_fork_override,
            attempt=attempt,
            telemetry=telemetry_config,
        )
        busy_start = time.process_time()
        try:
            outcome = run_shard(task, event_batch=DEFAULT_EVENT_BATCH)
        except ShardExecutionError as exc:
            ring.write(pack_frame(
                KIND_ERROR,
                pickle.dumps(
                    (exc.index, exc.workers, exc.seed, exc.message),
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            ))
            return
        busy = time.process_time() - busy_start
        prefix = _PREFIX.pack(index, attempt, busy)
        from repro.stream.codec import encode_outcome

        compact = encode_outcome(outcome)
        if compact is not None:
            ring.write(pack_frame(KIND_OUTCOME_COMPACT, prefix + compact))
        else:
            ring.write(pack_frame(
                KIND_OUTCOME_PICKLE,
                prefix + pickle.dumps(
                    outcome, protocol=pickle.HIGHEST_PROTOCOL
                ),
            ))
    finally:
        ring.close()


def _handle_frame(
    kind: int,
    payload: bytes,
    outcomes: dict[int, ShardOutcome],
    errors: dict[int, BaseException],
    stats: dict,
) -> None:
    stats["frames"] += 1
    if kind == KIND_ERROR:
        index, workers, seed, message = pickle.loads(payload)
        errors[index] = ShardExecutionError(index, workers, seed, message)
        return
    index, _attempt, busy = _PREFIX.unpack_from(payload, 0)
    blob = payload[_PREFIX.size:]
    if kind == KIND_OUTCOME_COMPACT:
        from repro.stream.codec import decode_outcome

        outcome = decode_outcome(blob)
        stats["compact_frames"] += 1
    elif kind == KIND_OUTCOME_PICKLE:
        outcome = pickle.loads(blob)
        stats["pickle_frames"] += 1
    else:
        raise ValueError(f"unknown result-ring frame kind: {kind}")
    stats["worker_busy_s"][index] = round(busy, 6)
    outcomes[index] = outcome


@dataclasses.dataclass
class _WorkerState:
    ring: object
    parser: FrameParser
    proc: object = None


def _drain_workers(
    states: dict[int, _WorkerState],
    outcomes: dict[int, ShardOutcome],
    errors: dict[int, BaseException],
    stats: dict,
    config,
) -> None:
    """Pump every live worker's ring until all workers are finished.

    The incremental half of the pipeline: frames are parsed and decoded
    the moment their bytes land, so a worker writing a frame larger
    than its ring streams through in chunks while the parent consumes,
    and the merge-side work overlaps the slowest worker's tail.
    """

    def pump(state: _WorkerState) -> bool:
        data = state.ring.read()
        if not data:
            return False
        stats["bytes_shipped"] += len(data)
        for kind, payload in state.parser.feed(data):
            _handle_frame(kind, payload, outcomes, errors, stats)
        return True

    while states:
        progress = False
        for index in list(states):
            state = states[index]
            if pump(state):
                progress = True
            proc = state.proc
            if not proc.is_alive():
                proc.join()
                pump(state)  # the frame may have landed between polls
                if index not in outcomes and index not in errors:
                    errors[index] = ShardExecutionError(
                        index, config.workers,
                        shard_seed(config.seed, index, config.workers),
                        "worker exited with code "
                        f"{proc.exitcode} before shipping a result",
                    )
                state.ring.close()
                del states[index]
                progress = True
        if not progress:
            time.sleep(0.001)


def _abort(states: dict[int, _WorkerState]) -> None:
    """Tear down a round whose children could not all start."""
    for state in states.values():
        proc = state.proc
        if proc is not None and proc.pid is not None:
            proc.terminate()
            proc.join()
        state.ring.close()


def run_multicore(
    config,
    pending: list[int],
    attempts: dict[int, int],
    population_override,
    telemetry_config,
    stats: dict,
) -> tuple[dict[int, ShardOutcome], dict[int, BaseException]]:
    """Run one round's ``pending`` shards in forked children.

    One child and one result ring per shard; returns the round's
    ``(outcomes, errors)`` by shard index and accounts frames, bytes,
    transport and per-worker CPU-busy seconds on ``stats``. Its wall
    time is the parent waiting on its children. Raises ``OSError``
    (with every started child stopped) when a ring or a child cannot
    be created — the caller decides whether to run the round inline.
    """
    global _fork_override
    wire = _config_to_wire(config)
    outcomes: dict[int, ShardOutcome] = {}
    errors: dict[int, BaseException] = {}
    states: dict[int, _WorkerState] = {}
    _fork_override = population_override
    try:
        for index in pending:
            ring = create_ring()
            handle = ring.child_handle()
            stats["transport"] = handle[0]  # "shm" or "pipe"
            state = states[index] = _WorkerState(ring, FrameParser())
            state.proc = multiprocessing.Process(
                target=_worker_main,
                args=(
                    wire, index, config.workers, attempts[index], handle,
                    telemetry_config,
                ),
            )
            state.proc.start()
            if isinstance(ring, PipeRing):
                ring.close_writer()  # the child holds the only write end now
    except BaseException:
        _abort(states)
        raise
    finally:
        _fork_override = None
    _drain_workers(states, outcomes, errors, stats, config)
    return outcomes, errors
