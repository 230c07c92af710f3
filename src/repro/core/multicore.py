"""Fork+pipe transport: one campaign round in shared-nothing children.

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
- **One result message per child.** Each worker holds the write end of
  its own one-way pipe and sends exactly one message on it: its
  outcome in the one outcome format (:mod:`repro.stream.codec`) or its
  error. The parent blocks on every pipe and every child's exit at
  once (:func:`multiprocessing.connection.wait`), and reads a child's
  pipe before it judges the child's exit code.
- **Batched dispatch inside the worker.** The scan drains the
  scheduler in :data:`DEFAULT_EVENT_BATCH`-event batches
  (:meth:`~repro.netsim.events.Scheduler.run_batch`) and folds
  telemetry wire tallies once per batch instead of per probe.

A worker that raises sends its error; a worker that dies without a
message (chaos kill, crash) is detected by its exit code. Either way
the shard comes back as an error, and ``run_sharded`` decides whether
to requeue it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import struct
import time
from multiprocessing.connection import Connection, wait

from repro.core.shard import (
    ShardExecutionError,
    ShardOutcome,
    ShardTask,
    run_shard,
    shard_seed,
)
from repro.resolvers.population import SampledPopulation
from repro.stream.codec import decode_outcome, encode_outcome

__all__ = ["run_multicore", "DEFAULT_EVENT_BATCH"]

#: Scheduler events pulled per batch inside each worker. Large enough
#: to amortize the batch-boundary work to noise, small enough that
#: telemetry tallies stay fresh for live samplers.
DEFAULT_EVENT_BATCH = 4096

#: Message prefix: whether the shard succeeded, worker index, attempt,
#: CPU-busy seconds. Busy time is ``time.process_time`` — CPU consumed
#: by the worker process — so aggregate capacity numbers are honest
#: even when workers contend for fewer physical cores than there are
#: shards. An outcome follows a succeeded prefix, the pickled
#: ``(index, workers, seed, message)`` error tuple a failed one.
_PREFIX = struct.Struct("<?IId")

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
    writer: Connection,
    telemetry_config,
) -> None:
    """One worker: derive the slice locally, scan, send one message.

    Runs as a forked child. Exactly one message leaves on ``writer``:
    the encoded outcome on success, the error tuple on
    :class:`ShardExecutionError`. A hard kill sends nothing; the parent
    reads the exit code instead.
    """
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
            writer.send_bytes(
                _PREFIX.pack(False, index, attempt, 0.0)
                + pickle.dumps(
                    (exc.index, exc.workers, exc.seed, exc.message),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            return
        busy = time.process_time() - busy_start
        writer.send_bytes(
            _PREFIX.pack(True, index, attempt, busy) + encode_outcome(outcome)
        )
    finally:
        writer.close()


@dataclasses.dataclass
class _Child:
    reader: Connection
    proc: multiprocessing.Process


def _receive(reader: Connection) -> bytes | None:
    """The child's one message, or ``None`` if it exited without one.

    Called once the pipe is readable or the child has exited. The child
    holds the only write end, so an exited child's pipe reads as end of
    file; a child killed mid-message leaves a torn one, which counts as
    no message.
    """
    try:
        return reader.recv_bytes()
    except (EOFError, OSError):
        return None
    finally:
        reader.close()


def _handle_message(
    message: bytes,
    outcomes: dict[int, ShardOutcome],
    errors: dict[int, BaseException],
    stats: dict,
) -> None:
    stats["frames"] += 1
    stats["bytes_shipped"] += len(message)
    ok, index, _attempt, busy = _PREFIX.unpack_from(message)
    payload = message[_PREFIX.size:]
    if not ok:
        errors[index] = ShardExecutionError(*pickle.loads(payload))
        return
    stats["worker_busy_s"][index] = round(busy, 6)
    outcomes[index] = decode_outcome(payload)


def _collect(
    children: dict[int, _Child],
    outcomes: dict[int, ShardOutcome],
    errors: dict[int, BaseException],
    stats: dict,
    config,
) -> None:
    """Take every child's message and exit, in the order they land.

    Whether a child's pipe or its exit sentinel wakes the wait, the
    pipe is read first: a child that sent its outcome and exited
    succeeded, and a child still writing a message bigger than the OS
    pipe buffer is drained before it is joined.
    """
    waiting = dict(children)
    while waiting:
        ready = wait([
            handle
            for child in waiting.values()
            for handle in (child.reader, child.proc.sentinel)
        ])
        for index, child in list(waiting.items()):
            if child.reader not in ready and child.proc.sentinel not in ready:
                continue
            del waiting[index]
            message = _receive(child.reader)
            child.proc.join()
            if message is not None:
                _handle_message(message, outcomes, errors, stats)
            else:
                errors[index] = ShardExecutionError(
                    index, config.workers,
                    shard_seed(config.seed, index, config.workers),
                    "worker exited with code "
                    f"{child.proc.exitcode} before shipping a result",
                )


def _abort(children: dict[int, _Child]) -> None:
    """Stop a round that failed to start or was interrupted mid-wait."""
    for child in children.values():
        if child.proc.pid is not None:
            child.proc.terminate()
            child.proc.join()
        child.reader.close()


def run_multicore(
    config,
    pending: list[int],
    attempts: dict[int, int],
    population_override,
    telemetry_config,
    stats: dict,
) -> tuple[dict[int, ShardOutcome], dict[int, BaseException]]:
    """Run one round's ``pending`` shards in forked children.

    One child and one result pipe per shard; returns the round's
    ``(outcomes, errors)`` by shard index and accounts frames, bytes,
    transport and per-worker CPU-busy seconds on ``stats``. Its wall
    time is the parent waiting on its children. Raises ``OSError``
    (with every started child stopped) when a pipe or a child cannot
    be created — the caller decides whether to run the round inline.
    Any exception, an interrupt included, stops the round's children.
    """
    global _fork_override
    wire = _config_to_wire(config)
    outcomes: dict[int, ShardOutcome] = {}
    errors: dict[int, BaseException] = {}
    children: dict[int, _Child] = {}
    stats["transport"] = "pipe"
    _fork_override = population_override
    try:
        for index in pending:
            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_worker_main,
                args=(
                    wire, index, config.workers, attempts[index], writer,
                    telemetry_config,
                ),
            )
            children[index] = _Child(reader, proc)
            try:
                proc.start()
            finally:
                writer.close()  # the child holds the only write end now
        _collect(children, outcomes, errors, stats, config)
    except BaseException:
        _abort(children)
        raise
    finally:
        _fork_override = None
    return outcomes, errors
