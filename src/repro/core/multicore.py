"""Fork+pipe transport: one campaign round in shared-nothing children.

:func:`repro.core.shard.run_sharded` runs every campaign; when a round
runs in worker processes, it hands that round to :func:`run_multicore`,
which runs the pending shards the ZDNS/ZMap scale-out way:

- **One task per child.** Each child receives its shard's
  :class:`~repro.core.shard.ShardTask` as a plain process argument —
  the same task an in-process round runs. Under the fork start method
  the child inherits it without pickling, evolved
  ``population_override`` included; under spawn or forkserver it
  pickles like an outcome does. The child derives its seed via
  :func:`~repro.core.shard.shard_seed` and its strided probe slice
  ``universe[index::workers]`` exactly as
  :func:`~repro.core.shard.run_shard` does in-process, so the
  per-shard simulation is byte-identical wherever it runs. Under fork
  the parent primes the shared universe and world memos first, so
  children inherit them instead of each recomputing them.
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

The validation census runs through the same entry point: ``run_sharded``
forks it once (:func:`start_child`) as soon as the world is primed, so
it runs beside every round, and collects its table after the last one
(:func:`collect_census`). It has its own pipe and sends one pickled
``(ok, table or error, busy)`` message; that message is not a shard
frame, so it counts in neither ``frames`` nor ``bytes_shipped`` and adds
no ``worker_busy_s`` entry.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import struct
import time
from multiprocessing.connection import Connection, wait

from repro.core.shard import (
    CensusTask,
    ShardExecutionError,
    ShardOutcome,
    ShardTask,
    run_shard,
    shard_seed,
    validation_census_table,
)
from repro.stats import ValidationTable
from repro.stream.codec import decode_outcome, encode_outcome

__all__ = [
    "run_multicore",
    "start_child",
    "stop_child",
    "collect_census",
    "DEFAULT_EVENT_BATCH",
]

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


def _worker_main(task: ShardTask | CensusTask, writer: Connection) -> None:
    """One worker: run the task, send one message.

    Runs as a forked child. Exactly one message leaves on ``writer``.
    For a shard it is the encoded outcome on success, the error tuple
    on :class:`ShardExecutionError`; for the census, its pickled
    result (:func:`_census_message`). A hard kill sends nothing; the
    parent reads the exit code instead.
    """
    try:
        if isinstance(task, CensusTask):
            writer.send_bytes(_census_message(task))
            return
        busy_start = time.process_time()
        try:
            outcome = run_shard(task, event_batch=DEFAULT_EVENT_BATCH)
        except ShardExecutionError as exc:
            writer.send_bytes(
                _PREFIX.pack(False, task.index, task.attempt, 0.0)
                + pickle.dumps(
                    (exc.index, exc.workers, exc.seed, exc.message),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            return
        busy = time.process_time() - busy_start
        writer.send_bytes(
            _PREFIX.pack(True, task.index, task.attempt, busy)
            + encode_outcome(outcome)
        )
    finally:
        writer.close()


def _census_message(task: CensusTask) -> bytes:
    """The census child's one message: ``(ok, table or error, busy)``.

    An error travels as the exception itself, so the parent raises it
    with the child's type and message. The table pickles to ~120 B;
    the census itself, which grows with the population, stays here.
    """
    busy_start = time.process_time()
    try:
        result = (True, validation_census_table(task))
    except Exception as exc:
        result = (False, exc)
    busy = time.process_time() - busy_start
    return pickle.dumps((*result, busy), protocol=pickle.HIGHEST_PROTOCOL)


@dataclasses.dataclass
class _Child:
    task: ShardTask | CensusTask
    reader: Connection
    proc: multiprocessing.Process


def start_child(task: ShardTask | CensusTask) -> _Child:
    """Fork one worker for ``task``; ``OSError`` if it cannot start.

    The parent keeps the read end of the child's pipe and closes its
    copy of the write end, so the pipe reads as end of file once the
    child exits.
    """
    reader, writer = multiprocessing.Pipe(duplex=False)
    child = _Child(task, reader, multiprocessing.Process(
        target=_worker_main, args=(task, writer)
    ))
    try:
        child.proc.start()
    except BaseException:
        reader.close()
        raise
    finally:
        writer.close()  # the child holds the only write end now
    return child


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
                task = child.task
                errors[index] = ShardExecutionError(
                    index, task.workers,
                    shard_seed(task.config.seed, index, task.workers),
                    "worker exited with code "
                    f"{child.proc.exitcode} before shipping a result",
                )


def stop_child(child: _Child) -> None:
    """Stop a child and reap it; one that already exited is just reaped."""
    if child.proc.pid is not None:
        child.proc.terminate()
        child.proc.join()
    child.reader.close()


def _abort(children: dict[int, _Child]) -> None:
    """Stop a round that failed to start or was interrupted mid-wait."""
    for child in children.values():
        stop_child(child)


def collect_census(child: _Child) -> tuple[ValidationTable, float]:
    """The census's ``(table, CPU-busy seconds)``; raises its error.

    Blocks until the child's message or its exit, reads the pipe before
    joining the child, and raises the census's own exception, or a
    :class:`RuntimeError` naming the census and its exit code when the
    child exited without a message.
    """
    message = _receive(child.reader)
    child.proc.join()
    if message is None:
        raise RuntimeError(
            f"validation census exited with code {child.proc.exitcode} "
            "before sending its table"
        )
    ok, payload, busy = pickle.loads(message)
    if not ok:
        raise payload
    return payload, busy


def run_multicore(
    tasks: list[ShardTask], stats: dict
) -> tuple[dict[int, ShardOutcome], dict[int, BaseException]]:
    """Run one round's shard ``tasks`` in forked children.

    One child and one result pipe per task; returns the round's
    ``(outcomes, errors)`` by shard index and accounts frames, bytes,
    transport and per-worker CPU-busy seconds on ``stats``. Its wall
    time is the parent waiting on its children. Raises ``OSError``
    (with every started child stopped) when a pipe or a child cannot
    be created — the caller decides whether to run the round inline.
    Any exception, an interrupt included, stops the round's children.
    """
    outcomes: dict[int, ShardOutcome] = {}
    errors: dict[int, BaseException] = {}
    children: dict[int, _Child] = {}
    stats["transport"] = "pipe"
    try:
        for task in tasks:
            children[task.index] = start_child(task)
        _collect(children, outcomes, errors, stats)
    except BaseException:
        _abort(children)
        raise
    return outcomes, errors
