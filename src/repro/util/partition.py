"""The fork seam: run named, independent streams on every usable CPU.

:func:`run_partitioned` takes ``{name: thunk}`` and returns
``{name: result}`` in sorted name order.  It forks one worker per usable
CPU beyond the caller's own share, deals the sorted names round-robin,
and pickles each worker's results back over a pipe.  It is the one
place in :mod:`repro` that forks: the regional shards of
:class:`~repro.fleet.controller.FleetOfFleets` and the linter's
per-file phase (:func:`repro.lint.engine.lint_paths`) both run on it.

The module imports only the standard library, so any layer may use it
without loading the simulator or numpy.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import BinaryIO, Callable, Mapping, NoReturn

__all__ = ["ShardError", "run_partitioned"]


class ShardError(RuntimeError):
    """A partition of :func:`run_partitioned` failed.

    ``shard`` names the first failing partition in sorted order.  The
    message carries the failure: the worker's traceback text, or the
    exit status of a worker that died without reporting.  A failure
    raised in the calling process is chained as ``__cause__``.
    """

    def __init__(self, shard: str, detail: str):
        super().__init__(f"shard {shard!r} failed: {detail}")
        self.shard = shard


def run_partitioned(
    streams: Mapping[str, Callable[[], object]],
) -> "dict[str, object]":
    """Execute independent per-partition streams, canonically.

    ``streams`` maps a partition name (a regional shard, a linted file's
    size rank) to a thunk that does that partition's entire work and
    returns its result.  Each partition owns its own state (a regional
    shard its :class:`~repro.sim.engine.SimulationEngine`, RNG namespace
    and telemetry), so the result of the whole call is a pure function
    of the set of thunks, not of execution order or place.

    With two or more streams and more than one usable CPU, the streams
    run concurrently: ``W = min(streams, CPUs)``, the caller runs
    ``names[0::W]`` and each of ``W - 1`` forked workers runs
    ``names[k::W]``, each share in sorted order.  A worker inherits the
    already-built thunks, so nothing is pickled on the way in; its
    results come back pickled over a pipe, so they must be picklable.
    With one stream, one CPU, or no ``os.fork``, every thunk runs in
    the calling process.

    Contract: results are keyed by partition name in sorted order and
    equal what calling each thunk returns; a thunk's side effects on
    the caller's objects need not be visible afterwards.  The
    merged-digest tests in ``tests/test_fleet.py`` and
    ``tests/test_shard_parallel_guard.py`` hold this seam to it.

    Raises ``ValueError`` on an empty mapping or a name that is empty
    or contains ``:`` (reserved for shard-group family spelling), and
    :class:`ShardError` naming the first failing partition in sorted
    order if any thunk raises or a worker dies.  Every worker has been
    reaped by the time the call returns or raises.
    """
    names = sorted(streams)
    if not names:
        raise ValueError("run_partitioned needs at least one stream")
    for name in names:
        if not name or ":" in name:
            raise ValueError(
                f"partition name must be non-empty and ':'-free, "
                f"got {name!r}"
            )
    width = min(len(names), _usable_cpus()) if hasattr(os, "fork") else 1
    if width < 2:
        return _run_share(streams, names)
    workers: "list[tuple[list[str], int, BinaryIO]]" = []
    try:
        for k in range(1, width):
            workers.append(_fork_worker(streams, names[k::width]))
        failures: "list[ShardError]" = []
        try:
            results = _run_share(streams, names[0::width])
        except ShardError as exc:
            results = {}
            failures.append(exc)
        while workers:
            share, pid, pipe = workers[0]
            with pipe:
                data = pipe.read()  # to EOF before waitpid: no pipe deadlock
            _, status = os.waitpid(pid, 0)
            workers.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with status {code}")
                failures.append(ShardError(
                    share[0],
                    f"the worker running {', '.join(share)} {how} "
                    f"without a result",
                ))
                continue
            payload = pickle.loads(data)
            if isinstance(payload, dict):
                results.update(payload)
            else:
                failures.append(ShardError(
                    payload[0], f"worker traceback:\n{payload[1]}"
                ))
    except BaseException:
        for _, pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if failures:
        raise min(failures, key=lambda exc: exc.shard)
    return {name: results[name] for name in names}


def _usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_share(
    streams: Mapping[str, Callable[[], object]], share: "list[str]",
) -> "dict[str, object]":
    """Run ``share``'s thunks in order; the first failure raises
    :class:`ShardError` chained from it."""
    results: "dict[str, object]" = {}
    for name in share:
        try:
            results[name] = streams[name]()
        except Exception as exc:
            raise ShardError(name, f"{type(exc).__name__}: {exc}") from exc
    return results


def _fork_worker(
    streams: Mapping[str, Callable[[], object]], share: "list[str]",
) -> "tuple[list[str], int, BinaryIO]":
    """Fork a worker for ``share``; returns ``(share, pid, read pipe)``."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _serve_share(streams, share, write_fd)
    os.close(write_fd)
    return share, pid, open(read_fd, "rb")


def _serve_share(
    streams: Mapping[str, Callable[[], object]],
    share: "list[str]",
    write_fd: int,
) -> NoReturn:
    """The forked worker's whole life; never returns.

    Writes one pickled payload -- ``{name: result}`` or a
    ``(failing name, traceback text)`` record -- then leaves through
    ``os._exit``, so no caller frame, ``atexit`` hook or stdio flush
    runs twice.
    """
    status = 1
    try:
        try:
            payload: object = _run_share(streams, share)
        except ShardError as exc:
            payload = (exc.shard, "".join(
                traceback.format_exception(exc.__cause__)
            ))
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception:  # a result that cannot cross the pipe
            data = pickle.dumps((share[0], traceback.format_exc()),
                                pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
