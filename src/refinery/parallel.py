"""One order-preserving process map for per-document work.

``pmap(fn, items)`` computes ``[fn(x) for x in items]``. Given at least
``MIN_CHUNK`` items per worker and two usable CPUs, it splits the items
into one contiguous chunk per worker and maps the chunks in forked worker
processes. ``fn`` and ``items`` reach the workers through fork, from the
module global ``_task``, so a classifier or a config is never pickled:
only chunk bounds go out and results come back. It runs serially with
fewer than two workers, where ``fork`` is unavailable, and inside a
worker. ``multiprocessing`` is imported only when a map forks.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# Fewest items per worker: a smaller chunk saves less than the fork costs.
MIN_CHUNK = 64

_task: tuple[Callable, Sequence] | None = None
_in_worker = False


class WorkerError(Exception):
    """A worker process died before returning its chunk."""


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True


def _map_chunk(start: int, stop: int) -> list:
    fn, items = _task
    return [fn(item) for item in items[start:stop]]


def pmap(fn: Callable, items: Sequence) -> tuple[list, int]:
    """``[fn(x) for x in items]`` in order, and the number of processes that
    computed it. An exception raised by ``fn`` in a worker is raised here."""
    global _task
    workers = min(usable_cpus(), len(items) // MIN_CHUNK)
    if workers >= 2 and not _in_worker:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            bounds = [len(items) * i // workers for i in range(workers + 1)]
            _task = (fn, items)
            try:
                with ProcessPoolExecutor(
                    workers, multiprocessing.get_context("fork"), _enter_worker
                ) as pool:
                    chunks = pool.map(_map_chunk, bounds[:-1], bounds[1:])
                    return [result for chunk in chunks for result in chunk], workers
            except BrokenProcessPool as exc:
                raise WorkerError(f"a worker process died: {exc}") from exc
            finally:
                _task = None
    return [fn(item) for item in items], 1
