"""One order-preserving process map over contiguous ranges of work.

``pmap(fn, n, chars)`` splits ``range(n)`` into one contiguous chunk per
worker, calls ``fn(start, stop)`` once per chunk and returns the chunk
results in order; ``chars`` is the size of the work's text in characters.
Given at least ``MIN_CHARS`` characters per worker and two usable CPUs,
the chunks run in forked worker processes. ``fn`` reaches the workers
through fork, from the module global ``_task``, so a config is never
pickled: only chunk bounds go out and results come back. It runs
serially, returning ``[fn(0, n)]``, with fewer than two workers, where
``fork`` is unavailable, and inside a worker. ``multiprocessing`` is
imported only when a map forks.
"""

from __future__ import annotations

import os
from typing import Callable

# Fewest text characters per worker: with less, a worker saves less than
# its fork costs. Dedup's shingling and signing, on prefixes of the lid
# output of the 20k-document demo fixture, took as long serially as with
# two workers at about 0.48M characters in all, less below and more above
# (2-vCPU host); so two workers start at 2**19 characters (0.52M).
MIN_CHARS = 1 << 18

_task: Callable[[int, int], object] | None = None
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


def _map_chunk(start: int, stop: int):
    return _task(start, stop)


def pmap(fn: Callable[[int, int], object], n: int, chars: int) -> list:
    """``fn(start, stop)`` of each contiguous chunk of ``range(n)``, in order:
    one chunk per process that computed it. An exception raised by ``fn``
    in a worker is raised here."""
    global _task
    workers = min(usable_cpus(), n, chars // MIN_CHARS)
    if workers >= 2 and not _in_worker:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            bounds = [n * i // workers for i in range(workers + 1)]
            _task = fn
            try:
                with ProcessPoolExecutor(
                    workers, multiprocessing.get_context("fork"), _enter_worker
                ) as pool:
                    return list(pool.map(_map_chunk, bounds[:-1], bounds[1:]))
            except BrokenProcessPool as exc:
                raise WorkerError(f"a worker process died: {exc}") from exc
            finally:
                _task = None
    return [fn(0, n)]
