"""Reference speeds: fixed work timed beside the samples of every run.

A shared host runs the benchmark's processes faster or slower from second
to second, and the share of time it runs them slowly drifts from one
minute to the next; no average within one run removes a drift that lasts
longer than the run. So each run also times fixed reference work, in the
same stretch of time as its samples, and gives its times at the reference
speed: the mean of the samples, divided by the mean time of the reference
work and multiplied by that work's reference seconds, reads as seconds on
a machine on which the reference work takes its reference seconds. The
drift cancels, and a change to the program moves a scaled time by exactly
the share it moves the raw time.

Two kinds of reference work, because the two kinds of sample drift apart:

* ``kernel_seconds`` is interpreter-bound work of the kind refinery does in
  a pass (n-gram counting over accented text, JSON, sorting, hashing), run
  single-threaded in the benchmark's own process; it scales pass times.
* ``startup_seconds`` is a fresh interpreter importing numpy and the
  standard-library modules refinery imports; it scales set-up probes,
  which are mostly process start and imports and on a 2-vCPU sandbox
  slowed by 1.5x over half an hour while the kernel slowed by 1.1x.

Means, not medians: the host switches between a fast and a slow state
(about 1.8x apart on a 2-vCPU sandbox) within seconds, so a time is the
share of it spent in each state, which the mean estimates and the median
of a few samples does not. Pooling the reference times of a whole run is
steadier than scaling each sample by the reference times next to it,
since one short reference timing falls wholly in one state.

The reference work is part of the benchmark, not of the program, so no
change to ``src`` can move it; changing it or its reference seconds
redefines every time metric and asks for a fresh baseline.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Callable

# Seconds that define the reference speeds: about each reference's mean on
# a 2-vCPU x86-64 sandbox under CPython 3.11, so that scaled times read
# close to raw ones there.
KERNEL_REFERENCE_S = 0.80
STARTUP_REFERENCE_S = 0.18
_STARTUP = (
    "from time import perf_counter\n"
    "start = perf_counter()\n"
    "import argparse, csv, ctypes.util, hashlib, json, logging, math, unicodedata\n"
    "import collections, concurrent.futures, dataclasses, functools, itertools\n"
    "import pathlib, statistics, typing, urllib.parse\n"
    "import numpy, yaml\n"
    "print(repr(perf_counter() - start))\n"
)
_TEXT = (
    "la población de la región según el último período económico había "
    "llegado a un número único de información sobre educación y atención "
) * 12
_ROUNDS = 300


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel in this process."""
    start = perf_counter()
    counts: Counter = Counter()
    for _ in range(_ROUNDS):
        for n in (1, 2, 3):
            for j in range(len(_TEXT) - n + 1):
                counts[_TEXT[j:j + n]] += 1
        table = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        blob = json.dumps(table, ensure_ascii=False).encode("utf-8")
        hashlib.blake2b(blob, digest_size=8).hexdigest()
        json.loads(blob)
    return perf_counter() - start


def startup_seconds(env: dict[str, str]) -> float:
    """Seconds a fresh interpreter takes to import the reference modules."""
    done = subprocess.run([sys.executable, "-c", _STARTUP], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class ReferenceClock:
    """Times one kind of reference work between the samples of a run, so
    that it samples the same stretch of time they do, and scales a mean of
    the samples by the mean of the reference times."""

    def __init__(self, reference_s: float, measure: Callable[[], float]) -> None:
        self.reference_s = reference_s
        self.measure = measure
        self.times: list[float] = []

    def tick(self) -> None:
        self.times.append(self.measure())

    def scale(self, seconds: float) -> float:
        return seconds * self.reference_s / statistics.fmean(self.times)
