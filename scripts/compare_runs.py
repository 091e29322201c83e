#!/usr/bin/env python3
"""Run one refinery command line from two source trees, alternately.

    python3 scripts/compare_runs.py [--runs N] SRC_A SRC_B -- all --config pipeline.json

Each run is a fresh child process, ``python3 -m refinery.cli`` with
``PYTHONPATH`` set to one of the two ``src`` directories, started in the
current directory with ``--output`` pointing at a directory of its own.
Pairs alternate which side goes first (A B, B A, A B, ...). For each run
the script prints its wall seconds and its peak RSS as ``os.wait4``
reports it, which includes worker processes; then each side's medians;
then, for wall time and for peak RSS, in how many pairs B was lower (a tie
counts for neither side), the gap between the medians and the
interquartile range of A's runs, the figures a claim that B is better is
judged by; and whether every run wrote byte-identical files, apart from
``wall_time_seconds`` in ``report.json``, to those of the first run of A.
It exits 0 when the outputs are identical, 1 when they are not and 2 when
a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def snapshot(root: Path) -> dict[str, bytes]:
    """Relative path -> SHA-256 digest of every file under ``root``, without
    the wall-clock field of its run reports. Files are hashed a block at a
    time: a child started from this process reports this process's peak RSS
    as its own when that is the larger (Linux keeps the high-water mark of
    the address space a child replaces at exec), so this process must stay
    small."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if path.name == "report.json":
            report = json.loads(path.read_bytes())
            report.pop("wall_time_seconds", None)
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
        else:
            digest = hashlib.sha256()
            with path.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
        out[str(path.relative_to(root))] = digest.digest()
    return out


def run(src: Path, args: list[str], out: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one child run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "refinery.cli", *args, "--output", str(out)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(stderr.decode("utf-8", "replace"))
    return code, wall, usage.ru_maxrss / 1024.0


def iqr(values: list[float]) -> float:
    """The distance between the quartiles of ``values`` (0 for one value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the refinery arguments, after --; --output is added")
    parser.add_argument("--runs", type=int, default=3, help="runs per side")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("give --runs >= 1 and a refinery command line after --")
    sides = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    results: dict[str, list[tuple[float, float]]] = {"A": [], "B": []}
    reference: dict[str, bytes] | None = None
    differing: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as work:
        for pair in range(args.runs):
            for side in ("AB" if pair % 2 == 0 else "BA"):
                out = Path(work) / f"{side}{pair + 1}"
                code, wall, rss = run(sides[side], command, out)
                if code != 0:
                    print(f"{side} run {pair + 1} exited {code}", file=sys.stderr)
                    return 2
                results[side].append((wall, rss))
                print(f"{side} run {pair + 1}: {wall:8.2f} s {rss:9.1f} MB", flush=True)
                tree = snapshot(out)
                if reference is None:
                    reference = tree
                differing |= {name for name in reference.keys() | tree.keys()
                              if reference.get(name) != tree.get(name)}
                shutil.rmtree(out)
    for side, src in sides.items():
        walls, rsses = zip(*results[side])
        print(f"{side} median: {statistics.median(walls):8.2f} s "
              f"{statistics.median(rsses):9.1f} MB  ({src})")
    for column, (name, unit) in enumerate((("wall", "s"), ("peak RSS", "MB"))):
        a = [run[column] for run in results["A"]]
        b = [run[column] for run in results["B"]]
        won = sum(y < x for x, y in zip(a, b))
        gap = statistics.median(a) - statistics.median(b)
        print(f"{name}: B lower in {won} of {len(a)} pairs, median gap {gap:.3f} {unit}, "
              f"A's IQR {iqr(a):.3f} {unit}")
    if differing:
        print("outputs differ: " + ", ".join(sorted(differing)))
        return 1
    print(f"outputs identical: {len(reference)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
