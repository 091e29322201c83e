"""Span recording for the traced run, from outside the program.

``install`` wraps the public functions of each refinery module in span
recorders and rebinds every module attribute that held the original, so a
call is recorded whichever name it goes through (``cli`` imports most of
them by name, ``dedup`` imports ``normalize_for_lid``, and ``lid``, ``wds``
and ``analytics`` import ``segment_text``). Spans stay in memory and are
written out once, when the stage ends.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    """Spans as ``[name_index, start, end, parent_index]`` plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``observe(tracer, args, result)``
        then updates counters outside the span."""
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": self.spans,
            "counters": {
                **self.counters,
                **{f"{k}.distinct": len(v) for k, v in self.distinct.items()},
            },
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _bytes_moved(tracer: Tracer, args, result) -> None:
    tracer.add("zstdio.bytes_in", len(args[0]))
    tracer.add("zstdio.bytes_out", len(result))


def _predicted(tracer: Tracer, args, result) -> None:
    tracer.distinct.setdefault("lid.predict", set()).add(args[1])


def _candidates(tracer: Tracer, args, result) -> None:
    tracer.add("dedup.candidate_pairs", len(result))


def _deduplicated(tracer: Tracer, args, result) -> None:
    tracer.add("dedup.removed", len(result.removals))
    sizes = [len(ids) for ids in result.clusters.clusters().values()] if result.clusters else []
    largest = max(sizes, default=0)
    tracer.counters["dedup.largest_cluster"] = max(tracer.counters.get("dedup.largest_cluster", 0), largest)


def _packaged(tracer: Tracer, args, result) -> None:
    tracer.add("packaging.shards", len(result))


# (module, attribute, observer): every public function a per-layer metric
# reads, plus classify and profile_segments, which the cli calls by name.
FUNCTIONS = (
    ("documents", "read_documents", None),
    ("documents", "parse_document_line", None),
    ("documents", "serialize_document", None),
    ("documents", "segment_text", None),
    ("zstdio", "compress", _bytes_moved),
    ("zstdio", "decompress", _bytes_moved),
    ("lid", "normalize_for_lid", None),
    ("lid", "classify", None),
    ("lid", "profile_segments", None),
    ("dedup", "dedup", _deduplicated),
    ("dedup", "shingle", None),
    ("dedup", "signature", None),
    ("dedup", "lsh_candidates", _candidates),
    ("dedup", "cluster", None),
    ("wds", "score_document", None),
    ("packaging", "package_corpus", _packaged),
    ("packaging", "sort_bin", None),
    ("packaging", "write_shards", None),
    ("analytics", "analyze_corpus", None),
    ("analytics", "top_ngrams", None),
    ("analytics", "unique_segment_ratio", None),
    ("analytics", "length_profiles", None),
    ("analytics", "domain_report", None),
    ("evalagg", "load_grid", None),
    ("evalagg", "select_tasks", None),
    ("evalagg", "language_score", None),
    ("evalagg", "prompt_aggregate", None),
    ("evalagg", "multilingual_scores", None),
)


def _refinery_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if (name == "refinery" or name.startswith("refinery.")) and m is not None]


def install(tracer: Tracer) -> list[str]:
    """Wrap ``FUNCTIONS`` and the classifier's train and predict.

    Returns every ``module.attribute`` binding that now points at a wrapper.
    The module ``refinery.dedup`` is reached through ``sys.modules``
    because the package attribute of that name is the function ``dedup``.
    """
    import refinery.cli  # noqa: F401  (the package loads every other module)

    rebound: list[str] = []
    for module, attr, observe in FUNCTIONS:
        original = getattr(sys.modules[f"refinery.{module}"], attr)
        wrapper = tracer.wrap(f"{module}.{attr}", original, observe)
        for mod in _refinery_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    rebound.append(f"{mod.__name__}.{key}")
    classifier = sys.modules["refinery.lid"].NgramLanguageClassifier
    train = classifier.__dict__["train"].__func__
    classifier.train = classmethod(tracer.wrap("lid.train", train))
    classifier.predict = tracer.wrap("lid.predict", classifier.predict, _predicted)
    rebound += ["refinery.lid.NgramLanguageClassifier.train", "refinery.lid.NgramLanguageClassifier.predict"]
    return rebound


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for kid_start, kid_end in sorted(kids):
            lo, hi = max(kid_start, reach), min(kid_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed duration and summed self time."""
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in dump["names"]}
    for (index, start, end, _), own in zip(dump["spans"], self_times(dump["spans"])):
        entry = out[dump["names"][index]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out
