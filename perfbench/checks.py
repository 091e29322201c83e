"""Output checks against the generator's ground truth.

Each check returns ``{stage: [error, ...]}`` with an entry for every stage
of the workload; a stage with any error counts as a failed invocation.
The checker reads outputs with the standard library and the benchmark's
own zstd binding, never with the program's code.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path

import zcodec

DOCUMENT_STAGES = ("lid", "dedup", "score", "package", "analyze")
VOLATILE_REPORT_KEYS = ("wall_time_seconds",)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]


def _ids(path: Path) -> list[str]:
    return [r["id"] for r in _read_jsonl(path)] if path.exists() else []


def _some(ids) -> str:
    ids = sorted(ids)
    return ", ".join(ids[:3]) + (f" and {len(ids) - 3} more" if len(ids) > 3 else "")


def _check_lid(truth: dict, out: Path) -> list[str]:
    """Planted foreign documents rejected, purely in-language ones kept."""
    kept = set(_ids(out / "lid" / "documents.jsonl"))
    removed = set(_ids(out / "lid" / "removed.jsonl"))
    errors = []
    if kept & removed:
        errors.append(f"documents both kept and rejected: {_some(kept & removed)}")
    if len(kept) + len(removed) != truth["records"]:
        errors.append(f"{len(kept)} kept + {len(removed)} rejected != {truth['records']} input documents")
    if set(truth["foreign"]) - removed:
        errors.append(f"planted foreign documents not rejected: {_some(set(truth['foreign']) - removed)}")
    if set(truth["pure"]) - kept:
        errors.append(f"in-language documents rejected: {_some(set(truth['pure']) - kept)}")
    return errors


def _check_dedup(truth: dict, out: Path) -> list[str]:
    """Each planted duplicate group collapses to its smallest (collection, id)."""
    retained = _ids(out / "dedup" / "documents.jsonl")
    log = {r["id"]: r["representative_id"] for r in _read_jsonl(out / "dedup" / "removal_log.jsonl")}
    kept_by_lid = set(_ids(out / "lid" / "documents.jsonl"))
    errors = []
    if set(retained) - kept_by_lid or len(retained) + len(log) != len(kept_by_lid):
        errors.append(f"{len(retained)} retained + {len(log)} removed do not partition the lid output")
    retained_set = set(retained)
    for group in truth["duplicate_groups"]:
        rep = min(map(tuple, group))[1]
        members = {doc_id for _, doc_id in group}
        if members & retained_set != {rep}:
            errors.append(f"duplicate group of {rep} retains {_some(members & retained_set) or 'nothing'}")
        wrong = {m for m in members - {rep} if log.get(m) != rep}
        if wrong:
            errors.append(f"members not logged as duplicates of {rep}: {_some(wrong)}")
    return errors


def _check_score(truth: dict, out: Path) -> list[str]:
    """Every deduplicated document scored, in [0, 10]."""
    scored = _read_jsonl(out / "score" / "documents.jsonl")
    errors = []
    if [d["id"] for d in scored] != _ids(out / "dedup" / "documents.jsonl"):
        errors.append("scored documents differ from the dedup output")
    unscored = [d["id"] for d in scored if not 0.0 <= d.get("wds", -1.0) <= 10.0]
    if unscored:
        errors.append(f"documents without a wds score in [0, 10]: {_some(unscored)}")
    return errors


def _check_package(truth: dict, out: Path) -> list[str]:
    """Shards decompress to exactly the scored documents; manifest counts match."""
    root = out / "package" / truth["language"]
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    errors = []
    packaged: list[dict] = []
    for entry in manifest:
        path = root / str(entry["wds_bin"]) / f"{entry['shard_index']}.jsonl.zst"
        if not path.exists():
            errors.append(f"shard {path.relative_to(out)} is missing")
            continue
        compressed = path.read_bytes()
        data = zcodec.decompress(compressed)
        docs = [json.loads(line) for line in data.decode("utf-8").split("\n") if line.strip()]
        packaged += docs
        found = (len(docs), len(data), len(compressed), docs[0]["id"] if docs else None, docs[-1]["id"] if docs else None)
        stated = (entry["document_count"], entry["uncompressed_bytes"], entry["compressed_bytes"],
                  entry["first_id"], entry["last_id"])
        if found != stated:
            errors.append(f"shard {path.relative_to(out)} holds {found}, manifest says {stated}")
    scored = _read_jsonl(out / "score" / "documents.jsonl")
    by_id = itemgetter("id")
    if sorted(packaged, key=by_id) != sorted(scored, key=by_id):
        errors.append(f"shards hold {len(packaged)} documents that differ from the {len(scored)} scored ones")
    return errors


def _check_analyze(truth: dict, out: Path) -> list[str]:
    """Document and token counts equal a brute-force count."""
    summary = json.loads((out / "analyze" / "analytics.json").read_text(encoding="utf-8"))["summary"]
    scored = _read_jsonl(out / "score" / "documents.jsonl")
    expected = (len(scored), sum(len(d["text"].split()) for d in scored))
    found = (summary["document_count"], summary["token_count"])
    return [] if found == expected else [f"analytics counts {found}, brute force {expected}"]


def _check_eval(truth: dict, out: Path) -> list[str]:
    """Exactly the planted informative tasks selected; planted Borda order."""
    report = json.loads((out / "eval_agg" / "evalagg.json").read_text(encoding="utf-8"))
    errors = []
    selected = report["task_selection"]["selected"]
    if selected != truth["informative"]:
        errors.append(f"selected {len(selected)} tasks, planted {len(truth['informative'])} informative ones")
    ranking = report.get("multilingual", {}).get("borda_ranking")
    if ranking != truth["borda_order"]:
        errors.append(f"Borda order {ranking}, planted {truth['borda_order']}")
    return errors


CHECKS = {
    "lid": _check_lid,
    "dedup": _check_dedup,
    "score": _check_score,
    "package": _check_package,
    "analyze": _check_analyze,
    "eval-agg": _check_eval,
}


def stages_of(truth: dict) -> tuple[str, ...]:
    return ("eval-agg",) if truth["workload"] == "eval-grid" else DOCUMENT_STAGES


def check(truth: dict, out: Path) -> dict[str, list[str]]:
    """Check every stage's outputs under ``out`` against ``truth``."""
    errors = {}
    for stage in stages_of(truth):
        try:
            errors[stage] = CHECKS[stage](truth, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors[stage] = [f"{type(exc).__name__}: {exc}"]
    return errors


def snapshot(out: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every output file, wall-time fields dropped."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            for key in VOLATILE_REPORT_KEYS:
                report.pop(key, None)
            data = json.dumps(report, sort_keys=True).encode("utf-8")
        files[path.relative_to(out).as_posix()] = data
    return files


def compare(expected: Path, actual: Path, stages: tuple[str, ...]) -> dict[str, list[str]]:
    """Per stage, the output files that differ between two runs."""
    a, b = snapshot(expected), snapshot(actual)
    errors: dict[str, list[str]] = {stage: [] for stage in stages}
    for rel in sorted(set(a) | set(b)):
        if a.get(rel) != b.get(rel):
            stage = rel.split("/", 1)[0].replace("_", "-")
            errors.setdefault(stage, []).append(f"{rel} differs from the untraced run")
    return errors
