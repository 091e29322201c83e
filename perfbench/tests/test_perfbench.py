"""Tests of the benchmark itself: generator, checker, tracer and result shape.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import generate
import run
import spans
import speed

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"


def _env(*paths: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}


def _digest(directory: Path) -> dict[str, str]:
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_byte_deterministic_and_seeded(tmp_path, workload):
    truth = generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    generate.generate(workload, 8, tmp_path / "c")
    a, b, c = (_digest(tmp_path / name) for name in "abc")
    assert a == b
    assert set(a) == set(c)
    assert all(a[name] != c[name] for name in truth["inputs"])
    config = json.loads((tmp_path / "a" / "pipeline.json").read_text(encoding="utf-8"))
    assert "workers" not in config


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory):
    """A small web-mixed corpus run through the real CLI once."""
    root = tmp_path_factory.mktemp("mixed")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generate, "MIXED_DOCS", 120)
        truth = generate.generate("web-mixed", 3, root / "input")
    subprocess.run(
        [sys.executable, "-m", "refinery.cli", "all", "--config", str(root / "input" / "pipeline.json"),
         "--output", str(root / "out")],
        env=_env(ROOT / "src"), check=True, capture_output=True, timeout=300,
    )
    return truth, root / "out"


@pytest.fixture
def outputs(mixed_run, tmp_path):
    truth, out = mixed_run
    shutil.copytree(out, tmp_path / "out")
    return truth, tmp_path / "out"


def test_checker_passes_the_program_output(mixed_run):
    truth, out = mixed_run
    assert checks.check(truth, out) == {stage: [] for stage in checks.DOCUMENT_STAGES}


def test_checker_catches_a_dropped_shard(outputs):
    truth, out = outputs
    shard = sorted((out / "package" / truth["language"]).rglob("*.jsonl.zst"))[0]
    shard.unlink()
    errors = checks.check(truth, out)
    assert any("missing" in e for e in errors["package"])
    assert not errors["lid"] and not errors["analyze"]


def test_checker_catches_a_shard_dropped_with_its_manifest_entry(outputs):
    truth, out = outputs
    manifest_path = out / "package" / truth["language"] / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    dropped = manifest.pop()
    (manifest_path.parent / str(dropped["wds_bin"]) / f"{dropped['shard_index']}.jsonl.zst").unlink()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert any("differ from the" in e for e in checks.check(truth, out)["package"])


def test_checker_catches_a_duplicate_left_in(outputs):
    truth, out = outputs
    group = truth["duplicate_groups"][0]
    rep = min(map(tuple, group))[1]
    kept = next(doc_id for _, doc_id in group if doc_id != rep)
    lid_docs = checks._read_jsonl(out / "lid" / "documents.jsonl")
    dedup_path = out / "dedup" / "documents.jsonl"
    _write_jsonl(dedup_path, checks._read_jsonl(dedup_path) + [d for d in lid_docs if d["id"] == kept])
    log_path = out / "dedup" / "removal_log.jsonl"
    _write_jsonl(log_path, [r for r in checks._read_jsonl(log_path) if r["id"] != kept])
    assert any(rep in e for e in checks.check(truth, out)["dedup"])


def test_checker_catches_a_kept_foreign_document(outputs):
    truth, out = outputs
    removed_path = out / "lid" / "removed.jsonl"
    removed = checks._read_jsonl(removed_path)
    _write_jsonl(removed_path, [r for r in removed if r["id"] != truth["foreign"][0]])
    assert any("not rejected" in e for e in checks.check(truth, out)["lid"])


def test_checker_catches_a_wrong_borda_order(tmp_path):
    truth = generate.generate("eval-grid", 5, tmp_path / "input")
    report_path = tmp_path / "out" / "eval_agg" / "evalagg.json"
    report_path.parent.mkdir(parents=True)

    def check_with(selected, ranking):
        report = {"task_selection": {"selected": selected}, "multilingual": {"borda_ranking": ranking}}
        report_path.write_text(json.dumps(report), encoding="utf-8")
        return checks.check(truth, tmp_path / "out")["eval-agg"]

    order = truth["borda_order"]
    assert check_with(truth["informative"], order) == []
    assert any("Borda" in e for e in check_with(truth["informative"], [order[1], order[0], *order[2:]]))
    assert any("selected" in e for e in check_with(truth["informative"][1:], order))


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 9]
    tree = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1], [1, 5.0, 9.0, 0]]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    summary = spans.summarize({"names": ["root", "a", "b"], "spans": tree})
    assert summary["a"] == pytest.approx({"calls": 2, "total_s": 7.0, "self_s": 6.0})
    assert summary["root"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 3.0})


def test_self_time_counts_overlapping_children_once():
    # Children cover [1, 8] and [9, 10] of the root; the last runs past its end.
    tree = [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [1, 3.0, 8.0, 0], [1, 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_tracer_rebinds_every_imported_name():
    script = "import json, spans; print(json.dumps(spans.install(spans.Tracer('t'))))"
    result = subprocess.run([sys.executable, "-c", script], env=_env(ROOT / "src", BENCH),
                            check=True, capture_output=True, text=True, timeout=120)
    rebound = set(json.loads(result.stdout))
    by_cli = ("classify", "profile_segments", "dedup", "package_corpus", "analyze_corpus",
              "load_grid", "select_tasks", "language_score")
    expected = {f"refinery.cli.{name}" for name in by_cli} | {
        "refinery.dedup.dedup",
        "refinery.dedup.normalize_for_lid",
        "refinery.lid.segment_text",
        "refinery.wds.segment_text",
        "refinery.analytics.segment_text",
        "refinery.documents.segment_text",
    }
    assert expected <= rebound


def test_traced_metrics_are_those_of_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = run.layer_metrics({"records": 1, "workload": "web-mixed"}, {"runs": {}}, tmp_path)
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_reference_clock_scales_by_the_mean_reference_time():
    times = iter([0.4, 0.2, 0.6, 0.3])
    clock = speed.ReferenceClock(0.5, lambda: next(times))
    for _ in range(4):
        clock.tick()
    assert clock.times == [0.4, 0.2, 0.6, 0.3]
    assert clock.scale(7.0) == pytest.approx(7.0 * 0.5 / 0.375)
