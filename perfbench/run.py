#!/usr/bin/env python3
"""refinery benchmark: run the public CLI on a generated workload and check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from ``src``.
The workload's inputs are generated from the seed under ``.perfbench_work``,
which is removed again after a run whose checks all pass.
For S seconds the benchmark then alternates a set-up probe, timed in a
fresh process, with a pass over the workload, one child process at a time,
and checks every pass's outputs against the generator's ground truth.
The end-to-end times (``wall_s`` and the rates over it, ``setup_s``) are
given at a fixed reference speed: a run's mean pass and probe times are
scaled by the mean time of fixed reference work timed between them, which
takes out the shared host's drift in speed (``perfbench/speed.py``). The
printout also gives the raw seconds; per-layer times are raw.

With ``--trace 0`` each pass is the plain CLI (``refinery all`` or
``refinery eval-agg``) and the result holds the end-to-end metrics. With
``--trace 1`` untraced passes alternate with traced ones, which run each
stage in its own process with the public functions wrapped in span
recorders; the result holds the per-layer metrics, and every traced run's
outputs must match the untraced run's byte for byte. ``--workload all``
runs every workload in turn and prints all their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and the status of every check. Metric
names, units and directions are those of ``BENCHMARK.json``; what each
per-layer metric should move is in ``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import generate
import spans
import speed
import zcodec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
ALL_STAGES = checks.DOCUMENT_STAGES + ("eval-agg",)
# Set-up probes per run: one before every untraced pass, and at least this many.
SETUP_PROBES = 7
# Every run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 165.0

# Per-layer metrics read straight from span summaries: "_calls" counts
# calls, "_s" sums the calls' durations (children included).
SPAN_METRICS = {
    "documents.read_s": "documents.read_documents",
    "documents.parse_calls": "documents.parse_document_line",
    "documents.serialize_s": "documents.serialize_document",
    "documents.serialize_calls": "documents.serialize_document",
    "zstdio.compress_s": "zstdio.compress",
    "zstdio.decompress_s": "zstdio.decompress",
    "lid.model_build_s": "lid.train",
    "lid.normalize_s": "lid.normalize_for_lid",
    "lid.normalize_calls": "lid.normalize_for_lid",
    "lid.predict_s": "lid.predict",
    "lid.predict_calls": "lid.predict",
    "dedup.shingle_s": "dedup.shingle",
    "dedup.signature_s": "dedup.signature",
    "dedup.lsh_s": "dedup.lsh_candidates",
    "dedup.cluster_s": "dedup.cluster",
    "wds.score_s": "wds.score_document",
    "wds.score_calls": "wds.score_document",
    "packaging.sort_s": "packaging.sort_bin",
    "packaging.write_shards_s": "packaging.write_shards",
    "analytics.analyze_s": "analytics.analyze_corpus",
    "analytics.top_ngrams_s": "analytics.top_ngrams",
    "analytics.unique_segment_ratio_s": "analytics.unique_segment_ratio",
    "analytics.length_profiles_s": "analytics.length_profiles",
    "analytics.domain_report_s": "analytics.domain_report",
    "evalagg.load_grid_s": "evalagg.load_grid",
    "evalagg.select_tasks_s": "evalagg.select_tasks",
    "evalagg.language_score_s": "evalagg.language_score",
    "evalagg.language_score_calls": "evalagg.language_score",
    "evalagg.prompt_aggregate_calls": "evalagg.prompt_aggregate",
    "evalagg.multilingual_s": "evalagg.multilingual_scores",
}
COUNTER_METRICS = ("zstdio.bytes_in", "zstdio.bytes_out", "dedup.candidate_pairs",
                   "dedup.removed", "dedup.largest_cluster", "packaging.shards")


class Budget:
    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - perf_counter())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], log: Path, budget: Budget) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with log.open("ab") as sink:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(budget.left(), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe(config: Path, wdir: Path, budget: Budget) -> float | None:
    """Set-up seconds measured inside one fresh process, or None if it failed."""
    result = wdir / "setup.txt"
    result.unlink(missing_ok=True)
    code, _, _ = spawn([sys.executable, str(CHILD), "setup", "--config", str(config),
                        "--result", str(result)], wdir / "setup.log", budget)
    return float(result.read_text(encoding="utf-8")) if code == 0 and result.exists() else None


def untraced_pass(truth: dict, config: Path, out: Path, log: Path, budget: Budget) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    if truth["workload"] == "eval-grid":
        argv = ["eval-agg", "--config", str(config), "--output", str(out / "eval_agg")]
    else:
        argv = ["all", "--config", str(config), "--output", str(out)]
    code, wall, rss = spawn([sys.executable, "-m", "refinery.cli", *argv], log, budget)
    errors = checks.check(truth, out)
    if code != 0:
        for stage, errs in errors.items():
            errs.insert(0, f"refinery exited with code {code}")
    return {"wall": wall, "rss": rss, "errors": errors}


def traced_pass(truth: dict, config: Path, out: Path, reference: Path, log: Path,
                run_id: str, budget: Budget) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stages = checks.stages_of(truth)
    current = None
    runs = {}
    wall = 0.0
    exit_codes = {}
    for stage in stages:
        stage_out = out / stage.replace("-", "_")
        dump = out.parent / f"{out.name}.{stage}.spans.json"
        dump.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), "stage", "--stage", stage, "--config", str(config),
               "--output", str(stage_out), "--spans", str(dump), "--run-id", f"{run_id}/{stage}"]
        if current is not None:
            cmd += ["--input", str(current)]
        code, stage_wall, rss = spawn(cmd, log, budget)
        wall += stage_wall
        exit_codes[stage] = code
        runs[stage] = {"wall": stage_wall, "rss": rss,
                       "dump": json.loads(dump.read_text(encoding="utf-8")) if dump.exists() else None}
        if stage in ("lid", "dedup", "score"):
            current = stage_out / "documents.jsonl"
    errors = checks.check(truth, out)
    for stage, errs in checks.compare(reference, out, stages).items():
        errors.setdefault(stage, []).extend(errs)
    for stage, code in exit_codes.items():
        if code != 0:
            errors[stage].insert(0, f"traced stage exited with code {code}")
    return {"wall": wall, "runs": runs, "errors": errors}


def layer_metrics(truth: dict, traced: dict, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers a workload leaves idle read 0."""
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    metrics: dict[str, float] = {}
    for stage in ALL_STAGES:
        run = traced["runs"].get(stage, {"wall": 0.0, "rss": 0.0, "dump": None})
        dump = run["dump"] or {"names": [], "spans": [], "counters": {}}
        summary = spans.summarize(dump)
        metrics[f"cli.{stage}.wall_s"] = run["wall"]
        metrics[f"cli.{stage}.self_s"] = summary.get("cli.run_stage", {}).get("self_s", 0.0)
        metrics[f"cli.{stage}.peak_rss_mb"] = run["rss"]
        for name, entry in summary.items():
            into = totals.setdefault(name, {"calls": 0, "total_s": 0.0})
            into["calls"] += entry["calls"]
            into["total_s"] += entry["total_s"]
        for name, value in dump["counters"].items():
            merge = max if name == "dedup.largest_cluster" else lambda a, b: a + b
            counters[name] = merge(counters.get(name, 0), value)
    for metric, span in SPAN_METRICS.items():
        entry = totals.get(span, {"calls": 0, "total_s": 0.0})
        metrics[metric] = entry["calls"] if metric.endswith("_calls") else entry["total_s"]
    for name in COUNTER_METRICS:
        metrics[name] = counters.get(name, 0)
    metrics["documents.segment_calls_per_doc"] = \
        totals.get("documents.segment_text", {"calls": 0})["calls"] / truth["records"]
    predicts = metrics["lid.predict_calls"]
    metrics["lid.predict_distinct_share"] = counters.get("lid.predict.distinct", 0) / predicts if predicts else 0.0
    lid_report = out / "lid" / "report.json"
    metrics["lid.rejected"] = json.loads(lid_report.read_text(encoding="utf-8"))["removals"].get(
        "lid_rejected", 0) if lid_report.exists() else 0
    pairs = metrics["dedup.candidate_pairs"]
    metrics["dedup.removed_per_pair"] = metrics["dedup.removed"] / pairs if pairs else 0.0
    return metrics


def compression_ratio(truth: dict, out: Path) -> float:
    """Uncompressed over compressed bytes of the release. The eval-grid
    release is stored uncompressed, so its ratio is 1."""
    if truth["workload"] == "eval-grid":
        return 1.0
    manifest = json.loads((out / "package" / truth["language"] / "manifest.json").read_text(encoding="utf-8"))
    return sum(m["uncompressed_bytes"] for m in manifest) / sum(m["compressed_bytes"] for m in manifest)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with ten samples beyond it."""
    n = len(samples)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, budget: Budget) -> dict:
    wdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(wdir, ignore_errors=True)
    truth = generate.generate(workload, seed, wdir / "input")
    config = wdir / "input" / "pipeline.json"
    input_bytes = sum((wdir / "input" / name).stat().st_size for name in truth["inputs"])
    log = wdir / "refinery.log"

    # Set-up probes alternate with passes so that both sample the same
    # stretch of time, and reference work is timed after each of them to
    # take out the machine's drift in speed (see speed.py). A pass starts
    # only if a typical one still ends within the run's seconds.
    kernel = speed.ReferenceClock(speed.KERNEL_REFERENCE_S, speed.kernel_seconds)
    startup = speed.ReferenceClock(speed.STARTUP_REFERENCE_S, lambda: speed.startup_seconds(child_env()))
    kernel.tick()
    plain, traced, probes, rounds = [], [], [], []
    attempted, failures = 0, []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        probes.append(setup_probe(config, wdir, budget))
        startup.tick()
        kernel.tick()
        plain.append(untraced_pass(truth, config, wdir / "out", log, budget))
        kernel.tick()
        if trace:
            run_id = f"{workload}/{seed}/{len(traced)}"
            result_t = traced_pass(truth, config, wdir / "out-traced", wdir / "out", log, run_id, budget)
            result_t["metrics"] = layer_metrics(truth, result_t, wdir / "out-traced")
            traced.append(result_t)
        for r, kind in ([(plain[-1], "untraced")] + ([(traced[-1], "traced")] if trace else [])):
            attempted += len(r["errors"])
            failures += [(kind, stage, errs) for stage, errs in r["errors"].items() if errs]
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > seconds or budget.left() <= 1.0:
            break
    while len(probes) < SETUP_PROBES and budget.left() > 1.0:
        probes.append(setup_probe(config, wdir, budget))
        startup.tick()
    setup = [p for p in probes if p is not None]
    attempted += len(probes)
    failures += [("probe", "set-up", ["set-up probe exited without a result"])] * (len(probes) - len(setup))

    walls = [r["wall"] for r in plain]
    wall = kernel.scale(statistics.fmean(walls))
    metrics = {
        "wall_s": wall,
        "records_per_s": truth["records"] / wall,
        "input_mb_per_s": input_bytes / 1e6 / wall,
        "peak_rss_mb": statistics.median(r["rss"] for r in plain),
        "setup_s": startup.scale(statistics.fmean(setup)) if setup else 0.0,
    }
    try:
        metrics["shard_compression_ratio"] = compression_ratio(truth, wdir / "out")
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        metrics["shard_compression_ratio"] = 0.0
    if trace:
        names = traced[0]["metrics"]
        metrics.update({name: statistics.median(t["metrics"][name] for t in traced) for name in names})
        metrics["trace.overhead_s"] = statistics.median(t["wall"] for t in traced) - statistics.median(walls)
    if not failures:
        shutil.rmtree(wdir)  # a failed run's inputs, outputs and logs stay for inspection
    return {"workload": workload, "truth": truth, "metrics": metrics, "walls": walls,
            "kernel": kernel.times, "startup": startup.times, "setup": setup,
            "attempted": attempted, "failures": failures,
            "traced_passes": len(traced), "input_bytes": input_bytes}


def environment() -> str:
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} libzstd={zcodec.version()}")


def report(result: dict, spec: dict, trace: bool, prefix: str = "") -> dict:
    """Print one workload's metrics and check status; return the result line's metrics."""
    m, walls, failures = result["metrics"], result["walls"], result["failures"]
    print(f"workload {result['workload']}: {result['truth']['records']} records, "
          f"{result['input_bytes']} input bytes, {len(walls)} untraced and "
          f"{result['traced_passes']} traced passes, {len(result['setup'])} set-up probes")
    tail = tail_percentile(walls)
    print(f"  raw wall seconds: n={len(walls)} median={statistics.median(walls):.4f} s "
          + (f"p{tail[0]}={tail[1]:.4f} s" if tail else "(no percentile above the median has ten samples beyond it)"))
    print("  raw wall seconds each pass: " + " ".join(f"{w:.3f}" for w in walls))
    print("  raw setup seconds each probe: " + " ".join(f"{s:.3f}" for s in result["setup"]))
    for name, times, reference in (("kernel", result["kernel"], speed.KERNEL_REFERENCE_S),
                                   ("startup", result["startup"], speed.STARTUP_REFERENCE_S)):
        print(f"  reference {name}: mean {statistics.fmean(times):.4f} s over {len(times)} timings, "
              f"reference {reference} s: " + " ".join(f"{t:.3f}" for t in times))
    print(f"  failed_ratio = {len(failures) / result['attempted']:.4f} fraction "
          f"({len(failures)} of {result['attempted']} invocations, set-up probes included)")
    reported = "per_layer" if trace else "end_to_end"
    out = {}
    for group in ("end_to_end", "per_layer") if trace else ("end_to_end",):
        for metric in spec[group]:
            value = m[metric["name"]]
            print(f"  {metric['name']:<40} {value:>14.6g} {metric['unit']:<9} ({metric['better']} is better)")
            if group == reported:
                out[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    for stage in ("set-up",) + checks.stages_of(result["truth"]):
        errors = [f"[{kind}] {err}" for kind, where, errs in failures if where == stage for err in errs]
        what = (checks.CHECKS[stage].__doc__ if stage in checks.CHECKS else "Every probe returns a time.") + (
            " Traced outputs identical to untraced." if trace and stage != "set-up" else "")
        print(f"  check {stage}: {'FAILED' if errors else 'ok'} ({what})")
        for err in errors:
            print(f"    {err}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(generate.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "refinery" / "cli.py").is_file():
        print(f"perfbench: no refinery sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = list(generate.WORKLOADS) if args.workload == "all" else [args.workload]
    budget = Budget(RUN_BUDGET_S * len(workloads))

    print(f"environment: {environment()}")
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), budget)
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        metrics.update(report(result, spec, bool(args.trace), prefix))
        attempted += result["attempted"]
        failed += len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
