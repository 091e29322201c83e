"""Pipeline orchestration: stages as subcommands over one config file.

Usage:
    refinery <stage> --config pipeline.yaml [--input PATH] [--output DIR]
                     [--set KEY=VALUE ...]

Stages: lid, dedup, score, package, analyze, eval-agg, all. A document
stage maps documents to kept and removed documents and writes only its own
files; one runner writes ``documents.jsonl`` (lid, dedup, score),
``removed.jsonl`` and ``report.json`` for all of them. ``all`` reads its
input once and hands documents from stage to stage in memory, writing the
same files as separate runs chained through ``--input``. Every stage after
lid checks that its input file is a corpus in ``language`` with unique ids.
lid normalizes and scores every document and segment serially, in batches
of whole documents (``NgramLanguageClassifier.predict_documents``): each
distinct segment of a batch is scored once, and a document adds its
segments' sums to those of the windows across their joins. score labels
the segments of documents without ``seg_langs`` the same way. lid's
``report.json`` counts the documents it ``rejected`` and the texts whose
verdict ``predict`` decided again (``exact_rescored``). Every stage runs
in one process: dedup signs its documents serially, in blocks, with a fast
similarity sketch of about k ln k hash mixes per document. Every file is
written atomically (``write_atomic``), a JSONL file one line at a time.
REFINERY_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .analytics import analyze_corpus, render_report
from .config import ConfigError, PipelineConfig, load_config, resolve
from .dedup import dedup
from .documents import (
    Corpus,
    Document,
    DocumentError,
    read_documents,
    read_utf8,
    write_atomic,
    write_documents,
)
from .evalagg import (
    language_score,
    load_grid,
    multilingual_scores,
    render_ranking,
    select_tasks,
)
# classify and profile_segments stay bound here for the benchmark's tracer test.
from .lid import (  # noqa: F401
    ClassifierError,
    NgramLanguageClassifier,
    classify,
    in_language_share,
    profile_segments,
)
from .packaging import package_corpus
from .stopwords import get_stopwords, load_stopword_file
from .wds import filter_by_level, score_document

logger = logging.getLogger(__name__)

# What a document stage returns: (kept, removed, extra report fields).
StageResult = tuple[list[Document], list[Document], dict]


class StageError(Exception):
    pass


def _write_json_atomic(obj, path: Path) -> None:
    write_atomic(
        path, (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    )


def _load_classifier(config: PipelineConfig, base: Path) -> NgramLanguageClassifier | None:
    try:
        if config.lid.classifier_path:
            return NgramLanguageClassifier.load(resolve(config.lid.classifier_path, base))
        if config.lid.seed_texts:
            return NgramLanguageClassifier.train({
                label: read_utf8(resolve(path, base))
                for label, path in config.lid.seed_texts.items()
            })
    except ClassifierError as exc:
        raise StageError(str(exc)) from exc
    return None


def stage_lid(
    config: PipelineConfig, base: Path, docs: list[Document], out_dir: Path
) -> StageResult:
    model = _load_classifier(config, base)
    if model is None:
        raise StageError(
            "lid stage needs lid.classifier_path or lid.seed_texts in the config"
        )
    min_confidence = config.lid.min_confidence
    verdicts = model.predict_documents((doc.segments for doc in docs), min_confidence)
    kept: list[Document] = []
    rejected: list[Document] = []
    rescored = 0
    for doc, (pred, seg_langs, redone) in zip(docs, verdicts):
        rescored += redone
        if pred.label != config.language or pred.confidence < min_confidence:
            rejected.append(doc.replace(removed_reason="lid_rejected"))
        else:
            kept.append(doc.replace(lang=config.language, seg_langs=seg_langs))
    return kept, rejected, {"rejected": len(rejected), "exact_rescored": rescored}


def stage_dedup(
    config: PipelineConfig, base: Path, docs: list[Document], out_dir: Path
) -> StageResult:
    result = dedup(Corpus(docs, config.language), config.dedup)
    write_atomic(out_dir / "removal_log.jsonl", (
        f"{json.dumps(rec.to_json(), ensure_ascii=False)}\n".encode("utf-8")
        for rec in result.removals
    ))
    counters = {
        "verified_pairs": result.verified_pairs,
        "largest_cluster": result.largest_cluster,
    }
    return result.retained.documents, result.removed_docs, counters


def stage_score(
    config: PipelineConfig, base: Path, docs: list[Document], out_dir: Path
) -> StageResult:
    # lid output carries seg_langs; the classifier labels only documents without.
    unlabeled = [doc for doc in docs if doc.seg_langs is None]
    verdicts: Iterator = iter(())
    if unlabeled:
        model = _load_classifier(config, base)
        if model is None:
            raise StageError(
                f"document {unlabeled[0].id!r} has no seg_langs and no classifier is "
                "configured; run the lid stage first"
            )
        # Score reads only the segment labels: no document is held to a confidence.
        verdicts = model.predict_documents((doc.segments for doc in unlabeled), 0.0)
    scored: list[Document] = []
    for doc in docs:
        seg_langs = doc.seg_langs
        if seg_langs is None:
            seg_langs = next(verdicts)[1]
        fraction = in_language_share(seg_langs, doc.lang)
        report = score_document(doc, fraction, config.wds)
        extras = {**doc.extras, "wds_subsignals": report.subsignals}
        scored.append(doc.replace(wds=report.score, extras=extras))
    if config.wds.min_level is None:
        return scored, [], {}
    retained, removed = filter_by_level(
        Corpus(scored, config.language), config.wds.min_level
    )
    return retained, removed, {}


def stage_package(
    config: PipelineConfig, base: Path, docs: list[Document], out_dir: Path
) -> StageResult:
    manifests = package_corpus(Corpus(docs, config.language), out_dir, config.packaging)
    per_bin: dict[str, int] = {}
    for m in manifests:
        per_bin[str(m.wds_bin)] = per_bin.get(str(m.wds_bin), 0) + m.document_count
    # The shards hold every document; analyze reads them as they came in.
    return docs, [], {"shards": len(manifests), "documents_per_bin": per_bin}


def stage_analyze(
    config: PipelineConfig, base: Path, docs: list[Document], out_dir: Path
) -> StageResult:
    if config.analytics.stopword_file:
        stops = load_stopword_file(resolve(config.analytics.stopword_file, base))
    else:
        stops = get_stopwords(config.language)
    report = analyze_corpus(
        Corpus(docs, config.language),
        stopwords=stops,
        reference_total_tokens=config.analytics.reference_total_tokens,
    )
    _write_json_atomic(report, out_dir / "analytics.json")
    write_atomic(out_dir / "analytics.txt", render_report(report).encode("utf-8"))
    return docs, [], {}


def stage_eval_agg(config: PipelineConfig, base: Path, out_dir: Path) -> dict:
    settings = config.eval_agg
    if not settings.scores or not settings.task_meta:
        raise StageError("eval-agg stage needs eval_agg.scores and eval_agg.task_meta")
    grid = load_grid(resolve(settings.scores, base), resolve(settings.task_meta, base))

    selection = None
    selected: set[str] | None = None
    if settings.run_selection:
        selection = select_tasks(grid, settings.thresholds, settings.ranking_mode)
        selected = set(selection.selected)

    languages = sorted({meta.language for meta in grid.tasks.values()})
    models = grid.models
    language_scores: dict[str, dict[str, float]] = {m: {} for m in models}
    excluded: list[str] = []
    for lang in languages:
        lang_tasks = {t for t, meta in grid.tasks.items() if meta.language == lang}
        usable = lang_tasks if selected is None else lang_tasks & selected
        if not usable:
            excluded.append(lang)
            continue
        for model in models:
            language_scores[model][lang] = language_score(grid, model, lang, usable)

    report: dict = {
        "models": list(models),
        "languages": [lang for lang in languages if lang not in excluded],
        "excluded_languages": excluded,
        "language_scores": language_scores,
    }
    if selection is not None:
        report["task_selection"] = selection.to_json()
    ranking_text = ""
    if len(models) >= 2 and all(language_scores[m] for m in models):
        multilingual = multilingual_scores(language_scores)
        report["multilingual"] = multilingual.to_json()
        ranking_text = render_ranking(multilingual)
    _write_json_atomic(report, out_dir / "evalagg.json")
    if ranking_text:
        write_atomic(out_dir / "ranking.txt", ranking_text.encode("utf-8"))
    return {
        "input_documents": len(grid.scores),
        "output_documents": len(report["languages"]),
        "removals": {},
        "tasks_total": len(grid.tasks),
        "tasks_selected": len(selection.selected) if selection else len(grid.tasks),
    }


# In pipeline order. Each writes only the outputs that are its own; the
# runner writes the documents, the removed documents and the report.
_DOCUMENT_STAGES: dict[str, Callable[..., StageResult]] = {
    "lid": stage_lid,
    "dedup": stage_dedup,
    "score": stage_score,
    "package": stage_package,
    "analyze": stage_analyze,
}
DOCUMENT_STAGES = tuple(_DOCUMENT_STAGES)
STAGES = (*DOCUMENT_STAGES, "eval-agg")
# Stages whose kept documents are written for the next stage to read.
_WRITES_DOCUMENTS = ("lid", "dedup", "score")


def _read_input(path: Path, stage: str, language: str) -> list[Document]:
    """Read a stage's input. lid, where the pipeline starts, needs unique ids;
    every later stage needs a corpus in ``language``."""
    docs = read_documents(path)
    if stage == "lid":
        if len({d.id for d in docs}) != len(docs):
            raise StageError(f"input {path} contains duplicate document ids")
        return docs
    try:
        Corpus(docs, language)
    except DocumentError as exc:
        raise StageError(f"{path}: {exc}") from exc
    return docs


def _write_report(report: dict, started: float, out_dir: Path) -> dict:
    report["wall_time_seconds"] = round(time.perf_counter() - started, 6)
    _write_json_atomic(report, out_dir / "report.json")
    logger.info("stage %s: %s in, %s out", report["stage"],
                report["input_documents"], report["output_documents"])
    return report


def _run_documents(stage: str, config: PipelineConfig, base: Path, docs: list[Document],
                   out_dir: Path, started: float) -> tuple[list[Document], dict]:
    """Run one document stage on ``docs``; write its documents and report."""
    kept, removed, extra = _DOCUMENT_STAGES[stage](config, base, docs, out_dir)
    if stage in _WRITES_DOCUMENTS:
        write_documents(kept, out_dir / "documents.jsonl")
    if removed:
        write_documents(removed, out_dir / "removed.jsonl")
    report = {
        "stage": stage,
        "input_documents": len(docs),
        "output_documents": len(kept),
        "removals": dict(Counter(doc.removed_reason for doc in removed)),
        **extra,
    }
    return kept, _write_report(report, started, out_dir)


def run_stage(
    stage: str,
    config: PipelineConfig,
    base: Path,
    _unused: object = None,  # ignored; perfbench/child.py passes a 4th positional
    input_path: str | Path | None = None,
    output_dir: str | Path | None = None,
) -> dict:
    """Run one stage; returns the run report (also written to the output dir)."""
    if stage not in STAGES:
        raise StageError(f"unknown stage {stage!r}")
    out_dir = (Path(output_dir) if output_dir is not None
               else resolve(config.output_root, base) / stage.replace("-", "_"))
    started = time.perf_counter()
    if stage == "eval-agg":
        report = {"stage": stage, **stage_eval_agg(config, base, out_dir)}
        return _write_report(report, started, out_dir)
    in_path = Path(input_path) if input_path is not None else resolve(config.input, base)
    docs = _read_input(in_path, stage, config.language)
    return _run_documents(stage, config, base, docs, out_dir, started)[1]


def run_all(
    config: PipelineConfig,
    base: Path,
    input_path: str | Path | None = None,
    output_dir: str | Path | None = None,
) -> list[dict]:
    """Chain the document stages on one read of the input: each stage's kept
    documents go on to the next in memory."""
    root = Path(output_dir) if output_dir is not None else resolve(config.output_root, base)
    in_path = Path(input_path) if input_path is not None else resolve(config.input, base)
    started = time.perf_counter()
    docs = _read_input(in_path, DOCUMENT_STAGES[0], config.language)
    reports = []
    for stage in DOCUMENT_STAGES:
        docs, report = _run_documents(stage, config, base, docs, root / stage, started)
        reports.append(report)
        started = time.perf_counter()
    return reports


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("REFINERY_LOG", "INFO").upper(),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    parser = argparse.ArgumentParser(
        prog="refinery", description="Corpus refinement pipeline"
    )
    parser.add_argument("stage", choices=(*STAGES, "all"))
    parser.add_argument("--config", required=True, help="pipeline config file")
    parser.add_argument("--input", default=None, help="override the stage input path")
    parser.add_argument("--output", default=None, help="override the stage output dir")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a config field, e.g. dedup.verify_threshold=0.9",
    )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, overrides=args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"refinery: config error: {exc}", file=sys.stderr)
        return 2
    base = Path(args.config).resolve().parent
    try:
        if args.stage == "all":
            run_all(config, base, args.input, args.output)
        else:
            run_stage(args.stage, config, base, input_path=args.input,
                      output_dir=args.output)
    except (StageError, ValueError, OSError) as exc:  # GridError and ConfigError are ValueErrors
        print(f"refinery: {args.stage} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
