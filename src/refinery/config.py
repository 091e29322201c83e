"""Pipeline configuration: one declarative YAML or JSON file.

Every section maps onto the owning module's parameter dataclass; unknown
keys are rejected with the offending field named, and referenced paths are
checked at validation time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable

import yaml

from .dedup import DedupParams
from .evalagg import SelectionThresholds
from .packaging import PackagingConfig
from .wds import WdsConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LidSettings:
    classifier_path: str | None = None
    seed_texts: dict[str, str] = field(default_factory=dict)  # label -> path
    min_confidence: float = 0.0


@dataclass(frozen=True)
class WdsSettings:
    scoring: WdsConfig = field(default_factory=WdsConfig)
    min_level: int | None = None


@dataclass(frozen=True)
class AnalyticsSettings:
    stopword_file: str | None = None
    reference_total_tokens: int | None = None


@dataclass(frozen=True)
class EvalAggSettings:
    scores: str | None = None
    task_meta: str | None = None
    run_selection: bool = True
    ranking_mode: str = "consecutive"
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)


@dataclass(frozen=True)
class PipelineConfig:
    input: str
    output_root: str
    language: str
    lid: LidSettings = field(default_factory=LidSettings)
    dedup: DedupParams = field(default_factory=DedupParams)
    wds: WdsSettings = field(default_factory=WdsSettings)
    packaging: PackagingConfig = field(default_factory=PackagingConfig)
    analytics: AnalyticsSettings = field(default_factory=AnalyticsSettings)
    eval_agg: EvalAggSettings = field(default_factory=EvalAggSettings)


def _mapping(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def _build(dc_type, mapping: dict[str, Any], where: str):
    mapping = _mapping(mapping, where)
    known = {f.name for f in fields(dc_type)}
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown field")
    try:
        return dc_type(**mapping)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_sections(raw: dict[str, Any]) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(raw)
    sections: dict[str, Any] = {}

    if "lid" in data:
        sections["lid"] = _build(LidSettings, data.pop("lid"), "lid")
    if "dedup" in data:
        sections["dedup"] = _build(DedupParams, data.pop("dedup"), "dedup")
    if "wds" in data:
        wds_raw = _mapping(data.pop("wds"), "wds")
        min_level = wds_raw.pop("min_level", None)
        sections["wds"] = WdsSettings(
            scoring=_build(WdsConfig, wds_raw, "wds"), min_level=min_level
        )
    if "packaging" in data:
        sections["packaging"] = _build(
            PackagingConfig, data.pop("packaging"), "packaging"
        )
    if "analytics" in data:
        sections["analytics"] = _build(
            AnalyticsSettings, data.pop("analytics"), "analytics"
        )
    if "eval_agg" in data:
        ea_raw = _mapping(data.pop("eval_agg"), "eval_agg")
        thresholds_raw = ea_raw.pop("thresholds", {})
        ea_raw["thresholds"] = _build(
            SelectionThresholds, thresholds_raw, "eval_agg.thresholds"
        )
        sections["eval_agg"] = _build(EvalAggSettings, ea_raw, "eval_agg")

    for required in ("input", "output_root", "language"):
        if required not in data:
            raise ConfigError(f"{required}: required field is missing")
    scalars = {k: data.pop(k) for k in ("input", "output_root", "language")}
    if data:
        raise ConfigError(f"{sorted(data)[0]}: unknown field")
    return PipelineConfig(**scalars, **sections)


def _check_path(path: str | None, where: str, base: Path) -> None:
    if path is None:
        return
    resolved = (base / path) if not Path(path).is_absolute() else Path(path)
    if not resolved.exists():
        raise ConfigError(f"{where}: path {path!r} does not exist")


def validate_paths(config: PipelineConfig, base: Path) -> None:
    _check_path(config.input, "input", base)
    _check_path(config.lid.classifier_path, "lid.classifier_path", base)
    for label, seed in config.lid.seed_texts.items():
        _check_path(seed, f"lid.seed_texts.{label}", base)
    _check_path(config.analytics.stopword_file, "analytics.stopword_file", base)
    _check_path(config.eval_agg.scores, "eval_agg.scores", base)
    _check_path(config.eval_agg.task_meta, "eval_agg.task_meta", base)


def resolve(path: str, base: Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base / p


def _apply_overrides(raw: dict[str, Any], overrides: Iterable[str]) -> None:
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r}: expected KEY=VALUE")
        node = raw
        *parents, leaf = key.split(".")
        for part in parents:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ConfigError(f"override {key!r}: {part!r} is not a section")
            node = child
        try:
            node[leaf] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {key!r}: {_one_line(exc)}") from exc


def _one_line(exc: Exception) -> str:
    mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
    if mark is not None and problem:
        return f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
    return " ".join(str(exc).split())


def _check_int(value: Any, where: str, low: int, high: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{where}: must be {bound}, got {value}")


def load_config(
    path: str | Path,
    overrides: Iterable[str] = (),
    check_paths: bool = True,
) -> PipelineConfig:
    """Parse and validate a pipeline config file (.yaml/.yml/.json).

    ``overrides`` are dotted-path assignments from the command line, e.g.
    "dedup.verify_threshold=0.9"; values are parsed as YAML scalars.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse config {path}: {_one_line(exc)}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _apply_overrides(raw, overrides)
    config = _parse_sections(raw)
    _check_int(config.packaging.compression_level, "packaging.compression_level", 1, 22)
    if config.wds.min_level is not None:
        _check_int(config.wds.min_level, "wds.min_level", 0, 10)
    for threshold in fields(SelectionThresholds):  # a None default: gate is optional
        limit = getattr(config.eval_agg.thresholds, threshold.name)
        if limit is None and threshold.default is None:
            continue
        if isinstance(limit, bool) or not isinstance(limit, (int, float)):
            raise ConfigError(f"eval_agg.thresholds.{threshold.name}: expected a "
                              f"number, got {limit!r}")
    if check_paths:
        validate_paths(config, path.parent)
    return config
