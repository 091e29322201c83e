"""Pipeline configuration: one declarative YAML or JSON file.

This module defines every section's dataclass, the settings each stage
takes included; the stage modules (dedup, wds, packaging, evalagg)
re-export theirs. It imports no stage module and no numpy, so loading a
config loads no stage. One recursive `_build` checks each key against its
dataclass field: unknown keys, missing required fields and values of the
wrong type (NaN is not a number) are rejected with the dotted key named,
and referenced paths are checked at validation time.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, get_args, get_origin, get_type_hints

from .documents import DocumentError, read_utf8


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LidSettings:
    classifier_path: str | None = None
    seed_texts: dict[str, str] = field(default_factory=dict)  # label -> path
    min_confidence: float = 0.0


class DedupConfigError(ValueError):
    """Invalid deduplication parameters."""


# The longest signature scripts/minhash_calibration.py sweeps: its mean
# Jaccard estimate error falls from 0.017 at the default 256 to 0.011 here.
# dedup holds 8 bytes per document and signature position, so a longer one
# buys little for its memory, and a huge one would fail only after lid.
MAX_SIGNATURE_LENGTH = 512


@dataclass(frozen=True)
class DedupParams:
    ngram_order: int = 5
    seed: int = 0
    bands: int = 16
    rows: int = 16
    verify_threshold: float = 0.8
    mode: str = "global"  # global | per_crawl
    exact_verification: bool = False
    candidates: str = "lsh"  # lsh | all_pairs

    def __post_init__(self):
        if self.ngram_order < 1:
            raise DedupConfigError("ngram_order must be >= 1")
        if self.bands < 1 or self.rows < 1:
            raise DedupConfigError("bands and rows must be >= 1")
        if self.bands * self.rows > MAX_SIGNATURE_LENGTH:
            raise DedupConfigError(
                f"bands * rows must be at most {MAX_SIGNATURE_LENGTH}, "
                f"got {self.bands * self.rows}"
            )
        if not 0.0 <= self.verify_threshold <= 1.0:
            raise DedupConfigError("verify_threshold must lie in [0, 1]")
        if self.mode not in ("global", "per_crawl"):
            raise DedupConfigError(f"unknown mode {self.mode!r}")
        if self.candidates not in ("lsh", "all_pairs"):
            raise DedupConfigError(f"unknown candidate scheme {self.candidates!r}")

    @property
    def signature_length(self) -> int:
        return self.bands * self.rows


# The subsignals that the oddity penalty weighs, each against the config
# field "<name>_threshold"; they are the only allowed ``weights`` keys.
PENALIZED_SUBSIGNALS = (
    "non_letter_ratio",
    "digit_ratio",
    "repeated_line_ratio",
    "url_density",
)


@dataclass(frozen=True)
class WdsConfig:
    min_length_tokens: int = 20
    target_length_tokens: int = 200
    # Oddity thresholds; exceedance above each is penalized.
    non_letter_ratio_threshold: float = 0.3
    digit_ratio_threshold: float = 0.2
    repeated_line_ratio_threshold: float = 0.2
    url_density_threshold: float = 0.1  # URLs per 100 tokens
    # Equal weights by default; a subsignal left out weighs 1.0.
    weights: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PENALIZED_SUBSIGNALS, 1.0)
    )
    # Documents below this level are removed as below_wds; None keeps all.
    min_level: int | None = None

    def __post_init__(self):
        for name in self.weights:
            if name not in PENALIZED_SUBSIGNALS:
                raise ValueError(
                    f"unknown weights key {name!r} (allowed: "
                    f"{', '.join(PENALIZED_SUBSIGNALS)})"
                )


@dataclass(frozen=True)
class PackagingConfig:
    max_uncompressed_bytes: int = 1 << 30
    compression_level: int = 9


@dataclass(frozen=True)
class AnalyticsSettings:
    stopword_file: str | None = None
    reference_total_tokens: int | None = None


RANKING_MODES = ("consecutive", "vs_final")


@dataclass(frozen=True)
class SelectionThresholds:
    monotonicity: float = 0.5  # pass when value >= threshold
    non_randomness: float = 0.05  # >=
    ranking_consistency: float = 0.5  # >=
    prompt_lottery: float = 0.5  # pass when value <= threshold
    stable_pretraining: float | None = None  # <= when configured
    low_noise: float | None = None  # >= when configured
    low_prompt_sensitivity: float | None = None  # <= when configured


@dataclass(frozen=True)
class EvalAggSettings:
    scores: str | None = None
    task_meta: str | None = None
    run_selection: bool = True
    ranking_mode: str = "consecutive"
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)

    def __post_init__(self):
        if self.ranking_mode not in RANKING_MODES:
            raise ValueError(
                f"unknown ranking_mode {self.ranking_mode!r} (allowed: "
                f"{', '.join(RANKING_MODES)})"
            )


@dataclass(frozen=True)
class PipelineConfig:
    input: str
    output_root: str
    language: str
    lid: LidSettings = field(default_factory=LidSettings)
    dedup: DedupParams = field(default_factory=DedupParams)
    wds: WdsConfig = field(default_factory=WdsConfig)
    packaging: PackagingConfig = field(default_factory=PackagingConfig)
    analytics: AnalyticsSettings = field(default_factory=AnalyticsSettings)
    eval_agg: EvalAggSettings = field(default_factory=EvalAggSettings)


def _mapping(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        if not where:
            raise ConfigError("config root must be a mapping")
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def _build(dc_type, raw: Any, where: str):
    """Build config dataclass ``dc_type`` from the mapping ``raw``.

    Unknown keys, missing required fields and values that do not match a
    field's annotation fail with one line naming the dotted key; values
    that pass are kept as given.
    """
    data, built = _mapping(raw, where), {}
    prefix = f"{where}." if where else ""
    unknown = sorted(set(data) - {f.name for f in fields(dc_type)}, key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
    hints = get_type_hints(dc_type)
    for f in fields(dc_type):
        if f.name in data:
            built[f.name] = _value(hints[f.name], data[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{f.name}: required field is missing")
    try:
        return dc_type(**built)
    except ValueError as exc:  # the dataclass's own range checks
        raise ConfigError(f"{where}: {exc}") from exc


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _value(annotation: Any, value: Any, where: str) -> Any:
    if is_dataclass(annotation):
        return _build(annotation, value, where)
    if get_origin(annotation) is dict:
        key_type, item_type = get_args(annotation)
        for key, item in _mapping(value, where).items():
            _value(key_type, key, f"{where} key")
            _value(item_type, item, f"{where}.{key}")
        return value
    options = get_args(annotation) or (annotation,)  # X | None, or one type
    if not any(_is_a(value, option) for option in options):
        expected = " or ".join(_TYPE_NAMES[o] for o in options if o is not type(None))
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return value


def _is_a(value: Any, option: type) -> bool:
    """An int is not a bool, a float field also takes an int, and NaN is no number."""
    if isinstance(value, bool):
        return option is bool
    return isinstance(value, (int, float) if option is float else option) and value == value


def _check_path(path: str | None, where: str, base: Path) -> None:
    if path is None:
        return
    resolved = resolve(path, base)
    if not resolved.exists():
        raise ConfigError(f"{where}: path {path!r} does not exist")
    if resolved.is_dir():
        raise ConfigError(f"{where}: path {path!r} is a directory, not a file")


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
        node[leaf] = _parse_yaml(value, f"override {key!r}")


def _parse_yaml(text: str, where: str) -> Any:
    """``text`` parsed as YAML, or a ConfigError that starts with ``where``.
    PyYAML is imported only here, so a JSON config without overrides never
    loads it (about 1 MB of RSS and 20 ms)."""
    import yaml

    try:
        return yaml.safe_load(text)
    # ValueError: an over-long integer or an impossible date such as 2024-02-30
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{where}: {_one_line(exc)}") from exc


def _one_line(exc: Exception) -> str:
    mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
    if mark is not None and problem:
        return f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
    return " ".join(str(exc).split())


def _check_range(value: float, where: str, low: float, high: float | None = None) -> None:
    """``value`` lies in [low, high], or is at least ``low`` with no ``high``."""
    if value < low or high is not None and value > high:
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{where}: must be {bound}, got {value}")


def load_config(path: str | Path, overrides: Iterable[str] = ()) -> PipelineConfig:
    """Parse and validate a pipeline config file (.yaml/.yml/.json).

    ``overrides`` are dotted-path assignments from the command line, e.g.
    "dedup.verify_threshold=0.9"; values are parsed as YAML scalars.
    """
    path = Path(path)
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except DocumentError as exc:
        raise ConfigError(str(exc)) from exc
    if path.suffix != ".json":
        raw = _parse_yaml(text, f"cannot parse config {path}")
    else:
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
            raise ConfigError(f"cannot parse config {path}: {_one_line(exc)}") from exc
    raw = _mapping(raw, "")
    _apply_overrides(raw, overrides)
    config = _build(PipelineConfig, raw, "")
    _check_range(config.packaging.compression_level, "packaging.compression_level", 1, 22)
    # A shard limit below 1 byte fits no document, and package would fail
    # only after lid, dedup and score had run; a reference total of 0 or
    # less gives no share (0 would act as null, a negative one a negative share).
    _check_range(config.packaging.max_uncompressed_bytes, "packaging.max_uncompressed_bytes", 1)
    if config.analytics.reference_total_tokens is not None:
        _check_range(config.analytics.reference_total_tokens,
                     "analytics.reference_total_tokens", 1)
    _check_range(config.lid.min_confidence, "lid.min_confidence", 0, 1)
    if config.wds.min_level is not None:
        _check_range(config.wds.min_level, "wds.min_level", 0, 10)
    validate_paths(config, path.parent)
    return config
