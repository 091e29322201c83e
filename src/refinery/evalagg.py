"""Aggregation mathematics for multilingual checkpoint evaluation grids.

A grid holds scores indexed by (model, task, prompt, checkpoint); per-task
metadata supplies the random baseline, maximum score, category, and
language. Aggregation proceeds: max over prompts, rescale between baseline
and maximum, two-level mean (within category, then across categories) to a
language score, then cross-language aggregation by mean score, mean rank,
or Borda count. Seven signal criteria decide which tasks are informative
enough to keep.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Iterable, Iterator, Mapping

import numpy as np

Cell = tuple[str, str, str, int]  # (model, task, prompt, checkpoint_tokens)


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TaskMeta:
    random_baseline: float
    max_score: float
    category: str
    language: str

    def __post_init__(self):
        if not self.random_baseline < self.max_score:
            raise GridError(
                f"random_baseline {self.random_baseline} must be below "
                f"max_score {self.max_score}"
            )


class TaskBlock:
    """One task's cells as a dense ``[model, prompt, checkpoint]`` array.

    The axes are the task's own sorted models, prompts and checkpoints. A
    missing cell holds ``-inf`` in ``values`` (scores are finite), and so
    does ``best``, the maximum over prompts per (model, checkpoint), where
    no prompt is scored. ``at`` maps each axis's keys to their positions.
    """

    def __init__(self, cells: list[tuple[Cell, float]]):
        axes = [sorted({cell[k] for cell, _ in cells}) for k in (0, 2, 3)]
        self.models, self.prompts, self.checkpoints = map(tuple, axes)
        self.at = [{key: i for i, key in enumerate(axis)} for axis in axes]
        model_at, prompt_at, checkpoint_at = self.at
        index = tuple(np.array([(model_at[m], prompt_at[p], checkpoint_at[c])
                                for (m, _, p, c), _ in cells]).T)
        self.values = np.full(tuple(map(len, axes)), -np.inf)
        self.values[index] = [score for _, score in cells]
        self.best = self.values.max(axis=1)


@dataclass(frozen=True)
class EvalGrid:
    """Scores by cell plus task metadata, indexed once at construction into
    ``blocks``, which every accessor reads; change no score afterwards."""

    scores: dict[Cell, float]
    tasks: dict[str, TaskMeta]
    blocks: dict[str, TaskBlock] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups: dict[str, list[tuple[Cell, float]]] = {}
        for cell, score in self.scores.items():
            if cell[1] not in self.tasks:
                raise GridError(f"score references unknown task {cell[1]!r}")
            if not math.isfinite(score):
                raise GridError(f"non-finite score at ({', '.join(map(str, cell))})")
            groups.setdefault(cell[1], []).append((cell, score))
        object.__setattr__(self, "blocks", {})
        for task, cells in groups.items():
            try:
                self.blocks[task] = TaskBlock(cells)
            except TypeError as exc:  # keys that do not sort together: 0 and "p0"
                raise GridError(f"task {task!r} mixes key types: {exc}") from None

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(sorted({m for b in self.blocks.values() for m in b.models}))

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return tuple(sorted({c for b in self.blocks.values() for c in b.checkpoints}))

    def task_checkpoints(self, task: str) -> tuple[int, ...]:
        return self.blocks[task].checkpoints if task in self.blocks else ()

    def task_prompts(self, task: str) -> tuple[str, ...]:
        return self.blocks[task].prompts if task in self.blocks else ()

    def prompt_scores(self, model: str, task: str, checkpoint: int) -> dict[str, float]:
        block = self.blocks.get(task)
        if block is None or model not in block.at[0] or checkpoint not in block.at[2]:
            return {}
        m, c = block.at[0][model], block.at[2][checkpoint]
        return {p: v for p, v in zip(block.prompts, block.values[m, :, c].tolist())
                if v != -math.inf}


def prompt_aggregate(grid: EvalGrid) -> dict[tuple[str, str, int], float]:
    """Maximum score across prompts, per (model, task, checkpoint)."""
    out: dict[tuple[str, str, int], float] = {}
    for task, block in grid.blocks.items():
        best = block.best.tolist()
        for m, c in np.argwhere(block.best != -np.inf).tolist():
            out[(block.models[m], task, block.checkpoints[c])] = best[m][c]
    return out


def rescale(score: float, baseline: float, max_score: float) -> float:
    """Min-max rescaling between random baseline and maximum, clamped to [0, 1]."""
    if not baseline < max_score:
        raise GridError(f"baseline {baseline} must be below max {max_score}")
    return min(1.0, max(0.0, (score - baseline) / (max_score - baseline)))


def two_level_mean(scores_by_category: Mapping[str, Iterable[float]]) -> float:
    """Mean of per-category means: categories weigh equally, not tasks."""
    if not scores_by_category:
        raise GridError("no categories to aggregate")
    category_means = []
    for category, values in sorted(scores_by_category.items()):
        values = list(values)
        if not values:
            raise GridError(f"category {category!r} has no scores")
        category_means.append(sum(values) / len(values))
    return sum(category_means) / len(category_means)


def language_score(
    grid: EvalGrid,
    model: str,
    language: str,
    selected_tasks: Iterable[str] | None = None,
) -> float:
    """Two-level mean of final-checkpoint rescaled scores for one model."""
    wanted = grid.tasks if selected_tasks is None else set(selected_tasks)
    by_category: dict[str, list[float]] = {}
    for task, meta in grid.tasks.items():
        if meta.language != language or task not in wanted or task not in grid.blocks:
            continue
        block = grid.blocks[task]
        m = block.at[0].get(model)
        if m is None or block.best[m, -1] == -np.inf:
            raise GridError(
                f"model {model!r} has no score for task {task!r} at the "
                f"final checkpoint"
            )
        value = rescale(block.best[m, -1].item(), meta.random_baseline, meta.max_score)
        by_category.setdefault(meta.category, []).append(value)
    if not by_category:
        raise GridError(f"language {language!r} has no scored tasks")
    return two_level_mean(by_category)


def fractional_ranks(values: list[float], higher_better: bool = True) -> list[float]:
    """Rank 1 is best; ties share the mean of the ranks they occupy."""
    order = sorted(
        range(len(values)), key=lambda i: -values[i] if higher_better else values[i]
    )
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for idx in order[i : j + 1]:
            ranks[idx] = mean_rank
        i = j + 1
    return ranks


@dataclass(frozen=True)
class MultilingualReport:
    average_language_score: dict[str, float]
    average_rank: dict[str, float]
    borda_totals: dict[str, float]
    borda_ranking: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "average_language_score": self.average_language_score,
            "average_rank": self.average_rank,
            "borda_totals": self.borda_totals,
            "borda_ranking": list(self.borda_ranking),
        }


def multilingual_scores(
    language_scores: Mapping[str, Mapping[str, float]],
) -> MultilingualReport:
    """Cross-language aggregation of per-model language scores.

    ``language_scores`` maps model -> language -> score and must be
    complete: every model scored in every language.
    """
    models = sorted(language_scores)
    if len(models) < 2:
        raise GridError("multilingual aggregation needs at least two models")
    languages = sorted(language_scores[models[0]])
    if not languages:
        raise GridError("no languages to aggregate")
    for model in models:
        missing = set(languages) ^ set(language_scores[model])
        if missing:
            raise GridError(
                f"model {model!r} is missing language scores for {sorted(missing)}"
            )

    m = len(models)
    avg_score = {
        model: sum(language_scores[model].values()) / len(languages)
        for model in models
    }
    rank_sums = {model: 0.0 for model in models}
    borda = {model: 0.0 for model in models}
    for language in languages:
        values = [language_scores[model][language] for model in models]
        ranks = fractional_ranks(values, higher_better=True)
        for model, rank in zip(models, ranks):
            rank_sums[model] += rank
            borda[model] += m - rank  # m-1 points for rank 1, 0 for rank m
    avg_rank = {model: rank_sums[model] / len(languages) for model in models}
    ordering = tuple(sorted(models, key=lambda mo: (-borda[mo], mo)))
    return MultilingualReport(avg_score, avg_rank, borda, ordering)


def pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    return num / den if den else 0.0


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation; exact ±1 on strictly monotone untied series."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise GridError("spearman needs two equal-length series of >= 2 points")
    rx = fractional_ranks(xs, higher_better=False)
    ry = fractional_ranks(ys, higher_better=False)
    if len(set(xs)) == len(xs) and len(set(ys)) == len(ys):
        n = len(xs)
        d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
        return 1.0 - 6.0 * d2 / (n * (n * n - 1))
    return pearson(rx, ry)


def kendall_tau(xs: list[float], ys: list[float]) -> float:
    """Kendall tau-b between two score vectors."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise GridError("kendall_tau needs two equal-length series of >= 2 points")
    concordant = discordant = ties_x = ties_y = 0
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        (concordant + discordant + ties_x) * (concordant + discordant + ties_y)
    )
    return (concordant - discordant) / denom if denom else 0.0


RANKING_MODES = ("consecutive", "vs_final")

CRITERIA = (
    "monotonicity",
    "stable_pretraining",
    "non_randomness",
    "ranking_consistency",
    "low_noise",
    "low_prompt_sensitivity",
    "prompt_lottery",
)


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
class CriterionResult:
    value: float | None
    passed: bool


@dataclass(frozen=True)
class TaskSelectionReport:
    criteria: dict[str, dict[str, CriterionResult]]
    selected: tuple[str, ...]

    def to_json(self) -> dict:
        def encode(value: float | None):
            if value is not None and math.isinf(value):
                return "inf" if value > 0 else "-inf"
            return value

        return {
            "selected": list(self.selected),
            "criteria": {
                task: {
                    name: {"value": encode(r.value), "pass": r.passed}
                    for name, r in per_task.items()
                }
                for task, per_task in self.criteria.items()
            },
        }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _cv_of_deltas(series: list[float]) -> float:
    deltas = [b - a for a, b in zip(series, series[1:])]
    if all(d == 0 for d in deltas):
        return 0.0
    mean = _mean(deltas)
    variance = _mean([(d - mean) ** 2 for d in deltas])
    if mean == 0:
        return math.inf
    return math.sqrt(variance) / abs(mean)


_AT_LEAST = ("monotonicity", "non_randomness", "ranking_consistency", "low_noise")
_OPTIONAL = ("stable_pretraining", "low_noise", "low_prompt_sensitivity")


def _passes(name: str, value: float | None, thresholds: SelectionThresholds) -> bool:
    """``value`` is None for ranking consistency with fewer than two models."""
    limit = getattr(thresholds, name)
    if value is None or limit is None and name in _OPTIONAL:
        return True
    return value >= limit if name in _AT_LEAST else value <= limit


def select_tasks(
    grid: EvalGrid,
    thresholds: SelectionThresholds | None = None,
    ranking_mode: str = "consecutive",  # one of RANKING_MODES
) -> TaskSelectionReport:
    """Evaluate the seven signal criteria per task and select the survivors.

    Requires at least three checkpoints per task. Ranking consistency is
    skipped (vacuously passing) with fewer than two models.
    """
    thresholds = thresholds or SelectionThresholds()
    if ranking_mode not in RANKING_MODES:
        raise GridError(f"unknown ranking_mode {ranking_mode!r}")
    report: dict[str, dict[str, CriterionResult]] = {}
    selected: list[str] = []

    for task in sorted(grid.tasks):
        meta = grid.tasks[task]
        checkpoints = grid.task_checkpoints(task)
        if len(checkpoints) < 3:
            raise GridError(
                f"task {task!r} has {len(checkpoints)} checkpoints; need >= 3"
            )
        block = grid.blocks[task]
        missing = np.argwhere(block.best == -np.inf)
        if len(missing):
            m, c = missing[0]
            raise GridError(
                f"model {block.models[m]!r} is missing task {task!r} at "
                f"checkpoint {checkpoints[c]}"
            )
        series = block.best.tolist()  # per model: max over prompts per checkpoint
        ranking = None
        if len(series) >= 2:
            columns = [list(column) for column in zip(*series)]
            later = columns[1:]
            if ranking_mode == "vs_final":
                later = [columns[-1]] * len(later)
            ranking = _mean([kendall_tau(a, b) for a, b in zip(columns[:-1], later)])
        # argmax keeps the first maximum, so ties go to the smallest prompt name.
        winners = block.values.argmax(axis=1)
        changes = (winners[:, 1:] != winners[:, :-1]).sum(axis=1).tolist()
        noise_values, mads = [], []
        for m, model_series in enumerate(series):
            values = [v for v in block.values[m, :, -1].tolist() if v != -math.inf]
            med = median(values)
            mads.append(median([abs(v - med) for v in values]))
            spread = math.sqrt(_mean([(v - _mean(values)) ** 2 for v in values]))
            noise_values.append(model_series[-1] / spread if spread else math.inf)
        steps = list(map(float, range(len(checkpoints))))
        baseline, top = meta.random_baseline, meta.max_score
        values = (
            _mean([spearman(steps, s) for s in series]),
            _mean([_cv_of_deltas(s) for s in series]),
            _mean([rescale(s[-1], baseline, top) for s in series]),
            ranking,
            _mean(noise_values),
            _mean(mads),
            _mean([n / (len(checkpoints) - 1) for n in changes]),
        )
        results = {
            name: CriterionResult(value, _passes(name, value, thresholds))
            for name, value in zip(CRITERIA, values)
        }
        report[task] = results
        if all(r.passed for r in results.values()):
            selected.append(task)

    return TaskSelectionReport(report, tuple(selected))


def load_grid(scores_path: str | Path, meta_path: str | Path) -> EvalGrid:
    """Load a grid from a JSONL/CSV score table and a JSON task-metadata file.

    Score rows carry model, task, prompt, checkpoint_tokens, score.
    """
    try:
        meta_raw = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GridError(f"{meta_path}: malformed JSON: {exc}") from exc
    if not isinstance(meta_raw, dict):
        raise GridError(f"{meta_path}: task metadata must be a JSON object")
    tasks = {}
    for name, entry in meta_raw.items():
        try:
            tasks[name] = TaskMeta(float(entry["random_baseline"]),
                                   float(entry["max_score"]), entry["category"],
                                   entry["language"])
        except KeyError as exc:
            raise GridError(
                f"{meta_path}: task {name!r} is missing field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise GridError(f"{meta_path}: task {name!r}: {exc}") from exc

    scores_path = Path(scores_path)
    scores: dict[Cell, float] = {}
    for number, row in _score_rows(scores_path):
        try:
            cell, score = _score_cell(row, tasks)
            if cell in scores:
                raise ValueError(f"duplicate score row {row!r}: (model, task, prompt, "
                                 "checkpoint_tokens) already has a score")
        except ValueError as exc:
            raise GridError(f"{scores_path}:{number}: {exc}") from exc
        scores[cell] = score
    return EvalGrid(scores, tasks)


def _score_cell(row, tasks: Mapping[str, TaskMeta]) -> tuple[Cell, float]:
    """The cell and score of one parsed row; ValueError says what is wrong."""
    if not isinstance(row, dict):
        raise ValueError("score row is not a JSON object")
    for name in ("model", "task", "prompt", "checkpoint_tokens", "score"):
        if row.get(name) is None:
            raise ValueError(f"score row is missing field {name!r}")
        if isinstance(row[name], (list, dict)):  # unhashable: cannot key a cell
            raise ValueError(f"field {name!r} must be a string or a number")
    try:
        cell = (row["model"], row["task"], row["prompt"], int(row["checkpoint_tokens"]))
        score = float(row["score"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad score row {row!r}: {exc}") from None
    if cell[1] not in tasks:
        raise ValueError(f"score references unknown task {cell[1]!r}")
    if not math.isfinite(score):
        raise ValueError(f"non-finite score {score}")
    return cell, score


def _score_rows(path: Path) -> Iterator[tuple[int, object]]:
    """Each score row with its 1-based line number (a CSV row's last line)."""
    with path.open(newline="", encoding="utf-8") as fh:
        if path.suffix == ".csv":
            reader = csv.DictReader(fh)
            try:
                yield from ((reader.line_num, row) for row in reader)
            except csv.Error as exc:
                raise GridError(f"{path}:{reader.line_num}: {exc}") from exc
            return
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    row = json.loads(line.rstrip("\r\n"))
                except json.JSONDecodeError as exc:
                    raise GridError(f"{path}:{number}: malformed JSON: {exc.msg} "
                                    f"(column {exc.colno})") from exc
                yield number, row


def render_ranking(report: MultilingualReport) -> str:
    lines = ["model                      avg score   avg rank   borda"]
    for model in report.borda_ranking:
        lines.append(
            f"{model:<25} {report.average_language_score[model]:>10.4f} "
            f"{report.average_rank[model]:>10.2f} "
            f"{report.borda_totals[model]:>7.2f}"
        )
    return "\n".join(lines) + "\n"
