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
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class EvalGrid:
    scores: dict[Cell, float]
    tasks: dict[str, TaskMeta]

    def __post_init__(self):
        for (model, task, prompt, checkpoint), score in self.scores.items():
            if task not in self.tasks:
                raise GridError(f"score references unknown task {task!r}")
            if not math.isfinite(score):
                raise GridError(
                    f"non-finite score at ({model}, {task}, {prompt}, {checkpoint})"
                )

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(sorted({m for m, _, _, _ in self.scores}))

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return tuple(sorted({c for _, _, _, c in self.scores}))

    def task_checkpoints(self, task: str) -> tuple[int, ...]:
        return tuple(sorted({c for _, t, _, c in self.scores if t == task}))

    def task_prompts(self, task: str) -> tuple[str, ...]:
        return tuple(sorted({p for _, t, p, _ in self.scores if t == task}))

    def prompt_scores(
        self, model: str, task: str, checkpoint: int
    ) -> dict[str, float]:
        return {
            p: s
            for (m, t, p, c), s in self.scores.items()
            if m == model and t == task and c == checkpoint
        }


def prompt_aggregate(grid: EvalGrid) -> dict[tuple[str, str, int], float]:
    """Maximum score across prompts, per (model, task, checkpoint)."""
    out: dict[tuple[str, str, int], float] = {}
    for (model, task, _, checkpoint), score in grid.scores.items():
        key = (model, task, checkpoint)
        if key not in out or score > out[key]:
            out[key] = score
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
    aggregated = prompt_aggregate(grid)
    wanted = set(selected_tasks) if selected_tasks is not None else None
    by_category: dict[str, list[float]] = {}
    for task, meta in grid.tasks.items():
        if meta.language != language:
            continue
        if wanted is not None and task not in wanted:
            continue
        checkpoints = grid.task_checkpoints(task)
        if not checkpoints:
            continue
        key = (model, task, checkpoints[-1])
        if key not in aggregated:
            raise GridError(
                f"model {model!r} has no score for task {task!r} at the "
                f"final checkpoint"
            )
        value = rescale(aggregated[key], meta.random_baseline, meta.max_score)
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
            if value is None:
                return None
            if math.isinf(value):
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


def _argmax_prompt(prompt_scores: dict[str, float]) -> str:
    return max(sorted(prompt_scores), key=lambda p: prompt_scores[p])


def select_tasks(
    grid: EvalGrid,
    thresholds: SelectionThresholds | None = None,
    ranking_mode: str = "consecutive",  # or "vs_final"
) -> TaskSelectionReport:
    """Evaluate the seven signal criteria per task and select the survivors.

    Requires at least three checkpoints per task. Ranking consistency is
    skipped (vacuously passing) with fewer than two models.
    """
    thresholds = thresholds or SelectionThresholds()
    if ranking_mode not in ("consecutive", "vs_final"):
        raise GridError(f"unknown ranking_mode {ranking_mode!r}")
    aggregated = prompt_aggregate(grid)
    models = grid.models
    report: dict[str, dict[str, CriterionResult]] = {}
    selected: list[str] = []

    for task in sorted(grid.tasks):
        meta = grid.tasks[task]
        checkpoints = grid.task_checkpoints(task)
        if len(checkpoints) < 3:
            raise GridError(
                f"task {task!r} has {len(checkpoints)} checkpoints; need >= 3"
            )
        task_models = sorted({m for (m, t, c) in aggregated if t == task})
        for m in task_models:
            for c in checkpoints:
                if (m, task, c) not in aggregated:
                    raise GridError(
                        f"model {m!r} is missing task {task!r} at checkpoint {c}"
                    )
        series = {
            m: [aggregated[(m, task, c)] for c in checkpoints] for m in task_models
        }
        final = checkpoints[-1]

        monotonicity = _mean(
            [
                spearman(list(map(float, range(len(checkpoints)))), series[m])
                for m in task_models
            ]
        )
        stable = _mean([_cv_of_deltas(series[m]) for m in task_models])
        non_random = _mean(
            [
                rescale(series[m][-1], meta.random_baseline, meta.max_score)
                for m in task_models
            ]
        )

        if len(task_models) >= 2:
            taus = []
            pairs = (
                list(zip(checkpoints, checkpoints[1:]))
                if ranking_mode == "consecutive"
                else [(c, final) for c in checkpoints[:-1]]
            )
            for c_a, c_b in pairs:
                a = [aggregated[(m, task, c_a)] for m in task_models]
                b = [aggregated[(m, task, c_b)] for m in task_models]
                taus.append(kendall_tau(a, b))
            ranking = CriterionResult(_mean(taus), _mean(taus) >= thresholds.ranking_consistency)
        else:
            ranking = CriterionResult(None, True)

        noise_values = []
        mads = []
        lottery_rates = []
        for m in task_models:
            final_prompts = grid.prompt_scores(m, task, final)
            values = [final_prompts[p] for p in sorted(final_prompts)]
            med = median(values)
            mads.append(median([abs(v - med) for v in values]))
            spread = math.sqrt(_mean([(v - _mean(values)) ** 2 for v in values]))
            final_score = series[m][-1]
            noise_values.append(final_score / spread if spread else math.inf)
            argmaxes = [
                _argmax_prompt(grid.prompt_scores(m, task, c)) for c in checkpoints
            ]
            changes = sum(1 for a, b in zip(argmaxes, argmaxes[1:]) if a != b)
            lottery_rates.append(changes / (len(checkpoints) - 1))
        low_noise = _mean(noise_values)
        low_sensitivity = _mean(mads)
        lottery = _mean(lottery_rates)

        results = {
            "monotonicity": CriterionResult(
                monotonicity, monotonicity >= thresholds.monotonicity
            ),
            "stable_pretraining": CriterionResult(
                stable,
                thresholds.stable_pretraining is None
                or stable <= thresholds.stable_pretraining,
            ),
            "non_randomness": CriterionResult(
                non_random, non_random >= thresholds.non_randomness
            ),
            "ranking_consistency": ranking,
            "low_noise": CriterionResult(
                low_noise,
                thresholds.low_noise is None or low_noise >= thresholds.low_noise,
            ),
            "low_prompt_sensitivity": CriterionResult(
                low_sensitivity,
                thresholds.low_prompt_sensitivity is None
                or low_sensitivity <= thresholds.low_prompt_sensitivity,
            ),
            "prompt_lottery": CriterionResult(
                lottery, lottery <= thresholds.prompt_lottery
            ),
        }
        report[task] = results
        if all(r.passed for r in results.values()):
            selected.append(task)

    return TaskSelectionReport(report, tuple(selected))


def load_grid(scores_path: str | Path, meta_path: str | Path) -> EvalGrid:
    """Load a grid from a JSONL/CSV score table and a JSON task-metadata file.

    Score rows carry model, task, prompt, checkpoint_tokens, score.
    """
    meta_raw = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    tasks = {}
    for name, entry in meta_raw.items():
        try:
            tasks[name] = TaskMeta(
                random_baseline=float(entry["random_baseline"]),
                max_score=float(entry["max_score"]),
                category=entry["category"],
                language=entry["language"],
            )
        except KeyError as exc:
            raise GridError(
                f"{meta_path}: task {name!r} is missing field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise GridError(f"{meta_path}: task {name!r}: {exc}") from exc

    scores_path = Path(scores_path)
    rows: list[dict] = []
    if scores_path.suffix == ".csv":
        with scores_path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    else:
        with scores_path.open(encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]

    scores: dict[Cell, float] = {}
    for row in rows:
        try:
            cell = (
                row["model"],
                row["task"],
                row["prompt"],
                int(row["checkpoint_tokens"]),
            )
            score = float(row["score"])
        except (KeyError, ValueError) as exc:
            raise GridError(f"bad score row {row!r}: {exc}") from exc
        if cell in scores:
            raise GridError(
                f"duplicate score row {row!r}: (model, task, prompt, "
                "checkpoint_tokens) already has a score"
            )
        scores[cell] = score
    return EvalGrid(scores, tasks)


def render_ranking(report: MultilingualReport) -> str:
    lines = ["model                      avg score   avg rank   borda"]
    for model in report.borda_ranking:
        lines.append(
            f"{model:<25} {report.average_language_score[model]:>10.4f} "
            f"{report.average_rank[model]:>10.2f} "
            f"{report.borda_totals[model]:>7.2f}"
        )
    return "\n".join(lines) + "\n"
