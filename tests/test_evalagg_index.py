"""The indexed evaluation grid against the scan-based code it replaced.

The ``ref_*`` functions below are the earlier implementations, which read
every grid value by scanning ``grid.scores``. They are the oracle: on
ragged random grids the indexed task blocks, criteria, selections, language
scores and error messages must equal theirs exactly (``==``, no tolerance).
"""

import hashlib
import json
import math
import random
from statistics import median

import pytest

import refinery.cli as cli
import refinery.evalagg as evalagg
from refinery.cli import main
from refinery.evalagg import (
    CriterionResult,
    EvalGrid,
    GridError,
    SelectionThresholds,
    TaskMeta,
    TaskSelectionReport,
    language_score,
    prompt_aggregate,
    rescale,
    select_tasks,
    spearman,
    two_level_mean,
)

# --- reference: the scan-based implementation --------------------------------


def ref_validate(scores, tasks):
    for (model, task, prompt, checkpoint), score in scores.items():
        if task not in tasks:
            raise GridError(f"score references unknown task {task!r}")
        if not math.isfinite(score):
            raise GridError(
                f"non-finite score at ({model}, {task}, {prompt}, {checkpoint})"
            )


def ref_models(grid):
    return tuple(sorted({m for m, _, _, _ in grid.scores}))


def ref_task_checkpoints(grid, task):
    return tuple(sorted({c for _, t, _, c in grid.scores if t == task}))


def ref_task_prompts(grid, task):
    return tuple(sorted({p for _, t, p, _ in grid.scores if t == task}))


def ref_prompt_scores(grid, model, task, checkpoint):
    return {
        p: s
        for (m, t, p, c), s in grid.scores.items()
        if m == model and t == task and c == checkpoint
    }


def ref_prompt_aggregate(grid):
    out = {}
    for (model, task, _, checkpoint), score in grid.scores.items():
        key = (model, task, checkpoint)
        if key not in out or score > out[key]:
            out[key] = score
    return out


def ref_language_score(grid, model, language, selected_tasks=None):
    aggregated = ref_prompt_aggregate(grid)
    wanted = set(selected_tasks) if selected_tasks is not None else None
    by_category = {}
    for task, meta in grid.tasks.items():
        if meta.language != language:
            continue
        if wanted is not None and task not in wanted:
            continue
        checkpoints = ref_task_checkpoints(grid, task)
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


def ref_kendall_tau(xs, ys):
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


def _mean(values):
    return sum(values) / len(values)


def _cv_of_deltas(series):
    deltas = [b - a for a, b in zip(series, series[1:])]
    if all(d == 0 for d in deltas):
        return 0.0
    mean = _mean(deltas)
    variance = _mean([(d - mean) ** 2 for d in deltas])
    if mean == 0:
        return math.inf
    return math.sqrt(variance) / abs(mean)


def _argmax_prompt(prompt_scores):
    return max(sorted(prompt_scores), key=lambda p: prompt_scores[p])


def ref_select_tasks(grid, thresholds=None, ranking_mode="consecutive"):
    thresholds = thresholds or SelectionThresholds()
    if ranking_mode not in ("consecutive", "vs_final"):
        raise GridError(f"unknown ranking_mode {ranking_mode!r}")
    aggregated = ref_prompt_aggregate(grid)
    report = {}
    selected = []

    for task in sorted(grid.tasks):
        meta = grid.tasks[task]
        checkpoints = ref_task_checkpoints(grid, task)
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
                taus.append(ref_kendall_tau(a, b))
            ranking = CriterionResult(
                _mean(taus), _mean(taus) >= thresholds.ranking_consistency
            )
        else:
            ranking = CriterionResult(None, True)

        noise_values = []
        mads = []
        lottery_rates = []
        for m in task_models:
            final_prompts = ref_prompt_scores(grid, m, task, final)
            values = [final_prompts[p] for p in sorted(final_prompts)]
            med = median(values)
            mads.append(median([abs(v - med) for v in values]))
            spread = math.sqrt(_mean([(v - _mean(values)) ** 2 for v in values]))
            final_score = series[m][-1]
            noise_values.append(final_score / spread if spread else math.inf)
            argmaxes = [
                _argmax_prompt(ref_prompt_scores(grid, m, task, c))
                for c in checkpoints
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


# --- ragged random grids -------------------------------------------------------

TIED_VALUES = (0.25, 0.5, 0.5, 0.75)


def ragged_cells(rng: random.Random):
    """Cells and metadata with the shapes real grids have.

    Prompt names and checkpoint sets differ per task, some (model,
    checkpoint) pairs lack prompts (now and then all of them), some models
    lack whole tasks, some tasks have no scores, and half the tasks draw
    from a few values so prompt scores tie.
    """
    models = [f"model-{i}" for i in range(rng.randint(1, 5))]
    languages = [f"lang{i}" for i in range(rng.randint(1, 3))]
    tasks = {}
    cells = {}
    for t in range(rng.randint(1, 7)):
        task = f"task{t}"
        tasks[task] = TaskMeta(
            rng.choice([0.0, 0.25, 0.5]),
            1.0,
            rng.choice(["reading", "reasoning"]),
            rng.choice(languages),
        )
        if rng.random() < 0.02:
            continue  # a task with metadata but no scores
        prompts = [f"{task}-q{j}" for j in rng.sample(range(9), rng.randint(1, 4))]
        n_checkpoints = 2 if rng.random() < 0.02 else rng.randint(3, 6)
        checkpoints = sorted(rng.sample(range(1, 40), n_checkpoints))
        tied = rng.random() < 0.5
        dropout = rng.choice([0.0, 0.0, 0.2, 0.4])
        trend = rng.uniform(-0.1, 0.1)
        for model in models:
            if rng.random() < 0.1:
                continue  # this model never ran this task
            for step, checkpoint in enumerate(checkpoints):
                kept = [p for p in prompts if rng.random() >= dropout]
                if not kept and rng.random() < 0.9:
                    kept = [rng.choice(prompts)]  # else no prompt at all here
                for prompt in kept:
                    if tied:
                        value = rng.choice(TIED_VALUES)
                    else:
                        value = round(0.4 + trend * step + rng.uniform(-0.2, 0.2), 4)
                    cells[(model, task, prompt, checkpoint)] = value
    items = list(cells.items())
    rng.shuffle(items)  # insertion order must not matter
    return dict(items), tasks


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except GridError as exc:
        return ("error", str(exc))


def assert_same_accessors(grid):
    assert grid.models == ref_models(grid)
    assert prompt_aggregate(grid) == ref_prompt_aggregate(grid)
    assert grid.blocks.keys() == {task for _, task, _, _ in grid.scores}
    for task, block in grid.blocks.items():
        assert block.checkpoints == ref_task_checkpoints(grid, task)
        assert block.prompts == ref_task_prompts(grid, task)
        for model in ref_models(grid):
            for checkpoint in block.checkpoints:
                scores = {}
                if model in block.at[0]:
                    m, c = block.at[0][model], block.at[2][checkpoint]
                    scores = {p: v for p, v in zip(block.prompts, block.values[m, :, c].tolist())
                              if v != -math.inf}
                assert scores == ref_prompt_scores(grid, model, task, checkpoint)


@pytest.mark.parametrize("seed", range(8))
def test_index_equals_scan_on_ragged_grids(seed):
    rng = random.Random(9000 + seed)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(40):
        cells, tasks = ragged_cells(rng)
        grid = EvalGrid(cells, tasks)
        assert_same_accessors(grid)
        languages = sorted({meta.language for meta in tasks.values()})
        selections = [None]
        for thresholds, mode in [
            (None, "consecutive"),
            (None, "vs_final"),
            (SelectionThresholds(monotonicity=0.0, non_randomness=0.0, prompt_lottery=1.0,
                                 stable_pretraining=5.0, low_noise=1.0,
                                 low_prompt_sensitivity=0.2), "consecutive"),
        ]:
            got = outcome(select_tasks, grid, thresholds, mode)
            want = outcome(ref_select_tasks, grid, thresholds, mode)
            assert got == want
            outcomes[got[0]] += 1
            if got[0] == "ok":
                selections.append(got[1].selected)
        selections.append(tuple(rng.sample(sorted(tasks), rng.randint(0, len(tasks)))))
        for model in ref_models(grid) + ("no-such-model",):
            for language in languages + ["no-such-language"]:
                for chosen in selections:
                    got = outcome(language_score, grid, model, language, chosen)
                    want = outcome(ref_language_score, grid, model, language, chosen)
                    assert got == want
    # the generator reaches both the criteria and the error paths
    assert outcomes["ok"] > 0 and outcomes["error"] > 0


def test_unknown_mode_and_construction_errors_match():
    rng = random.Random(77)
    cells, tasks = ragged_cells(rng)
    grid = EvalGrid(cells, tasks)
    assert outcome(select_tasks, grid, None, "sideways") == outcome(
        ref_select_tasks, grid, None, "sideways"
    )
    cell = next(iter(cells))
    for bad in (
        {**cells, ("model-0", "mystery", "p", 1): 0.5},
        {**cells, (cell[0], cell[1], "extra-prompt", 3): float("inf")},
        {**cells, (cell[0], cell[1], "extra-prompt", 3): float("nan")},
    ):
        got = outcome(EvalGrid, bad, tasks)
        want = outcome(ref_validate, bad, tasks)
        assert got[0] == want[0] == "error" and got[1] == want[1]


def test_tied_prompts_go_to_the_smallest_name():
    cells = {}
    for checkpoint, winners in zip((1, 2, 3, 4), ("b", "a", "a", "c")):
        for prompt in "abc":
            cells[("m", "t", prompt, checkpoint)] = 0.5 if prompt <= winners else 0.1
    # checkpoint 1: a and b tie at the top -> a; 4: all tie -> a
    grid = EvalGrid(cells, {"t": TaskMeta(0.0, 1.0, "c", "l")})
    lottery = select_tasks(grid).criteria["t"]["prompt_lottery"].value
    assert lottery == ref_select_tasks(grid).criteria["t"]["prompt_lottery"].value == 0.0


def test_integer_prompt_ids_load_and_aggregate(tmp_path):
    rows = [
        {"model": model, "task": "t", "prompt": prompt, "checkpoint_tokens": checkpoint,
         "score": round(0.3 + 0.1 * checkpoint + 0.05 * prompt + (model == "mb") * 0.02, 4)}
        for model in ("ma", "mb") for prompt in (0, 1, 2) for checkpoint in (1, 2, 3)
    ]
    (tmp_path / "scores.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    (tmp_path / "tasks.json").write_text(json.dumps({"t": {
        "random_baseline": 0.25, "max_score": 1.0, "category": "c", "language": "l"}}))
    grid = evalagg.load_grid(tmp_path / "scores.jsonl", tmp_path / "tasks.json")
    assert grid.blocks["t"].prompts == (0, 1, 2)
    assert_same_accessors(grid)
    assert select_tasks(grid) == ref_select_tasks(grid)
    assert language_score(grid, "mb", "l") == ref_language_score(grid, "mb", "l")


def test_mixed_key_types_in_one_task_are_a_grid_error():
    cells = {("m", "t", "p0", 1): 0.5, ("m", "t", 0, 1): 0.4}
    with pytest.raises(GridError, match="task 't' mixes key types"):
        EvalGrid(cells, {"t": TaskMeta(0.0, 1.0, "c", "l")})


@pytest.mark.parametrize("name", evalagg.CRITERIA)
def test_only_the_optional_thresholds_may_be_none(name):
    cells = {(model, "t", "p", checkpoint): 0.3 + 0.1 * checkpoint + offset
             for model, offset in (("ma", 0.0), ("mb", 0.05)) for checkpoint in (1, 2, 3)}
    grid = EvalGrid(cells, {"t": TaskMeta(0.25, 1.0, "c", "l")})
    thresholds = SelectionThresholds(**{name: None})
    if name in ("stable_pretraining", "low_noise", "low_prompt_sensitivity"):
        assert select_tasks(grid, thresholds) == ref_select_tasks(grid, thresholds)
    else:  # no gate is switched off: a None limit cannot be compared, as before
        for fn in (select_tasks, ref_select_tasks):
            with pytest.raises(TypeError):
                fn(grid, thresholds)


# --- complexity gate: cell scans and aggregate work ----------------------------


class CountingCells(dict):
    """A score dict that counts every pass over its cells."""

    passes = 0

    def _count(self):
        self.passes += 1

    def __iter__(self):
        self._count()
        return super().__iter__()

    def items(self):
        self._count()
        return super().items()

    def keys(self):
        self._count()
        return super().keys()

    def values(self):
        self._count()
        return super().values()


def _wide_grid(n_tasks: int) -> tuple[CountingCells, dict]:
    rng = random.Random(n_tasks)
    tasks = {
        f"t{i:03d}": TaskMeta(0.25, 1.0, f"cat{i % 3}", f"lang{i % 2}")
        for i in range(n_tasks)
    }
    cells = CountingCells()
    for task in tasks:
        for model in ("ma", "mb", "mc"):
            for checkpoint in (1, 2, 3, 4):
                for prompt in ("p0", "p1", "p2"):
                    cells[(model, task, prompt, checkpoint)] = rng.random()
    return cells, tasks


def _score_every_language(grid, calls: int | None = None) -> int:
    pairs = [(m, lang) for m in grid.models for lang in ("lang0", "lang1")]
    for model, lang in pairs[:calls]:
        language_score(grid, model, lang)
    return len(pairs[:calls])


def test_selection_and_language_scores_scan_cells_a_constant_number_of_times():
    passes = {}
    for n_tasks in (4, 16, 64):
        cells, tasks = _wide_grid(n_tasks)
        grid = EvalGrid(cells, tasks)
        select_tasks(grid)
        select_tasks(grid, ranking_mode="vs_final")
        _score_every_language(grid)
        passes[n_tasks] = cells.passes
    assert max(passes.values()) <= 2, passes
    assert len(set(passes.values())) == 1, passes


def test_prompt_aggregate_work_does_not_grow_with_language_score_calls(monkeypatch):
    calls = []
    original = evalagg.prompt_aggregate
    monkeypatch.setattr(
        evalagg, "prompt_aggregate", lambda grid: calls.append(1) or original(grid)
    )
    work = {}
    for n_calls in (1, None):
        cells, tasks = _wide_grid(12)
        grid = EvalGrid(cells, tasks)
        calls.clear()
        made = _score_every_language(grid, n_calls)
        work[made] = (len(calls), cells.passes)
    assert len(work) == 2 and len(set(work.values())) == 1, work


# --- end to end: the CLI's bytes against the reference --------------------------

# sha256 of evalagg.json + ranking.txt as the reference code writes them for
# _cli_grid (the scan-based code before the grid index wrote the same bytes);
# a change that moves any float in the output changes this digest.
EXPECTED_DIGEST = "29b39bb5eff17c0719b85694e0013dc5373518ba510a58154cad02d07ca2b552"


def _cli_grid(root):
    rng = random.Random(2024)
    models = [f"model-{c}" for c in "abcdef"]
    quality = dict(zip(models, (0.3, 0.8, 0.5, 0.6, 0.4, 0.7)))
    meta, rows = {}, []
    for i in range(20):
        task = f"{('fra', 'deu', 'tha')[i % 3]}_task{i:02d}"
        informative = i % 2 == 0
        meta[task] = {
            "random_baseline": (0.0, 0.25)[i % 2],
            "max_score": 1.0,
            "category": ("reading", "reasoning")[i % 4 // 2],
            "language": task[:3],
        }
        for model in models:
            for step in range(6):
                for prompt in range(4):
                    if informative:
                        value = (0.3 + 0.1 * step * quality[model] - 0.02 * prompt
                                 + 0.01 * rng.random())
                    else:
                        value = 0.25 + 0.05 * rng.random()
                    rows.append({"model": model, "task": task, "prompt": f"q{prompt}",
                                 "checkpoint_tokens": (step + 1) * 10**9,
                                 "score": round(value, 6)})
    (root / "scores.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    (root / "task_meta.json").write_text(json.dumps(meta))
    (root / "corpus.jsonl").write_text("")
    config = root / "pipeline.json"
    config.write_text(json.dumps({
        "input": "corpus.jsonl", "output_root": "out", "language": "fra_Latn",
        "eval_agg": {"scores": "scores.jsonl", "task_meta": "task_meta.json"},
    }))
    return config, len(rows)


def _outputs(config, out):
    assert main(["eval-agg", "--config", str(config), "--output", str(out)]) == 0
    return (out / "evalagg.json").read_bytes(), (out / "ranking.txt").read_bytes()


def test_cli_outputs_equal_reference_bytes(tmp_path, monkeypatch):
    config, n_rows = _cli_grid(tmp_path)
    assert 2000 <= n_rows <= 5000
    indexed = _outputs(config, tmp_path / "indexed")
    monkeypatch.setattr(cli, "select_tasks", ref_select_tasks)
    monkeypatch.setattr(cli, "language_score", ref_language_score)
    reference = _outputs(config, tmp_path / "reference")
    assert indexed == reference
    assert hashlib.sha256(b"".join(reference)).hexdigest() == EXPECTED_DIGEST
    report = json.loads(indexed[0])
    assert 0 < len(report["task_selection"]["selected"]) < 20
