import json
import math
import random

import pytest
from scipy import stats

from refinery.evalagg import (
    EvalGrid,
    GridError,
    SelectionThresholds,
    TaskMeta,
    fractional_ranks,
    kendall_tau,
    language_score,
    load_grid,
    multilingual_scores,
    prompt_aggregate,
    rescale,
    select_tasks,
    spearman,
    two_level_mean,
)


def _grid(cells, tasks):
    return EvalGrid(cells, tasks)


def _meta(baseline=0.0, maximum=1.0, category="cat", language="lang"):
    return TaskMeta(baseline, maximum, category, language)


class TestRescale:
    def test_baseline_maps_to_zero(self):
        assert rescale(0.25, 0.25, 1.0) == 0.0

    def test_max_maps_to_one(self):
        assert rescale(1.0, 0.25, 1.0) == 1.0

    def test_below_baseline_clamped(self):
        assert rescale(0.1, 0.25, 1.0) == 0.0

    def test_above_max_clamped(self):
        assert rescale(1.2, 0.25, 1.0) == 1.0

    def test_midpoint(self):
        assert rescale(0.5, 0.0, 1.0) == 0.5

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(GridError):
            rescale(0.5, 1.0, 1.0)
        with pytest.raises(GridError):
            rescale(0.5, 2.0, 1.0)

    def test_affine_invariance(self, rng):
        for _ in range(200):
            score = rng.uniform(-1, 2)
            baseline = rng.uniform(0, 0.5)
            maximum = baseline + rng.uniform(0.1, 2)
            a = rng.uniform(0.1, 5)
            b = rng.uniform(-10, 10)
            direct = rescale(score, baseline, maximum)
            shifted = rescale(a * score + b, a * baseline + b, a * maximum + b)
            assert shifted == pytest.approx(direct, abs=1e-9)


class TestPromptAggregate:
    def test_single_prompt_identity(self):
        grid = _grid({("m", "t", "p0", 1): 0.4}, {"t": _meta()})
        assert prompt_aggregate(grid) == {("m", "t", 1): 0.4}

    def test_takes_maximum(self):
        grid = _grid(
            {("m", "t", "p0", 1): 0.2, ("m", "t", "p1", 1): 0.5}, {"t": _meta()}
        )
        assert prompt_aggregate(grid) == {("m", "t", 1): 0.5}

    def test_matches_max_oracle(self, rng):
        cells = {}
        for model in ("m0", "m1"):
            for task in ("t0", "t1"):
                for prompt in ("p0", "p1", "p2"):
                    for checkpoint in (1, 2, 3):
                        cells[(model, task, prompt, checkpoint)] = rng.random()
        grid = _grid(cells, {"t0": _meta(), "t1": _meta()})
        aggregated = prompt_aggregate(grid)
        for (model, task, checkpoint), value in aggregated.items():
            direct = max(
                cells[(model, task, p, checkpoint)] for p in ("p0", "p1", "p2")
            )
            assert value == direct


class TestLanguageScore:
    def test_single_category_mean(self):
        grid = _grid(
            {
                ("m", "t0", "p", 1): 0.4,
                ("m", "t1", "p", 1): 0.6,
            },
            {"t0": _meta(category="c"), "t1": _meta(category="c")},
        )
        assert language_score(grid, "m", "lang") == pytest.approx(0.5)

    def test_category_weighting_not_task_weighting(self):
        grid = _grid(
            {
                ("m", "ta", "p", 1): 1.0,
                ("m", "tb0", "p", 1): 0.0,
                ("m", "tb1", "p", 1): 0.0,
            },
            {
                "ta": _meta(category="A"),
                "tb0": _meta(category="B"),
                "tb1": _meta(category="B"),
            },
        )
        assert language_score(grid, "m", "lang") == pytest.approx(0.5)  # not 1/3

    def test_uses_final_checkpoint_and_rescaling(self):
        grid = _grid(
            {
                ("m", "t", "p", 1): 0.9,
                ("m", "t", "p", 2): 0.5,
            },
            {"t": _meta(baseline=0.25, maximum=1.0)},
        )
        assert language_score(grid, "m", "lang") == pytest.approx((0.5 - 0.25) / 0.75)

    def test_no_tasks_for_language_rejected(self):
        grid = _grid({("m", "t", "p", 1): 0.4}, {"t": _meta(language="other")})
        with pytest.raises(GridError):
            language_score(grid, "m", "lang")

    def test_two_level_mean_matches_brute_force(self, rng):
        for _ in range(100):
            categories = {
                f"c{i}": [rng.random() for _ in range(rng.randint(1, 5))]
                for i in range(rng.randint(1, 4))
            }
            got = two_level_mean(categories)
            per_cat = [sum(v) / len(v) for v in categories.values()]
            assert got == pytest.approx(sum(per_cat) / len(per_cat))

    def test_in_unit_interval_and_permutation_invariant(self, rng):
        values = [rng.random() for _ in range(6)]
        cats = {"a": values[:3], "b": values[3:]}
        score = two_level_mean(cats)
        assert 0.0 <= score <= 1.0
        shuffled = {"a": list(reversed(values[:3])), "b": list(reversed(values[3:]))}
        assert two_level_mean(shuffled) == pytest.approx(score, abs=1e-15)


def _pairwise_points(scores: dict[str, float]) -> dict[str, float]:
    # Independent Borda derivation: one point per beaten rival, half per tie.
    return {
        m: sum(
            1.0 if scores[m] > scores[o] else 0.5 if scores[m] == scores[o] else 0.0
            for o in scores
            if o != m
        )
        for m in scores
    }


class TestMultilingual:
    def test_unanimous_winner(self):
        scores = {
            "good": {"l0": 0.9, "l1": 0.8, "l2": 0.7},
            "bad": {"l0": 0.1, "l1": 0.2, "l2": 0.3},
        }
        report = multilingual_scores(scores)
        assert report.average_rank["good"] == 1.0
        assert report.borda_totals["good"] == 1.0 * 3  # (m-1) per language
        assert report.borda_totals["bad"] == 0.0
        assert report.borda_ranking == ("good", "bad")

    def test_single_language_borda_equals_score_order(self, rng):
        scores = {f"m{i}": {"only": rng.random()} for i in range(4)}
        report = multilingual_scores(scores)
        by_score = tuple(
            sorted(scores, key=lambda m: (-scores[m]["only"], m))
        )
        assert report.borda_ranking == by_score

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(200):
            models = [f"m{i}" for i in range(rng.randint(2, 4))]
            languages = [f"l{i}" for i in range(rng.randint(1, 4))]
            scores = {
                m: {
                    lang: rng.choice([0.1, 0.2, 0.3, 0.5, 0.5, 0.9])
                    for lang in languages
                }
                for m in models
            }
            report = multilingual_scores(scores)
            expected_borda = {m: 0.0 for m in models}
            expected_rank = {m: 0.0 for m in models}
            for lang in languages:
                per_lang = {m: scores[m][lang] for m in models}
                points = _pairwise_points(per_lang)
                for m in models:
                    expected_borda[m] += points[m]
                    expected_rank[m] += len(models) - points[m]  # rank = m - points
            for m in models:
                assert report.borda_totals[m] == pytest.approx(expected_borda[m])
                assert report.average_rank[m] == pytest.approx(
                    expected_rank[m] / len(languages)
                )

    def test_unanimity_collapses_aggregators(self, rng):
        models = ["m0", "m1", "m2"]
        strengths = {"m0": 0.9, "m1": 0.5, "m2": 0.2}
        scores = {
            m: {f"l{i}": strengths[m] + rng.uniform(0, 0.05) for i in range(3)}
            for m in models
        }
        report = multilingual_scores(scores)
        by_avg = sorted(models, key=lambda m: -report.average_language_score[m])
        by_rank = sorted(models, key=lambda m: report.average_rank[m])
        assert tuple(by_avg) == tuple(by_rank) == report.borda_ranking

    def test_constant_shift_in_one_language_changes_nothing(self, rng):
        models = ["m0", "m1", "m2"]
        scores = {m: {f"l{i}": rng.random() for i in range(3)} for m in models}
        shifted = {
            m: {**scores[m], "l0": scores[m]["l0"] + 0.37} for m in models
        }
        a = multilingual_scores(scores)
        b = multilingual_scores(shifted)
        assert a.average_rank == b.average_rank
        assert a.borda_totals == b.borda_totals
        assert a.borda_ranking == b.borda_ranking

    def test_incomplete_grid_rejected(self):
        with pytest.raises(GridError):
            multilingual_scores({"a": {"l0": 1.0}, "b": {"l1": 0.5}})
        with pytest.raises(GridError):
            multilingual_scores({"a": {"l0": 1.0}})


class TestRankStatistics:
    def test_fractional_ranks_share_means(self):
        assert fractional_ranks([0.9, 0.9, 0.1]) == [1.5, 1.5, 3.0]
        assert fractional_ranks([0.1, 0.5, 0.9]) == [3.0, 2.0, 1.0]

    def test_spearman_exact_on_monotone(self):
        assert spearman([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.5, 0.9]) == 1.0
        assert spearman([1.0, 2.0, 3.0, 4.0], [0.9, 0.5, 0.2, 0.1]) == -1.0

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_spearman_matches_scipy(self, rng):
        for _ in range(200):
            n = rng.randint(3, 10)
            xs = [rng.choice([0.1, 0.2, 0.3, 0.7]) for _ in range(n)]
            ys = [rng.choice([0.1, 0.2, 0.3, 0.7]) for _ in range(n)]
            expected = stats.spearmanr(xs, ys).statistic
            got = spearman(xs, ys)
            if math.isnan(expected):
                assert got == 0.0  # constant series carry no signal
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_kendall_matches_scipy(self, rng):
        for _ in range(200):
            n = rng.randint(2, 10)
            xs = [rng.choice([0.1, 0.2, 0.3, 0.7]) for _ in range(n)]
            ys = [rng.choice([0.1, 0.2, 0.3, 0.7]) for _ in range(n)]
            expected = stats.kendalltau(xs, ys).statistic
            got = kendall_tau(xs, ys)
            if math.isnan(expected):
                assert got == 0.0
            else:
                assert got == pytest.approx(expected, abs=1e-12)


def _selection_grid(series, baseline=0.25, maximum=1.0, prompts=("p0",)):
    """One-task grid; series maps model -> per-checkpoint base scores."""
    cells = {}
    for model, values in series.items():
        for checkpoint, value in enumerate(values, start=1):
            for j, prompt in enumerate(prompts):
                cells[(model, "t", prompt, checkpoint)] = value - 0.01 * j
    return _grid(cells, {"t": _meta(baseline, maximum)})


class TestSelectTasks:
    def test_strictly_increasing_single_prompt(self):
        grid = _selection_grid({"m": [0.3, 0.5, 0.7, 0.9]})
        report = select_tasks(grid)
        c = report.criteria["t"]
        assert c["monotonicity"].value == 1.0
        assert c["prompt_lottery"].value == 0.0
        assert c["ranking_consistency"].value is None  # single model: skipped
        assert "t" in report.selected

    def test_strictly_decreasing_monotonicity(self):
        grid = _selection_grid({"m": [0.9, 0.7, 0.5, 0.3]})
        report = select_tasks(grid)
        assert report.criteria["t"]["monotonicity"].value == -1.0
        assert "t" not in report.selected

    def test_constant_at_baseline_fails_non_randomness(self):
        grid = _selection_grid({"m": [0.25, 0.25, 0.25]})
        report = select_tasks(grid)
        c = report.criteria["t"]
        assert c["non_randomness"].value == 0.0
        assert not c["non_randomness"].passed
        assert "t" not in report.selected

    def test_all_seven_criteria_present(self):
        grid = _selection_grid({"m": [0.3, 0.5, 0.7]})
        report = select_tasks(grid)
        assert sorted(report.criteria["t"]) == sorted(
            [
                "monotonicity",
                "stable_pretraining",
                "non_randomness",
                "ranking_consistency",
                "low_noise",
                "low_prompt_sensitivity",
                "prompt_lottery",
            ]
        )

    def test_needs_three_checkpoints(self):
        grid = _selection_grid({"m": [0.3, 0.5]})
        with pytest.raises(GridError, match="checkpoints"):
            select_tasks(grid)

    def test_ranking_consistency_against_scipy(self, rng):
        series = {
            "m0": [0.3, 0.5, 0.6, 0.7],
            "m1": [0.4, 0.45, 0.5, 0.65],
            "m2": [0.35, 0.55, 0.5, 0.6],
        }
        grid = _selection_grid(series)
        report = select_tasks(grid)
        taus = []
        checkpoints = [0, 1, 2, 3]
        models = sorted(series)
        for a, b in zip(checkpoints, checkpoints[1:]):
            va = [series[m][a] for m in models]
            vb = [series[m][b] for m in models]
            taus.append(stats.kendalltau(va, vb).statistic)
        expected = sum(taus) / len(taus)
        assert report.criteria["t"]["ranking_consistency"].value == pytest.approx(
            expected, abs=1e-12
        )

    def test_monotonicity_against_scipy(self, rng):
        for _ in range(30):
            series = {
                f"m{i}": [rng.random() for _ in range(5)]
                for i in range(rng.randint(1, 3))
            }
            grid = _selection_grid(series)
            report = select_tasks(grid)
            expected = []
            for m in sorted(series):
                rho = stats.spearmanr(range(5), series[m]).statistic
                expected.append(0.0 if math.isnan(rho) else rho)
            assert report.criteria["t"]["monotonicity"].value == pytest.approx(
                sum(expected) / len(expected), abs=1e-12
            )

    def test_prompt_lottery_counts_argmax_changes(self):
        cells = {
            ("m", "t", "p0", 1): 0.5,
            ("m", "t", "p1", 1): 0.4,
            ("m", "t", "p0", 2): 0.4,
            ("m", "t", "p1", 2): 0.6,
            ("m", "t", "p0", 3): 0.7,
            ("m", "t", "p1", 3): 0.6,
        }
        grid = _grid(cells, {"t": _meta()})
        report = select_tasks(grid)
        assert report.criteria["t"]["prompt_lottery"].value == 1.0  # changed twice

    def test_mad_and_noise_at_final_checkpoint(self):
        cells = {
            ("m", "t", "p0", 1): 0.2,
            ("m", "t", "p1", 1): 0.3,
            ("m", "t", "p0", 2): 0.4,
            ("m", "t", "p1", 2): 0.5,
            ("m", "t", "p0", 3): 0.6,
            ("m", "t", "p1", 3): 0.8,
        }
        grid = _grid(cells, {"t": _meta()})
        report = select_tasks(grid)
        c = report.criteria["t"]
        assert c["low_prompt_sensitivity"].value == pytest.approx(0.1)
        spread = math.sqrt(((0.6 - 0.7) ** 2 + (0.8 - 0.7) ** 2) / 2)
        assert c["low_noise"].value == pytest.approx(0.8 / spread)

    def test_configured_thresholds_gate(self):
        grid = _selection_grid({"m": [0.3, 0.5, 0.7, 0.9]})
        strict = SelectionThresholds(low_noise=1e9)
        report = select_tasks(grid, strict)
        assert not report.criteria["t"]["low_noise"].passed or math.isinf(
            report.criteria["t"]["low_noise"].value
        )


_META_ENTRY = {"random_baseline": 0.25, "max_score": 1.0, "category": "c", "language": "l"}


class TestGridIo:
    def test_jsonl_and_csv_loaders_agree(self, tmp_path):
        rows = [
            {"model": "m", "task": "t", "prompt": "p", "checkpoint_tokens": 1, "score": 0.5},
            {"model": "m", "task": "t", "prompt": "p", "checkpoint_tokens": 2, "score": 0.7},
        ]
        meta = {
            "t": {
                "random_baseline": 0.25,
                "max_score": 1.0,
                "category": "c",
                "language": "l",
            }
        }
        meta_path = tmp_path / "tasks.json"
        meta_path.write_text(json.dumps(meta))
        jsonl = tmp_path / "scores.jsonl"
        jsonl.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text(
            "model,task,prompt,checkpoint_tokens,score\nm,t,p,1,0.5\nm,t,p,2,0.7\n"
        )
        a = load_grid(jsonl, meta_path)
        b = load_grid(csv_path, meta_path)
        assert a.scores == b.scores
        assert a.tasks == b.tasks

    def test_duplicate_score_row_rejected(self, tmp_path):
        meta_path = tmp_path / "tasks.json"
        meta_path.write_text(json.dumps({"t": _META_ENTRY}))
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text(
            "model,task,prompt,checkpoint_tokens,score\n"
            "m,t,p,1,0.5\nm,t,p,2,0.7\nm,t,p,1,0.9\n"
        )
        with pytest.raises(GridError, match="duplicate score row .*'0.9'"):
            load_grid(csv_path, meta_path)

    def test_task_meta_missing_field_named(self, tmp_path):
        entry = {k: v for k, v in _META_ENTRY.items() if k != "category"}
        meta_path = tmp_path / "tasks.json"
        meta_path.write_text(json.dumps({"t": _META_ENTRY, "u": entry}))
        jsonl = tmp_path / "scores.jsonl"
        jsonl.write_text("")
        with pytest.raises(GridError, match="task 'u' is missing field 'category'"):
            load_grid(jsonl, meta_path)
        meta_path.write_text(json.dumps({"t": _META_ENTRY, "v": ["not", "a", "mapping"]}))
        with pytest.raises(GridError, match="task 'v'"):
            load_grid(jsonl, meta_path)
        meta_path.write_text(json.dumps({"w": {**_META_ENTRY, "max_score": "high"}}))
        with pytest.raises(GridError, match="task 'w'"):
            load_grid(jsonl, meta_path)

    def test_unknown_task_rejected(self):
        with pytest.raises(GridError):
            _grid({("m", "mystery", "p", 1): 0.5}, {"t": _meta()})

    def test_non_finite_score_rejected(self):
        with pytest.raises(GridError):
            _grid({("m", "t", "p", 1): float("nan")}, {"t": _meta()})

    def test_degenerate_task_meta_rejected(self):
        with pytest.raises(GridError):
            TaskMeta(1.0, 1.0, "c", "l")
