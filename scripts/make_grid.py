#!/usr/bin/env python3
"""Generate a synthetic evaluation grid for `refinery eval-agg`.

    python3 scripts/make_grid.py --rows 160000 --seed 0 [--csv] OUT_DIR

Writes a score table (``scores.jsonl``, or ``scores.csv`` with ``--csv``),
the task metadata (``task_meta.json``) and a pipeline config
(``pipeline.json``) into OUT_DIR, ready for
``refinery eval-agg --config OUT_DIR/pipeline.json``. The table is a full
models x tasks x prompts x checkpoints grid: 4 languages of 10 tasks, 5
prompts and 10 checkpoints, so every model adds 2,000 rows and ``--rows``
must be a multiple of 2,000, at least 4,000. Scores grow with the
checkpoint, with each model's quality and with the prompt's number, plus
noise, except on every fifth task, which stays at its random baseline;
they are rounded to 6 places, and the same seed writes the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
from pathlib import Path

LANGUAGES = ("fra_Latn", "deu_Latn", "tha_Thai", "swh_Latn")
CATEGORIES = ("reading", "reasoning", "knowledge")
TASKS_PER_LANGUAGE = 10
PROMPTS = 5
CHECKPOINTS = 10
ROWS_PER_MODEL = len(LANGUAGES) * TASKS_PER_LANGUAGE * PROMPTS * CHECKPOINTS
FIELDS = ("model", "task", "prompt", "checkpoint_tokens", "score")


def grid_rows(rows: int, rng: random.Random) -> tuple[dict, list[tuple]]:
    """The task metadata and the score rows, in model, task, checkpoint and
    prompt order."""
    meta = {
        f"{language.split('_')[0]}_task{i:02d}": {
            "random_baseline": rng.choice([0.0, 0.25, 0.5]),
            "max_score": 1.0,
            "category": CATEGORIES[i % len(CATEGORIES)],
            "language": language,
        }
        for language in LANGUAGES for i in range(TASKS_PER_LANGUAGE)
    }
    models = [f"model-{i:03d}" for i in range(rows // ROWS_PER_MODEL)]
    out = []
    for model in models:
        quality = rng.uniform(0.2, 0.9)
        for t, task in enumerate(sorted(meta)):
            base = meta[task]["random_baseline"]
            flat = t % 5 == 4  # a task that does not tell models or checkpoints apart
            for step in range(CHECKPOINTS):
                growth = 0.0 if flat else (step + 1) / CHECKPOINTS
                for prompt in range(PROMPTS):
                    score = (base + (1 - base) * quality * growth * (0.8 + 0.04 * prompt)
                             + rng.gauss(0, 0.003))
                    out.append((model, task, f"p{prompt}", (step + 1) * 10**9,
                                round(min(1.0, max(0.0, score)), 6)))
    return meta, out


def write_grid(out_dir: Path, rows: int, seed: int, as_csv: bool = False) -> Path:
    """Write the grid into ``out_dir``; the path of its pipeline config."""
    rng = random.Random(f"grid:{seed}")
    meta, table = grid_rows(rows, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = "scores.csv" if as_csv else "scores.jsonl"
    if as_csv:
        text = io.StringIO(newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(FIELDS)
        writer.writerows(table)
        data = text.getvalue()
    else:
        data = "".join(json.dumps(dict(zip(FIELDS, row))) + "\n" for row in table)
    (out_dir / name).write_text(data, encoding="utf-8", newline="")
    (out_dir / "task_meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                            encoding="utf-8")
    config = {
        "input": name,
        "output_root": "out",
        "language": LANGUAGES[0],
        "eval_agg": {"scores": name, "task_meta": "task_meta.json"},
    }
    config_path = out_dir / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", action="store_true", help="write scores.csv, not scores.jsonl")
    args = parser.parse_args()
    if args.rows < 2 * ROWS_PER_MODEL or args.rows % ROWS_PER_MODEL:
        parser.error(f"--rows must be a multiple of {ROWS_PER_MODEL}, "
                     f"at least {2 * ROWS_PER_MODEL}")
    config_path = write_grid(args.out_dir, args.rows, args.seed, args.csv)
    print(f"wrote {args.rows} score rows; next: refinery eval-agg --config {config_path}")


if __name__ == "__main__":
    main()
