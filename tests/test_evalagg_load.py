"""``load_grid`` against a per-row reference loader.

``ref_scores`` reads a score table the simple way: each line through
``json.loads`` (or each ``csv.DictReader`` row), then every check in turn.
On generated tables with one injected fault on any line, or on a line far
past the text decoder's buffer, ``load_grid`` must raise the same error
text or build the same grid.
"""

import csv
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import refinery.evalagg as evalagg
from refinery.cli import main
from refinery.documents import DocumentError, read_utf8
from refinery.evalagg import EvalGrid, GridError, TaskMeta, load_grid

_REPO = Path(__file__).resolve().parent.parent

TASKS = {f"t{i}": TaskMeta(0.25, 1.0, "c", "l") for i in range(3)}
FIELDS = ("model", "task", "prompt", "checkpoint_tokens", "score")


def ref_cell(row, tasks):
    if not isinstance(row, dict):
        raise ValueError("score row is not a JSON object")
    for name in FIELDS:
        if row.get(name) is None:
            raise ValueError(f"score row is missing field {name!r}")
        if isinstance(row[name], (list, dict)):
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


def ref_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        if path.suffix == ".csv":
            reader = csv.DictReader(fh)
            try:
                for row in reader:
                    yield reader.line_num, row
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


def ref_scores(path, tasks):
    scores = {}
    try:
        for number, row in ref_rows(path):
            try:
                cell, score = ref_cell(row, tasks)
                if cell in scores:
                    raise ValueError(f"duplicate score row {row!r}: (model, task, prompt, "
                                     "checkpoint_tokens) already has a score")
            except ValueError as exc:
                raise GridError(f"{path}:{number}: {exc}") from exc
            scores[cell] = score
    except UnicodeDecodeError:
        read_utf8(path)
        raise
    return scores


def outcome(fn, *args):
    try:
        grid = fn(*args)
    except (GridError, DocumentError) as exc:
        return ("error", type(exc).__name__, str(exc))
    # repr tells 1, 1.0 and True apart, which compare equal as keys
    return ("ok", repr(list(grid.scores.items())),
            {task: (b.models, b.prompts, b.checkpoints, b.values.tolist())
             for task, b in grid.blocks.items()})


def write_meta(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({name: {"random_baseline": m.random_baseline,
                                       "max_score": m.max_score, "category": m.category,
                                       "language": m.language}
                                for name, m in TASKS.items()}), encoding="utf-8")
    return path


def table_rows(rng, n):
    cells = [(f"m{m}", f"t{t}", f"p{p}", c)
             for m in range(3) for t in range(3) for p in range(2) for c in range(1, 6)]
    rng.shuffle(cells)
    return [dict(zip(FIELDS, (*cell, round(rng.uniform(0.2, 0.9), 4)))) for cell in cells[:n]]


def dumps(row, rng):
    return json.dumps(row, separators=rng.choice([(",", ":"), (", ", ": ")]))


# Each fault changes the table's lines (each ending in "\n") at index ``at``.
def _truncated(lines, at, rng):
    text = lines[at].rstrip("\n")
    lines[at] = text[: rng.randrange(1, len(text))] + "\n"


def _two_objects(lines, at, rng):
    lines[at] = lines[at].rstrip("\n") + rng.choice(["", " ", ","]) + lines[at]


def _split_row(lines, at, rng):
    # With two rows on another line, a count of the rows in the whole chunk
    # still matches, and a one-shot decode of the lines joined by commas
    # would accept both faults.
    text = lines[at].rstrip("\n")
    cut = text.index(",", rng.randrange(1, text.rindex(",") + 1)) + 1
    other = rng.randrange(len(lines))
    lines[other] = lines[other].rstrip("\n") + lines[other]
    lines[at : at + 1] = [text[:cut] + "\n", text[cut:] + "\n"]


def _leading_space(lines, at, rng):
    # JSON whitespace is accepted; the rest only by str.strip, or not at all
    lines[at] = rng.choice([" ", "\t", " \t ", "\x0c", "\u00a0", "\u3000", "\ufeff"]) + lines[at]


def _blank_line(lines, at, rng):
    lines.insert(at, rng.choice(["\n", "  \n", "\t\n", "\x0c\n", "\x1c\n", "\u00a0\n",
                                 "\u2028\n"]))


def _line_endings(lines, at, rng):
    ending = rng.choice(["\r", "\r\n"])
    for i in range(at, len(lines)):
        lines[i] = lines[i].rstrip("\n") + ending
    if rng.random() < 0.5:
        lines[-1] = lines[-1].rstrip("\r\n")


def _no_final_newline(lines, at, rng):
    del lines[at + 1 :]
    lines[at] = lines[at].rstrip("\n") + rng.choice(["", " ", "\t"])


def _trailing_space(lines, at, rng):
    lines[at] = lines[at].rstrip("\n") + rng.choice([" ", "\t", "\x0c", "\u00a0"]) + "\n"


def _not_an_object(lines, at, rng):
    lines[at] = rng.choice(['["m0", "t0", "p0", 1, 0.5]', '"row"', "5", "null", "true"]) + "\n"


def _bad_field(lines, at, rng):
    row = json.loads(lines[at])
    name = rng.choice(FIELDS)
    value = rng.choice([None, [1], {"a": 1}, "missing"])
    if value == "missing":
        del row[name]
    else:
        row[name] = value
    lines[at] = dumps(row, rng) + "\n"


def _replaced(lines, at, rng, name, value):
    """Line ``at`` with the JSON text ``value`` in field ``name``."""
    row = {**json.loads(lines[at]), name: "@"}
    lines[at] = dumps(row, rng).replace('"@"', value) + "\n"


def _checkpoint(lines, at, rng):
    _replaced(lines, at, rng, "checkpoint_tokens", rng.choice(
        ["1e999", "1.5", "2.0", '"3"', '" 4 "', '"x"', '"1.5"', "NaN", "-Infinity", "true",
         "false"]))


def _score(lines, at, rng):
    _replaced(lines, at, rng, "score", rng.choice(
        ["NaN", "Infinity", "-Infinity", "1e999", '"nan"', '"0.5"', '"x"', "true", "3",
         str(10**400)]))


def _unknown_task(lines, at, rng):
    row = json.loads(lines[at])
    row["task"] = rng.choice(["mystery", "T0", 1, True, 0.5])
    lines[at] = dumps(row, rng) + "\n"


def _repeated_cell(lines, at, rng):
    row = json.loads(lines[at])
    other = json.loads(lines[rng.randrange(len(lines))])
    # an equal key of another type repeats the cell too: 2 == 2.0 == int("2")
    checkpoint = other["checkpoint_tokens"]
    other["checkpoint_tokens"] = rng.choice([checkpoint, float(checkpoint), str(checkpoint)])
    other["score"] = row["score"]
    lines[at] = dumps(other, rng) + "\n"


def _key_types(lines, at, rng):
    row = json.loads(lines[at])
    row[rng.choice(["model", "prompt"])] = rng.choice([0, 1.0, True, False, "", "pé"])
    lines[at] = dumps(row, rng) + "\n"


FAULTS = {f.__name__.lstrip("_"): f for f in (
    _truncated, _two_objects, _split_row, _leading_space, _blank_line, _line_endings,
    _no_final_newline, _trailing_space, _not_an_object, _bad_field, _checkpoint, _score,
    _unknown_task, _repeated_cell, _key_types,
)}


@st.composite
def faulty_tables(draw):
    n = draw(st.integers(1, 30))
    at = draw(st.integers(0, n - 1))  # the fault's line
    kind = draw(st.sampled_from(["none", *FAULTS]))
    return n, at, kind, draw(st.integers(0, 2**32))


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(faulty_tables(), st.booleans())
def test_load_grid_matches_the_per_row_reference(tmp_path_factory, case, not_utf8_after):
    n, at, kind, rng_seed = case
    rng = random.Random(rng_seed)
    tmp_path = tmp_path_factory.mktemp("grid")
    lines = [dumps(row, rng) + "\n" for row in table_rows(rng, n)]
    if kind != "none":
        FAULTS[kind](lines, at, rng)
    path = tmp_path / "scores.jsonl"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    try:
        ref_scores(path, TASKS)
        row_fault = None
    except GridError as exc:
        row_fault = ("error", "GridError", str(exc))
    data = "".join(lines).encode("utf-8")
    if not_utf8_after:
        # well past the decoder's buffer, so the rows before it are read
        padding = "".join(f'{{"model": "pad", "task": "t0", "prompt": "p", '
                          f'"checkpoint_tokens": {i}, "score": 0.5}}\n' for i in range(400))
        data += ("\n" + padding).encode() + b'{"model": "caf\xe9"}\n'
    path.write_bytes(data)
    meta = write_meta(tmp_path)
    want = outcome(lambda: EvalGrid(ref_scores(path, TASKS), TASKS))
    if row_fault:
        assert want == row_fault  # a row fault before a bad byte is the one named
    assert outcome(load_grid, path, meta) == want


def _cell_outcome(check, row):
    try:
        return ("ok", repr(check(row, TASKS)))  # repr tells 1, 1.0 and True apart
    except ValueError as exc:
        return ("error", str(exc))


_MISSING = object()
# Any JSON value, a CSV row's string, or one that makes a good row.
_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(), st.integers().map(str), st.floats().map(str), st.text(max_size=4),
    st.sampled_from(["", " 7 ", "1.5", "0x10", "1_000", "T0"]),
    st.sampled_from([math.nan, math.inf, -math.inf, "nan", "-inf", "1e999"]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
# Values each field accepts; a drawn row starts from these.
_GOOD = {"model": ["m0", 0, 1.5, True], "task": ["t0", "t2"], "prompt": ["p0", "", 2, False],
         "checkpoint_tokens": [1, "3", 2.0, True, " 4"], "score": [0.5, "0.25", 1, "-1e3"]}


@st.composite
def score_rows(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_FIELD_VALUES)  # not an object
    row = {name: draw(st.sampled_from(_GOOD[name])) for name in FIELDS}
    for name in draw(st.sets(st.sampled_from(FIELDS))):
        value = draw(st.one_of(st.just(_MISSING), _FIELD_VALUES))
        if value is _MISSING:
            del row[name]
        else:
            row[name] = value
    if draw(st.booleans()):
        row[None] = ["x"]  # csv.DictReader's key for the fields past the header's
    return row


@seed(20261022)
@settings(max_examples=1500, deadline=None)
@given(score_rows())
def test_score_cell_gives_what_the_reference_gives(row):
    assert _cell_outcome(evalagg._score_cell, row) == _cell_outcome(ref_cell, row)


def _csv_line(row):
    return ",".join(str(row[name]) for name in FIELDS) + "\n"


CSV_FAULTS = {
    "short": lambda lines, at, rng: lines.__setitem__(at, lines[at].rsplit(",", 1)[0] + "\n"),
    "long": lambda lines, at, rng: lines.__setitem__(at, lines[at].rstrip("\n") + ",x,y\n"),
    "empty-field": lambda lines, at, rng: lines.__setitem__(at, "," + lines[at].split(",", 1)[1]),
    "unknown-task": lambda lines, at, rng: lines.__setitem__(at, lines[at].replace(",t", ",u", 1)),
    "nan": lambda lines, at, rng: lines.__setitem__(at, lines[at].rsplit(",", 1)[0] + ",nan\n"),
    "checkpoint": lambda lines, at, rng: lines.__setitem__(
        at, ",".join(lines[at].split(",")[:3] + [rng.choice(["1.5", "x", "1e999", " 7"]),
                                                  lines[at].split(",")[4]])),
    "repeat": lambda lines, at, rng: lines.__setitem__(at, lines[rng.randrange(len(lines))]),
    "quoted-newline": lambda lines, at, rng: lines.__setitem__(
        at, '"m\n' + lines[at][1:].replace(",", '",', 1)),
    "crlf": lambda lines, at, rng: lines.__setitem__(at, lines[at].rstrip("\n") + "\r\n"),
    "blank": lambda lines, at, rng: lines.insert(at, "\n"),
}


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 19), st.sampled_from(["none", *CSV_FAULTS]),
       st.integers(0, 2**32))
def test_csv_load_grid_matches_the_per_row_reference(tmp_path_factory, n, at, kind, rng_seed):
    rng = random.Random(rng_seed)
    tmp_path = tmp_path_factory.mktemp("grid")
    lines = [_csv_line(row) for row in table_rows(rng, n)]
    if kind != "none":
        CSV_FAULTS[kind](lines, min(at, n - 1), rng)
    path = tmp_path / "scores.csv"
    path.write_text(",".join(FIELDS) + "\n" + "".join(lines), encoding="utf-8", newline="")
    meta = write_meta(tmp_path)
    want = outcome(lambda: EvalGrid(ref_scores(path, TASKS), TASKS))
    assert outcome(load_grid, path, meta) == want


# A fault's line far into a table: the rows before it reach well past the
# text decoder's buffer, so they are read in several buffers.
_FAR_LINE = 4096


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("kind", ["truncated", "score", "repeated_cell", "leading_space"])
def test_a_fault_beside_a_full_size_chunk_boundary(tmp_path, kind, offset):
    rng = random.Random(f"{kind}:{offset}")
    at = _FAR_LINE + offset
    rows = [{"model": f"m{i % 7}", "task": f"t{i % 3}", "prompt": "p", "checkpoint_tokens": i,
             "score": 0.5} for i in range(at + 5)]
    lines = [dumps(row, rng) + "\n" for row in rows]
    FAULTS[kind](lines, at, rng)
    path = tmp_path / "scores.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    want = outcome(lambda: EvalGrid(ref_scores(path, TASKS), TASKS))
    assert outcome(load_grid, path, write_meta(tmp_path)) == want


def test_make_grid_tables_aggregate_alike_as_jsonl_and_csv(tmp_path):
    reports = []
    for form in ("jsonl", "csv"):
        subprocess.run([sys.executable, str(_REPO / "scripts" / "make_grid.py"), "--rows", "4000",
                        "--seed", "3", *(["--csv"] if form == "csv" else []),
                        str(tmp_path / form)], check=True, capture_output=True)
        config = tmp_path / form / "pipeline.json"
        assert main(["eval-agg", "--config", str(config)]) == 0
        out = tmp_path / form / "out" / "eval_agg"
        assert json.loads((out / "report.json").read_text())["input_documents"] == 4000
        reports.append((out / "evalagg.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["multilingual"]["borda_ranking"]


def test_csv_is_loaded_only_for_a_csv_table(tmp_path):
    meta = write_meta(tmp_path)
    row = {"model": "m", "task": "t0", "prompt": "p", "checkpoint_tokens": 1, "score": 0.5}
    (tmp_path / "scores.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
    (tmp_path / "scores.csv").write_text(",".join(FIELDS) + "\n" + _csv_line(row),
                                         encoding="utf-8")
    script = ("import sys, refinery.cli\n"
              "from refinery.evalagg import load_grid\n"
              f"load_grid({str(tmp_path / 'scores.jsonl')!r}, {str(meta)!r})\n"
              "print('csv' in sys.modules)\n"
              f"load_grid({str(tmp_path / 'scores.csv')!r}, {str(meta)!r})\n"
              "print('csv' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(_REPO / "src")},
                            check=True, capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["False", "True"]
