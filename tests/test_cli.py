import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refinery.cli
import refinery.documents
from refinery.cli import DOCUMENT_STAGES, main, run_stage
from refinery.config import load_config
from refinery.documents import Document, read_documents, write_documents

from conftest import (
    ALPHA_LANG,
    OMEGA_LANG,
    OMEGA_WORDS,
    build_pipeline_fixture,
    snapshot_tree as _tree,
)

@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    import random

    root = tmp_path_factory.mktemp("pipeline")
    config_path = build_pipeline_fixture(root, random.Random(7), n_docs=200)
    return root, config_path


def test_all_runs_every_stage(fixture_dir):
    root, config_path = fixture_dir
    out = root / "run_all"
    assert main(["all", "--config", str(config_path), "--output", str(out)]) == 0
    for stage in ("lid", "dedup", "score", "package", "analyze"):
        assert (out / stage / "report.json").exists()
    lid_report = json.loads((out / "lid" / "report.json").read_text())
    assert lid_report["removals"].get("lid_rejected", 0) > 0
    # Every planted foreign document is rejected, and no document or segment
    # comes near a tie, so predict decides none of them again.
    assert lid_report["rejected"] == lid_report["removals"]["lid_rejected"] == 30
    assert lid_report["exact_rescored"] == 0
    dedup_report = json.loads((out / "dedup" / "report.json").read_text())
    assert dedup_report["removals"] == {"duplicate": 10}
    # The fixture's duplicates are pairs: each merge verified one pair.
    assert dedup_report["verified_pairs"] == 10
    assert dedup_report["largest_cluster"] == 2
    assert (out / "package" / ALPHA_LANG / "manifest.json").exists()
    assert (out / "analyze" / "analytics.json").exists()


def test_stage_outputs_compose(fixture_dir):
    root, config_path = fixture_dir
    out = root / "run_all"
    lid_docs = read_documents(out / "lid" / "documents.jsonl")
    assert all(d.lang == ALPHA_LANG for d in lid_docs)
    assert all(d.seg_langs is not None for d in lid_docs)
    scored = read_documents(out / "score" / "documents.jsonl")
    assert all(d.wds is not None for d in scored)
    assert all("wds_subsignals" in d.extras for d in scored)


def test_staged_equals_pipelined(fixture_dir):
    root, config_path = fixture_dir
    all_out = root / "run_all"
    staged_out = root / "run_staged"
    config = str(config_path)
    current = None
    for stage in ("lid", "dedup", "score", "package", "analyze"):
        args = ["--config", config, "--output", str(staged_out / stage)]
        if current is not None:
            args += ["--input", str(current)]
        assert main([stage] + args) == 0
        if stage in ("lid", "dedup", "score"):
            current = staged_out / stage / "documents.jsonl"
    assert _tree(staged_out) == _tree(all_out)


def test_reruns_byte_identical(fixture_dir):
    root, config_path = fixture_dir
    outs = []
    for name in ("r1", "r2", "r3"):
        out = root / f"run_{name}"
        code = main(["all", "--config", str(config_path), "--output", str(out)])
        assert code == 0
        outs.append(_tree(out))
    assert outs[0] == outs[1] == outs[2]


def test_dedup_removal_log_schema(fixture_dir):
    root, _ = fixture_dir
    log_path = root / "run_all" / "dedup" / "removal_log.jsonl"
    lines = [json.loads(x) for x in log_path.read_text().splitlines() if x]
    assert lines
    for record in lines:
        assert set(record) == {"id", "representative_id", "estimated_jaccard"}
        assert 0.0 <= record["estimated_jaccard"] <= 1.0


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input": "missing.jsonl", "output_root": "o"}))
    assert main(["lid", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.json", '{"input": "corpus.jsonl",'),
        ("bad.yaml", "input: [corpus.jsonl\nlanguage: aaa_Latn\n"),
        ("bad.json", '{"input": "c.jsonl", "output_root": "o", "language": "l", "workers": "two"}'),
    ],
)
def test_unusable_config_exits_2_with_one_line(tmp_path, capsys, name, text):
    (tmp_path / "c.jsonl").write_text("")
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["all", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refinery: config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_workers_flag_and_field_are_gone(tmp_path, capsys):
    (tmp_path / "c.jsonl").write_text("")
    config = tmp_path / "cfg.json"
    config.write_text('{"input": "c.jsonl", "output_root": "o", "language": "l"}')
    with pytest.raises(SystemExit) as info:
        main(["lid", "--config", str(config), "--workers", "2"])
    assert info.value.code == 2
    capsys.readouterr()
    config.write_text(
        '{"input": "c.jsonl", "output_root": "o", "language": "l", "workers": 1}'
    )
    assert main(["lid", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "refinery: config error: workers: unknown field\n"
    )


def test_stage_failure_exits_1(tmp_path, capsys):
    (tmp_path / "corpus.jsonl").write_text(
        '{"id":"a","lang":"aaa_Latn","text":"hello"}\n'
    )
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn"}
        )
    )
    # lid without classifier or seeds cannot run
    assert main(["lid", "--config", str(config)]) == 1
    assert "failed" in capsys.readouterr().err


def test_score_requires_profile_source(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(
        '{"id":"a","lang":"aaa_Latn","text":"hello"}\n'
    )
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn"}
        )
    )
    assert main(["score", "--config", str(config)]) == 1


def test_min_level_filter_applied(tmp_path):
    lines = [
        {"id": "lo", "lang": "aaa_Latn", "text": "tiny", "seg_langs": ["aaa_Latn"]},
        {
            "id": "hi",
            "lang": "aaa_Latn",
            "text": "\n".join(
                " ".join(f"w{chr(97 + i)}{chr(97 + j)}" for j in range(12))
                for i in range(20)
            ),
            "seg_langs": ["aaa_Latn"] * 20,
        },
    ]
    (tmp_path / "corpus.jsonl").write_text(
        "\n".join(json.dumps(x) for x in lines) + "\n"
    )
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "input": "corpus.jsonl",
                "output_root": "out",
                "language": "aaa_Latn",
                "wds": {"min_level": 5, "min_length_tokens": 10,
                        "target_length_tokens": 100},
            }
        )
    )
    assert main(["score", "--config", str(config)]) == 0
    out = tmp_path / "out" / "score"
    kept = read_documents(out / "documents.jsonl")
    removed = read_documents(out / "removed.jsonl")
    assert [d.id for d in kept] == ["hi"]
    assert [d.id for d in removed] == ["lo"]
    assert removed[0].removed_reason == "below_wds"


def test_score_three_doc_pass_through(tmp_path):
    lines = [
        {
            "id": f"d{i}",
            "lang": "aaa_Latn",
            "text": f"alpha beta {chr(97 + i)}",
            "seg_langs": ["aaa_Latn"],
        }
        for i in range(3)
    ]
    (tmp_path / "corpus.jsonl").write_text(
        "\n".join(json.dumps(x) for x in lines) + "\n"
    )
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn"}
        )
    )
    assert main(["score", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "score" / "report.json").read_text())
    assert report["input_documents"] == 3
    assert report["output_documents"] == 3
    docs = read_documents(tmp_path / "out" / "score" / "documents.jsonl")
    assert all(d.wds is not None for d in docs)


def test_dedup_single_pair_reported(tmp_path):
    text = "one two three four five six seven eight nine ten"
    lines = [
        {"id": "a", "lang": "aaa_Latn", "text": text},
        {"id": "b", "lang": "aaa_Latn", "text": text},
        {"id": "c", "lang": "aaa_Latn", "text": "different words entirely here now then"},
    ]
    (tmp_path / "corpus.jsonl").write_text(
        "\n".join(json.dumps(x) for x in lines) + "\n"
    )
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "input": "corpus.jsonl",
                "output_root": "out",
                "language": "aaa_Latn",
                "dedup": {"ngram_order": 3},
            }
        )
    )
    assert main(["dedup", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "dedup" / "report.json").read_text())
    assert report["removals"] == {"duplicate": 1}
    removed = read_documents(tmp_path / "out" / "dedup" / "removed.jsonl")
    assert [(d.id, d.removed_reason) for d in removed] == [("b", "duplicate")]


def _eval_agg_config(tmp_path):
    """Write a two-model, two-task evaluation grid and its JSON config; the
    config's path."""
    rows = []
    for model, lift in [("m_base", 0.0), ("m_plus", 0.1)]:
        for checkpoint in (1, 2, 3):
            for prompt in ("p0", "p1"):
                rows.append(
                    {
                        "model": model,
                        "task": "taskA",
                        "prompt": prompt,
                        "checkpoint_tokens": checkpoint,
                        "score": 0.3 + 0.1 * checkpoint + lift,
                    }
                )
                rows.append(
                    {
                        "model": model,
                        "task": "taskB",
                        "prompt": prompt,
                        "checkpoint_tokens": checkpoint,
                        "score": 0.35 + 0.08 * checkpoint + lift,
                    }
                )
    (tmp_path / "scores.jsonl").write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n"
    )
    meta = {
        "taskA": {"random_baseline": 0.25, "max_score": 1.0,
                  "category": "reasoning", "language": "lng0"},
        "taskB": {"random_baseline": 0.25, "max_score": 1.0,
                  "category": "knowledge", "language": "lng1"},
    }
    (tmp_path / "tasks.json").write_text(json.dumps(meta))
    (tmp_path / "corpus.jsonl").write_text("")
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "input": "corpus.jsonl",
                "output_root": "out",
                "language": "aaa_Latn",
                "eval_agg": {"scores": "scores.jsonl", "task_meta": "tasks.json"},
            }
        )
    )
    return config


def test_eval_agg_stage(tmp_path):
    assert main(["eval-agg", "--config", str(_eval_agg_config(tmp_path))]) == 0
    report = json.loads((tmp_path / "out" / "eval_agg" / "evalagg.json").read_text())
    assert report["task_selection"]["selected"] == ["taskA", "taskB"]
    assert report["multilingual"]["borda_ranking"] == ["m_plus", "m_base"]
    assert (tmp_path / "out" / "eval_agg" / "ranking.txt").exists()


_GRID_HEADER = "model,task,prompt,checkpoint_tokens,score\n"


@pytest.mark.parametrize(
    "name, text, expected",
    [
        # a truncated JSONL line: the file's line, not the row text's
        ("scores.jsonl",
         '{"model": "m", "task": "t", "prompt": "p", "checkpoint_tokens": 1, "score": 0.5}\n'
         "\n"
         '{"model": "m", "task": "t", "prompt": "p", "checkpoint_tokens": 2, "score": 0.6}\n'
         '{"model": "m", "task": \n',
         "scores.jsonl:4: malformed JSON: Expecting value (column 24)"),
        ("scores.jsonl",
         '{"model": "m", "task": "t", "prompt": "p", "checkpoint_tokens": 1, "score": null}\n',
         "scores.jsonl:1: score row is missing field 'score'"),
        ("scores.jsonl", '["m", "t", "p", 1, 0.5]\n',
         "scores.jsonl:1: score row is not a JSON object"),
        ("scores.jsonl",
         '{"model": "m", "task": "t", "prompt": ["p"], "checkpoint_tokens": 1, "score": 0.5}\n',
         "scores.jsonl:1: field 'prompt' must be a string or a number"),
        ("scores.jsonl",
         '{"model": "m", "task": "t", "prompt": "p", "checkpoint_tokens": 1e999, "score": 0.5}\n',
         "scores.jsonl:1: bad score row"),
        ("scores.csv", _GRID_HEADER + "m,t,p,1,0.5\nm,t,p,2\n",
         "scores.csv:3: score row is missing field 'score'"),
        ("scores.csv", _GRID_HEADER + "m,t,p,1,0.5\nm,mystery,p,2,0.5\n",
         "scores.csv:3: score references unknown task 'mystery'"),
        ("scores.csv", _GRID_HEADER + "m,t,p,1,nan\n",
         "scores.csv:2: non-finite score nan"),
    ],
    ids=["jsonl-truncated", "jsonl-null-score", "jsonl-not-object", "jsonl-list-prompt",
         "jsonl-overflowing-checkpoint", "csv-short-row", "csv-unknown-task", "csv-nan"],
)
def test_bad_score_row_exits_1_with_one_line(tmp_path, capsys, name, text, expected):
    (tmp_path / name).write_text(text)
    (tmp_path / "tasks.json").write_text(json.dumps({"t": {
        "random_baseline": 0.25, "max_score": 1.0, "category": "c", "language": "l"}}))
    (tmp_path / "corpus.jsonl").write_text("")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn",
        "eval_agg": {"scores": name, "task_meta": "tasks.json"},
    }))
    assert main(["eval-agg", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refinery: eval-agg failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{tmp_path / expected}" in err


def test_all_trains_the_classifier_once(tmp_path, monkeypatch):
    import random

    from refinery.lid import NgramLanguageClassifier

    config_path = build_pipeline_fixture(tmp_path, random.Random(3), n_docs=60)
    trained = []
    train = NgramLanguageClassifier.train.__func__

    def counting_train(cls, *args, **kwargs):
        trained.append(1)
        return train(cls, *args, **kwargs)

    monkeypatch.setattr(NgramLanguageClassifier, "train", classmethod(counting_train))
    assert main(["all", "--config", str(config_path), "--output", str(tmp_path / "o")]) == 0
    assert len(trained) == 1


class _CallLog(list):
    """One item per call; ``clear`` starts the count again."""

    def record(self) -> None:
        self.append(None)


def _count_calls(monkeypatch, function) -> _CallLog:
    """Every call to ``function``, through each refinery binding."""
    calls = _CallLog()

    def counting(arg):
        calls.record()
        return function(arg)

    for name, module in list(sys.modules.items()):
        if name.startswith("refinery") and vars(module).get(function.__name__) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def test_each_stage_segments_each_document_at_most_once(
    fixture_dir, tmp_path, monkeypatch
):
    root, config_path = fixture_dir
    config = load_config(config_path)
    calls = _count_calls(monkeypatch, refinery.documents.segment_text)
    current = None
    for stage in DOCUMENT_STAGES:
        calls.clear()
        report = run_stage(stage, config, root, input_path=current,
                           output_dir=tmp_path / stage)
        if stage in ("dedup", "package"):  # they never read segments
            assert len(calls) == 0, stage
        else:
            assert 0 < len(calls) <= report["input_documents"], stage
        if stage in ("lid", "dedup", "score"):
            current = tmp_path / stage / "documents.jsonl"


def test_all_parses_once_and_segments_each_document_at_most_once(
    fixture_dir, tmp_path, monkeypatch
):
    root, config_path = fixture_dir
    with (root / "corpus.jsonl").open(encoding="utf-8") as corpus:
        records = sum(1 for line in corpus if line.strip())
    parsed = _count_calls(monkeypatch, refinery.documents.parse_document_line)
    segmented = _count_calls(monkeypatch, refinery.documents.segment_text)
    assert main(["all", "--config", str(config_path), "--output", str(tmp_path)]) == 0
    assert len(parsed) == records
    assert 0 < len(segmented) <= records


def test_all_normalizes_text_by_text_only_the_seed_texts(fixture_dir, tmp_path, monkeypatch):
    # lid and dedup normalize in blocks (lid.normalize_many); only training
    # normalizes each seed text on its own.
    root, config_path = fixture_dir
    calls = _count_calls(monkeypatch, sys.modules["refinery.lid"].normalize_for_lid)
    assert main(["all", "--config", str(config_path), "--output", str(tmp_path / "out")]) == 0
    assert len(calls) == len(load_config(config_path).lid.seed_texts)


def test_all_on_a_corpus_lid_empties_writes_a_zero_report(tmp_path):
    import random

    config_path = build_pipeline_fixture(tmp_path, random.Random(5), n_docs=20)
    foreign = Document(id="f", lang=OMEGA_LANG, text=" ".join(OMEGA_WORDS[:8]))
    write_documents([foreign], tmp_path / "corpus.jsonl")
    out = tmp_path / "o"
    assert main(["all", "--config", str(config_path), "--output", str(out)]) == 0
    assert json.loads((out / "lid" / "report.json").read_text())["output_documents"] == 0
    report = json.loads((out / "analyze" / "analytics.json").read_text())
    assert report["summary"] == {
        "document_count": 0,
        "token_count": 0,
        "avg_document_length": 0.0,
        "share_percent": None,
    }
    for ratio in ("unique_segment_ratio", "large_document_ratio",
                  "short_segment_ratio", "in_language_ratio"):
        assert report[ratio] == 0.0, ratio


@pytest.mark.parametrize(
    "text, expected",
    [('{"t": {"random_baseline": 0.25,\n', "tasks.json: malformed JSON: "),
     ('["t"]', "tasks.json: task metadata must be a JSON object")],
    ids=["truncated", "not-an-object"],
)
def test_bad_task_meta_exits_1_with_one_line(tmp_path, capsys, text, expected):
    (tmp_path / "tasks.json").write_text(text)
    (tmp_path / "scores.jsonl").write_text("")
    (tmp_path / "corpus.jsonl").write_text("")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn",
        "eval_agg": {"scores": "scores.jsonl", "task_meta": "tasks.json"},
    }))
    assert main(["eval-agg", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{tmp_path / expected}" in err


@pytest.mark.parametrize(
    "stage, name, code",
    [("eval-agg", "cfg.yaml", 2), ("analyze", "stops.txt", 1), ("eval-agg", "scores.jsonl", 1),
     ("eval-agg", "scores.csv", 1), ("eval-agg", "tasks.json", 1), ("lid", "model.json", 1)],
    ids=["config", "stopwords", "scores-jsonl", "scores-csv", "task-meta", "classifier"],
)
def test_input_file_not_utf8_exits_with_one_line_naming_it(tmp_path, capsys, stage, name, code):
    scores = "scores.csv" if name == "scores.csv" else "scores.jsonl"
    files = {
        "cfg.yaml": json.dumps({
            "input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn",
            "analytics": {"stopword_file": "stops.txt"},
            "eval_agg": {"scores": scores, "task_meta": "tasks.json"},
            "lid": {"classifier_path": "model.json"},
        }) + "\n",
        "corpus.jsonl": '{"id":"a","lang":"aaa_Latn","text":"x"}\n',
        "stops.txt": "# frequent words\nthe\n",
        "tasks.json": json.dumps({"t": {"random_baseline": 0.25, "max_score": 1.0,
                                        "category": "c", "language": "l"}}) + "\n",
        # Enough rows that the bad byte lies past the score reader's first buffer.
        "scores.jsonl": "".join(json.dumps({"model": "m", "task": "t", "prompt": "p",
                                            "checkpoint_tokens": i, "score": 0.5}) + "\n"
                                for i in range(200)),
        "scores.csv": _GRID_HEADER + "".join(f"m,t,p,{i},0.5\n" for i in range(1000)),
        "model.json": json.dumps({"orders": [1], "log_probs": {"aaa_Latn": {"x": -1.0}},
                                  "fallback_log_probs": {"aaa_Latn": -2.0}}) + "\n",
    }
    for file, text in files.items():
        (tmp_path / file).write_bytes(text.encode() + (b"caf\xe9\n" if file == name else b""))
    assert main([stage, "--config", str(tmp_path / "cfg.yaml")]) == code
    valid = files[name]
    where = (f"{tmp_path / name}:{valid.count(chr(10)) + 1}: not valid UTF-8 "
             f"(byte offset {len(valid.encode()) + 3}: invalid continuation byte)")
    prefix = "config error" if code == 2 else f"{stage} failed"
    assert capsys.readouterr().err == f"refinery: {prefix}: {where}\n"


def _lid_config(tmp_path, input_name, **lid):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "input": input_name, "output_root": "out", "language": "aaa_Latn",
        "lid": lid or {"seed_texts": {"aaa_Latn": "seed.txt"}},
    }))
    (tmp_path / "seed.txt").write_text("badge cable media beach chalk flame\n")
    return config


@pytest.mark.parametrize(
    "name, data",
    [("corpus.jsonl.zst", b"\x28\xb5\x2f\xfd not a frame"),
     ("corpus.jsonl", '{"id":"a","lang":"aaa_Latn","text":"café"}\n'.encode("latin-1"))],
    ids=["corrupt-zstd", "not-utf8"],
)
def test_unreadable_input_exits_1_with_one_line(tmp_path, capsys, name, data):
    (tmp_path / name).write_bytes(data)
    assert main(["lid", "--config", str(_lid_config(tmp_path, name))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refinery: lid failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(tmp_path / name) in err


@pytest.mark.parametrize("text", ['{"log_probs": ', "[]"], ids=["truncated", "list"])
def test_malformed_classifier_file_exits_1_with_one_line(tmp_path, capsys, text):
    (tmp_path / "corpus.jsonl").write_text('{"id":"a","lang":"aaa_Latn","text":"x"}\n')
    (tmp_path / "model.json").write_text(text)
    config = _lid_config(tmp_path, "corpus.jsonl", classifier_path="model.json")
    assert main(["lid", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refinery: lid failed: cannot load classifier from ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(tmp_path / "model.json") in err


def test_classifier_without_labels_exits_1_with_one_line(tmp_path, capsys):
    (tmp_path / "corpus.jsonl").write_text('{"id":"a","lang":"aaa_Latn","text":"x"}\n')
    (tmp_path / "model.json").write_text(
        '{"log_probs": {}, "fallback_log_probs": {}, "orders": [1]}'
    )
    config = _lid_config(tmp_path, "corpus.jsonl", classifier_path="model.json")
    assert main(["lid", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"refinery: lid failed: cannot load classifier from {tmp_path / 'model.json'}: "
        "model has no labels\n"
    )


@pytest.mark.parametrize("orders", [[0], [-1], [1.5], ["a"], [], [True]],
                         ids=["zero", "negative", "float", "string", "empty", "bool"])
def test_classifier_with_bad_orders_exits_1_with_one_line(tmp_path, capsys, orders):
    (tmp_path / "corpus.jsonl").write_text('{"id":"a","lang":"aaa_Latn","text":"x"}\n')
    (tmp_path / "model.json").write_text(json.dumps(
        {"log_probs": {"aaa_Latn": {"x": -1.0}}, "fallback_log_probs": {"aaa_Latn": -2.0},
         "orders": orders}))
    config = _lid_config(tmp_path, "corpus.jsonl", classifier_path="model.json")
    assert main(["lid", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"refinery: lid failed: cannot load classifier from {tmp_path / 'model.json'}: "
        f"orders must be positive integers, not {orders!r}\n"
    )


def test_negative_dedup_bands_and_rows_are_a_config_error(tmp_path, capsys):
    config = _lid_config(tmp_path, "corpus.jsonl")
    (tmp_path / "corpus.jsonl").write_text('{"id":"a","lang":"aaa_Latn","text":"x"}\n')
    argv = ["dedup", "--config", str(config), "--set", "dedup.bands=-16",
            "--set", "dedup.rows=-16"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "refinery: config error: dedup: bands and rows must be >= 1\n")


@pytest.mark.parametrize(
    "seed, expected",
    [(b"caf\xe9 ol\xe9\n", "{seed}:1: not valid UTF-8 (byte offset 3: invalid continuation byte)"),
     (b"123 456\n", "seed texts are empty after normalization")],
    ids=["latin-1", "digits-only"],
)
def test_unusable_seed_file_exits_1_with_one_line(tmp_path, capsys, seed, expected):
    (tmp_path / "corpus.jsonl").write_text('{"id":"a","lang":"aaa_Latn","text":"x"}\n')
    config = _lid_config(tmp_path, "corpus.jsonl")
    (tmp_path / "seed.txt").write_bytes(seed)
    assert main(["lid", "--config", str(config)]) == 1
    expected = expected.format(seed=tmp_path / "seed.txt")
    assert capsys.readouterr().err == f"refinery: lid failed: {expected}\n"


@pytest.mark.parametrize("stage", ["lid", "all"])
def test_unpaired_surrogate_exits_1_with_one_line(tmp_path, capsys, stage):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id":"a","lang":"aaa_Latn","text":"badge cable"}\n'
                      '{"id":"b","lang":"aaa_Latn","text":"media \\ud800 beach"}\n')
    assert main([stage, "--config", str(_lid_config(tmp_path, "corpus.jsonl"))]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.endswith(f": {corpus}:2: field 'text' holds an unpaired surrogate '\\ud800', "
                        "which UTF-8 cannot encode\n")
    assert not (tmp_path / "out" / "lid").exists()


@pytest.mark.parametrize(
    "stage, field, value, message",
    [("package", "collection", 5, "field 'collection' must be a string"),
     ("analyze", "url", 5, "field 'url' must be a string or null"),
     ("analyze", "register", ["x"], "field 'register' must be a string or null")],
    ids=["collection", "url", "register"],
)
def test_ill_typed_document_field_exits_1_with_one_line(
    tmp_path, capsys, stage, field, value, message
):
    corpus = tmp_path / "corpus.jsonl"
    records = [{"id": "a", "lang": "aaa_Latn", "text": "badge cable"},
               {"id": "b", "lang": "aaa_Latn", "text": "media beach", field: value}]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    config = _lid_config(tmp_path, "corpus.jsonl")
    assert main([stage, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"refinery: {stage} failed: {corpus}:2: {message}\n"


@pytest.mark.parametrize("stage", ["dedup", "score", "package", "analyze"])
@pytest.mark.parametrize(
    "second, message",
    [({"id": "a", "lang": "aaa_Latn", "text": "media beach"},
      "duplicate document id 'a'"),
     ({"id": "b", "lang": "zzz_Latn", "text": "media beach"},
      "document 'b' has lang 'zzz_Latn', corpus is 'aaa_Latn' "
      "(only lid_rejected documents may differ)")],
    ids=["duplicate-id", "foreign-lang"],
)
def test_stage_after_lid_rejects_a_corpus_it_cannot_hold(
    tmp_path, capsys, stage, second, message
):
    corpus = tmp_path / "corpus.jsonl"
    records = [{"id": "a", "lang": "aaa_Latn", "text": "badge cable", "seg_langs": ["aaa_Latn"]},
               {**second, "seg_langs": ["aaa_Latn"]}]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    config = _lid_config(tmp_path, "corpus.jsonl")
    assert main([stage, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"refinery: {stage} failed: {corpus}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_stale_temp_name_in_output_dir_is_harmless(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(
        '{"id":"a","lang":"aaa_Latn","text":"badge cable media"}\n'
    )
    (tmp_path / "out" / "lid" / "documents.jsonl.tmp").mkdir(parents=True)
    assert main(["lid", "--config", str(_lid_config(tmp_path, "corpus.jsonl"))]) == 0
    assert [d.id for d in read_documents(tmp_path / "out" / "lid" / "documents.jsonl")] == ["a"]
    assert sorted(p.name for p in (tmp_path / "out" / "lid").iterdir()) == [
        "documents.jsonl", "documents.jsonl.tmp", "report.json"]


_REPO = Path(__file__).resolve().parents[1]


def _env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")])
    )
    return env


def _demo_fixture(tmp_path, docs: int):
    """Write scripts/make_fixture.py's demo corpus and config; the config's path."""
    subprocess.run(
        [sys.executable, str(_REPO / "scripts" / "make_fixture.py"), str(tmp_path),
         "--docs", str(docs)],
        check=True, env=_env_with_src(), capture_output=True,
    )
    return tmp_path / "pipeline.json"


def test_demo_fixture_script_runs_end_to_end(tmp_path):
    assert main(["all", "--config", str(_demo_fixture(tmp_path, 60))]) == 0
    assert (tmp_path / "out" / "analyze" / "analytics.json").exists()


def test_score_labels_unlabeled_input_as_lid_does(tmp_path):
    config = str(_demo_fixture(tmp_path, 60))
    assert main(["lid", "--config", config]) == 0
    labeled = tmp_path / "out" / "lid" / "documents.jsonl"
    docs = read_documents(labeled)
    assert any(len(set(doc.seg_langs)) > 1 for doc in docs)  # the labels matter
    unlabeled = tmp_path / "unlabeled.jsonl"
    write_documents([doc.replace(seg_langs=None) for doc in docs], unlabeled)

    outputs = []
    for path in (labeled, unlabeled):
        out = tmp_path / path.stem
        assert main(["score", "--config", config, "--set", "wds.min_level=5",
                     "--input", str(path), "--output", str(out)]) == 0
        outputs.append([
            [{k: v for k, v in json.loads(line).items() if k != "seg_langs"}
             for line in (out / name).read_text(encoding="utf-8").splitlines()]
            for name in ("documents.jsonl", "removed.jsonl")
        ])
    (kept, removed), unlabeled_outputs = outputs
    assert kept and removed
    assert unlabeled_outputs == [kept, removed]


def _edge_words(analytics_path) -> set[str]:
    """The words that start or end an n-gram of analytics.json's top n-grams."""
    top = json.loads(analytics_path.read_text(encoding="utf-8"))["top_ngrams"]
    return {word for pairs in top.values() for gram, _ in pairs
            for word in (gram.split()[0], gram.split()[-1])}


def test_stopword_file_words_start_and_end_no_top_ngram(tmp_path, capsys):
    config = str(_demo_fixture(tmp_path, 60))
    assert main(["lid", "--config", config]) == 0
    lid_out = str(tmp_path / "out" / "lid" / "documents.jsonl")
    # The demo corpus's two most frequent words, one of them in mixed case.
    (tmp_path / "stops.txt").write_text("# frequent words\n\nBlAme\nchalk\n", encoding="utf-8")
    edges = {}
    for name, overrides in (("plain", []), ("stops", ["--set", "analytics.stopword_file=stops.txt"])):
        out = tmp_path / name
        argv = ["analyze", "--config", config, "--input", lid_out, "--output", str(out)]
        assert main(argv + overrides) == 0
        edges[name] = _edge_words(out / "analytics.json")
    assert {"blame", "chalk"} <= edges["plain"]
    assert not {"blame", "chalk"} & edges["stops"]

    capsys.readouterr()
    assert main(["analyze", "--config", config, "--input", lid_out,
                 "--set", "analytics.stopword_file=missing.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refinery: config error: analytics.stopword_file: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("mode", ["global", "per_crawl"])
def test_all_never_loads_numpy_ma(tmp_path, mode):
    # np.unique loads numpy.ma on first use (about 2 MB of RSS); a demo
    # corpus of 200 documents has LSH band values that repeat.
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    if bare.stdout.strip() != "False":
        pytest.skip("importing numpy alone loads numpy.ma")
    config = _demo_fixture(tmp_path, 200)
    script = (
        "import sys\nfrom refinery.cli import main\n"
        f"code = main(['all', '--config', {str(config)!r}, '--set', 'dedup.mode={mode}'])\n"
        "print(code, 'numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                            capture_output=True, text=True, timeout=300)
    assert result.stdout.split() == ["0", "False"], result.stderr


def test_runs_from_a_json_config_load_neither_openssl_nor_pyyaml(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.7 MB of RSS) and PyYAML costs
    # about 1 MB; a JSON config without --set needs neither.
    unused = ("_hashlib", "hashlib", "yaml")
    probe = f"import sys; print(*(m for m in {unused!r} if m in sys.modules))"
    bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    if bare.stdout.strip():
        pytest.skip(f"a bare interpreter loads {bare.stdout.strip()}")
    (tmp_path / "demo").mkdir()
    (tmp_path / "grid").mkdir()
    configs = {"all": _demo_fixture(tmp_path / "demo", 200),
               "eval-agg": _eval_agg_config(tmp_path / "grid")}
    for stage, config in configs.items():
        script = ("import sys\nfrom refinery.cli import main\n"
                  f"code = main([{stage!r}, '--config', {str(config)!r}])\n"
                  f"print(code, *(m for m in {unused!r} if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                                capture_output=True, text=True, timeout=300)
        assert result.stdout.split() == ["0"], (stage, result.stdout, result.stderr)


def test_compare_runs_reports_identical_and_differing_trees(tmp_path):
    config = _demo_fixture(tmp_path, 60)
    changed = tmp_path / "changed"
    shutil.copytree(_REPO / "src" / "refinery", changed / "refinery")
    analytics = changed / "refinery" / "analytics.py"
    analytics.write_text(analytics.read_text(encoding="utf-8").replace(
        "TOP_NGRAMS = 5\n", "TOP_NGRAMS = 4\n"), encoding="utf-8")
    outputs = []
    for other in (_REPO / "src", changed):
        result = subprocess.run(
            [sys.executable, str(_REPO / "scripts" / "compare_runs.py"), "--runs", "1",
             str(_REPO / "src"), str(other), "--", "all", "--config", str(config)],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:4]] == [
            "A run 1", "B run 1", "A median", "B median"], result.stderr
        outputs.append((result.returncode, lines[-1]))
    assert outputs[0][0] == 0 and outputs[0][1].startswith("outputs identical: ")
    assert outputs[1] == (1, "outputs differ: analyze/analytics.json, analyze/analytics.txt")


def test_importing_the_cli_does_not_import_multiprocessing():
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, refinery.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                            check=True, capture_output=True, text=True, timeout=60)
    assert result.stdout.strip() == "False"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_importing_the_cli_leaves_one_thread():
    # Refinery calls no BLAS routine; capping OpenBLAS at one thread before
    # numpy loads spares the start-up cost of its thread pool.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    script = ("import refinery.cli\n"
              "print(next(line for line in open('/proc/self/status') if line.startswith('Threads:')))")
    result = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": str(src)},
                            check=True, capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["Threads:", "1"]
