import json
import sys

import pytest

import refinery.cli
import refinery.documents
import refinery.parallel
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

# The module: the package attribute refinery.dedup is the dedup function.
refinery_dedup = sys.modules["refinery.dedup"]


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


def test_eval_agg_stage(tmp_path):
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
    assert main(["eval-agg", "--config", str(config)]) == 0
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


class _CallLog:
    """One byte per call appended to a file, so that calls made in forked
    worker processes are counted with the parent's."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def __len__(self) -> int:
        return self.path.stat().st_size

    def clear(self) -> None:
        self.path.write_bytes(b"")

    def record(self) -> None:
        with open(self.path, "ab") as fh:
            fh.write(b".")


def _count_calls(monkeypatch, function, log_path) -> _CallLog:
    """Every call to ``function``, through each refinery binding and in
    every process of the run."""
    calls = _CallLog(log_path)

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
    calls = _count_calls(monkeypatch, refinery.documents.segment_text,
                         tmp_path / "segment_text.calls")
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
    parsed = _count_calls(monkeypatch, refinery.documents.parse_document_line,
                          tmp_path / "parse_document_line.calls")
    segmented = _count_calls(monkeypatch, refinery.documents.segment_text,
                             tmp_path / "segment_text.calls")
    assert main(["all", "--config", str(config_path), "--output", str(tmp_path)]) == 0
    assert len(parsed) == records
    assert 0 < len(segmented) <= records


def test_all_normalizes_text_by_text_only_the_seed_texts(fixture_dir, tmp_path, monkeypatch):
    # lid and dedup normalize in blocks (lid.normalize_many); only training
    # normalizes each seed text on its own.
    root, config_path = fixture_dir
    calls = _count_calls(monkeypatch, sys.modules["refinery.lid"].normalize_for_lid,
                         tmp_path / "normalize_for_lid.calls")
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


@pytest.mark.parametrize(
    "seed, expected",
    [(b"caf\xe9 ol\xe9\n", "{seed}: not valid UTF-8 (byte offset 3: invalid continuation byte)"),
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


def _without_workers(tree: dict[str, bytes]) -> dict[str, bytes]:
    return {
        rel: json.dumps({k: v for k, v in json.loads(data).items() if k != "workers"},
                        sort_keys=True).encode()
        if rel.endswith("report.json") else data
        for rel, data in tree.items()
    }


def test_all_on_one_and_on_many_chunks_writes_the_same_tree(
    fixture_dir, tmp_path, monkeypatch
):
    root, config_path = fixture_dir
    trees = {}
    for cpus in (1, 3):
        monkeypatch.setattr(refinery.parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(refinery.parallel, "MIN_CHARS", 1000)
        out = tmp_path / f"cpus{cpus}"
        assert main(["all", "--config", str(config_path), "--output", str(out)]) == 0
        report = json.loads((out / "dedup" / "report.json").read_text())
        assert report["workers"] == cpus
        trees[cpus] = _without_workers(_tree(out))
    assert trees[1] == trees[3]


def test_killed_worker_exits_1_with_one_line(fixture_dir, tmp_path, capsys, monkeypatch):
    import os
    import signal

    root, config_path = fixture_dir
    lid_out = tmp_path / "lid"
    assert main(["lid", "--config", str(config_path), "--output", str(lid_out)]) == 0
    capsys.readouterr()
    shingle_hashes = refinery_dedup._shingle_hashes

    def die_in_a_worker(text, n, vocab):
        if refinery.parallel._in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        return shingle_hashes(text, n, vocab)

    monkeypatch.setattr(refinery.parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(refinery.parallel, "MIN_CHARS", 1000)
    monkeypatch.setattr(refinery_dedup, "_shingle_hashes", die_in_a_worker)
    out = tmp_path / "dedup"
    assert main(["dedup", "--config", str(config_path), "--input",
                 str(lid_out / "documents.jsonl"), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refinery: dedup failed: a worker process died: ")
    assert err.count("\n") == 1
    assert not (out / "report.json").exists()


def test_stale_temp_name_in_output_dir_is_harmless(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(
        '{"id":"a","lang":"aaa_Latn","text":"badge cable media"}\n'
    )
    (tmp_path / "out" / "lid" / "documents.jsonl.tmp").mkdir(parents=True)
    assert main(["lid", "--config", str(_lid_config(tmp_path, "corpus.jsonl"))]) == 0
    assert [d.id for d in read_documents(tmp_path / "out" / "lid" / "documents.jsonl")] == ["a"]
    assert sorted(p.name for p in (tmp_path / "out" / "lid").iterdir()) == [
        "documents.jsonl", "documents.jsonl.tmp", "report.json"]


def _demo_fixture(tmp_path, docs: int):
    """Write scripts/make_fixture.py's demo corpus and config; the config's path."""
    import os
    import subprocess
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "make_fixture.py"), str(tmp_path),
         "--docs", str(docs)],
        check=True, env=env, capture_output=True,
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
