import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
import yaml

from refinery.cli import main
from refinery.config import ConfigError, PipelineConfig, _build, load_config


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _minimal(tmp_path):
    (tmp_path / "corpus.jsonl").write_text("")
    return {"input": "corpus.jsonl", "output_root": "out", "language": "aaa_Latn"}


def test_minimal_config(tmp_path):
    config = load_config(_write(tmp_path, _minimal(tmp_path)))
    assert config.language == "aaa_Latn"
    assert config.dedup.signature_length == 256
    assert config.wds.target_length_tokens == 200
    assert config.packaging.max_uncompressed_bytes == 1 << 30


def test_yaml_config(tmp_path):
    (tmp_path / "corpus.jsonl").write_text("")
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "input: corpus.jsonl\noutput_root: out\nlanguage: aaa_Latn\n"
        "dedup:\n  verify_threshold: 0.9\nwds:\n  min_level: 5\n"
    )
    config = load_config(path)
    assert config.dedup.verify_threshold == 0.9
    assert config.wds.min_level == 5


def test_missing_required_field_named(tmp_path):
    with pytest.raises(ConfigError, match="language"):
        load_config(_write(tmp_path, {"input": "x", "output_root": "y"}))


def test_unknown_top_level_field_named(tmp_path):
    payload = _minimal(tmp_path)
    payload["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        load_config(_write(tmp_path, payload))


def test_unknown_section_field_named(tmp_path):
    payload = _minimal(tmp_path)
    payload["dedup"] = {"nonsense_knob": 3}
    with pytest.raises(ConfigError, match="dedup.nonsense_knob"):
        load_config(_write(tmp_path, payload))


def test_invalid_parameter_ranges_diagnosed(tmp_path):
    payload = _minimal(tmp_path)
    payload["dedup"] = {"bands": 0, "rows": 16}
    with pytest.raises(ConfigError, match="dedup"):
        load_config(_write(tmp_path, payload))


def test_missing_input_path_rejected(tmp_path):
    payload = {"input": "absent.jsonl", "output_root": "out", "language": "l"}
    with pytest.raises(ConfigError, match="absent.jsonl"):
        load_config(_write(tmp_path, payload))


def test_missing_seed_text_rejected(tmp_path):
    payload = _minimal(tmp_path)
    payload["lid"] = {"seed_texts": {"aaa_Latn": "seeds/nope.txt"}}
    with pytest.raises(ConfigError, match="seed_texts"):
        load_config(_write(tmp_path, payload))


@pytest.mark.parametrize("key", ["input", "lid.classifier_path", "lid.seed_texts.aaa_Latn",
                                 "analytics.stopword_file", "eval_agg.scores",
                                 "eval_agg.task_meta"])
def test_directory_given_as_a_file_exits_2_naming_the_key(tmp_path, capsys, key):
    # A directory would fail only when the stage that reads it runs.
    (tmp_path / "folder").mkdir()
    path = _write(tmp_path, _minimal(tmp_path))
    assert main(["all", "--config", str(path), "--set", f"{key}=folder"]) == 2
    assert capsys.readouterr().err == (
        f"refinery: config error: {key}: path 'folder' is a directory, not a file\n")
    assert not (tmp_path / "out").exists()


def test_readme_config_block_shows_the_defaults():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    header = {key: raw[key] for key in ("input", "output_root", "language")}
    assert _build(PipelineConfig, raw, "") == PipelineConfig(**header)


def test_cli_overrides(tmp_path):
    path = _write(tmp_path, _minimal(tmp_path))
    config = load_config(
        path,
        overrides=[
            "dedup.verify_threshold=0.9",
            "packaging.compression_level=3",
            "wds.min_level=6",
        ],
    )
    assert config.dedup.verify_threshold == 0.9
    assert config.packaging.compression_level == 3
    assert config.wds.min_level == 6


def test_bad_override_rejected(tmp_path):
    path = _write(tmp_path, _minimal(tmp_path))
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        load_config(path, overrides=["no_equals_sign"])
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(path, overrides=["dedup.bogus=1"])


def test_eval_agg_thresholds_parsed(tmp_path):
    payload = _minimal(tmp_path)
    scores = tmp_path / "scores.jsonl"
    scores.write_text("")
    meta = tmp_path / "tasks.json"
    meta.write_text("{}")
    payload["eval_agg"] = {
        "scores": "scores.jsonl",
        "task_meta": "tasks.json",
        "thresholds": {"monotonicity": 0.7, "low_noise": 2.0},
    }
    config = load_config(_write(tmp_path, payload))
    assert config.eval_agg.thresholds.monotonicity == 0.7
    assert config.eval_agg.thresholds.low_noise == 2.0
    assert config.eval_agg.thresholds.prompt_lottery == 0.5


@pytest.mark.parametrize("thresholds, message", [
    ({"monotonicity": None}, "eval_agg.thresholds.monotonicity: expected a number, got None"),
    ({"prompt_lottery": "0.5"}, "eval_agg.thresholds.prompt_lottery: expected a number"),
    ({"low_noise": True}, "eval_agg.thresholds.low_noise: expected a number, got True"),
])
def test_eval_agg_thresholds_must_be_numbers(tmp_path, thresholds, message):
    payload = _minimal(tmp_path)
    payload["eval_agg"] = {"thresholds": thresholds}
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, payload))
    payload["eval_agg"] = {"thresholds": {"stable_pretraining": None, "non_randomness": 0}}
    assert load_config(_write(tmp_path, payload)).eval_agg.thresholds.non_randomness == 0


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"input": "corpus.jsonl",')
    with pytest.raises(ConfigError, match="cannot parse config .*line 1"):
        load_config(path)


def test_malformed_yaml_is_config_error(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("input: [corpus.jsonl\noutput_root: out\n")
    with pytest.raises(ConfigError, match="cannot parse config .*line 2") as info:
        load_config(path)
    assert "\n" not in str(info.value)


def test_malformed_override_value_is_config_error(tmp_path):
    path = _write(tmp_path, _minimal(tmp_path))
    with pytest.raises(ConfigError, match="override 'workers'"):
        load_config(path, overrides=["workers=["])


@pytest.mark.parametrize("workers", ["two", 1.5, True, 0, -1])
def test_workers_must_be_a_positive_integer(tmp_path, workers):
    payload = {**_minimal(tmp_path), "workers": workers}
    with pytest.raises(ConfigError, match="workers"):
        load_config(_write(tmp_path, payload))


def test_workers_is_an_unknown_field(tmp_path):
    for workers in (1, 2, "two", 1.5, True, 0, -1, None):
        payload = {**_minimal(tmp_path), "workers": workers}
        with pytest.raises(ConfigError, match="workers: unknown field"):
            load_config(_write(tmp_path, payload))


def test_sort_descending_is_an_unknown_field(tmp_path):
    # Shards are always sorted by score, highest first.
    for value in (True, False):
        payload = {**_minimal(tmp_path), "packaging": {"sort_descending": value}}
        with pytest.raises(ConfigError, match="^packaging.sort_descending: unknown field$"):
            load_config(_write(tmp_path, payload))


def test_signature_length_is_an_unknown_field(tmp_path, capsys):
    # The signature length is bands * rows; no config sets it.
    path = _write(tmp_path, {**_minimal(tmp_path), "dedup": {"signature_length": 256}})
    assert main(["all", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "refinery: config error: dedup.signature_length: unknown field\n")


@pytest.mark.parametrize("level", [0, 23, 99, "9", 9.0])
def test_compression_level_range_checked(tmp_path, level):
    payload = {**_minimal(tmp_path), "packaging": {"compression_level": level}}
    with pytest.raises(ConfigError, match="packaging.compression_level"):
        load_config(_write(tmp_path, payload))


@pytest.mark.parametrize("level", [1, 22])
def test_compression_level_bounds_accepted(tmp_path, level):
    payload = {**_minimal(tmp_path), "packaging": {"compression_level": level}}
    assert load_config(_write(tmp_path, payload)).packaging.compression_level == level


@pytest.mark.parametrize(
    "section, value, match",
    [
        ("wds", 5, "wds: expected a mapping"),
        ("eval_agg", [], "eval_agg: expected a mapping"),
        ("wds", {"min_level": "high"}, "wds.min_level: expected an integer"),
        ("wds", {"min_level": 11}, "wds.min_level: must be in"),
        ("wds", {"weights": {"url_densty": 0}}, "wds: unknown weights key 'url_densty'"),
        ("eval_agg", {"ranking_mode": "foo"}, "eval_agg: unknown ranking_mode 'foo'"),
    ],
)
def test_malformed_sections_named(tmp_path, section, value, match):
    payload = {**_minimal(tmp_path), section: value}
    with pytest.raises(ConfigError, match=match):
        load_config(_write(tmp_path, payload))


@pytest.mark.parametrize("stage, overrides, named", [
    ("all", ["wds.weights={url_densty: 0}"], "'url_densty'"),
    ("eval-agg", ["eval_agg.ranking_mode=foo"], "'foo'"),
    ("eval-agg", ["eval_agg.ranking_mode=foo", "eval_agg.run_selection=false"], "'foo'"),
], ids=["weights-typo", "ranking-mode", "ranking-mode-unused"])
def test_unknown_choice_exits_2_with_one_line(tmp_path, capsys, stage, overrides, named):
    path = _write(tmp_path, _minimal(tmp_path))
    args = [stage, "--config", str(path)]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("refinery: config error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err


# Wrong-typed `--set` values (read as YAML) for each kind of field; an
# `X | None` field takes X's values.
_WRONG_VALUES = {
    "section": ["5", "[a]"],
    dict: ["x", "[a]"],
    int: ["true", "2.5", "abc"],
    float: ["true", "abc", "[1]"],
    bool: ["1", "maybe"],
    str: ["5", "[a]"],
}


def _config_fields(dc_type=PipelineConfig, prefix=""):
    """(dotted key, annotation) for every config field, sections included."""
    hints = get_type_hints(dc_type)
    for f in fields(dc_type):
        annotation = hints[f.name]
        yield prefix + f.name, annotation
        if is_dataclass(annotation):
            yield from _config_fields(annotation, f"{prefix}{f.name}.")


def _kind(annotation):
    if is_dataclass(annotation):
        return "section"
    if get_origin(annotation) is dict:
        return dict
    (kind,) = [a for a in get_args(annotation) or (annotation,) if a is not type(None)]
    return kind


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}={value}")
    for key, annotation in _config_fields()
    for value in _WRONG_VALUES[_kind(annotation)]
])
def test_wrong_typed_field_exits_2_naming_the_key(tmp_path, capsys, key, value):
    path = _write(tmp_path, _minimal(tmp_path))
    assert main(["all", "--config", str(path), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"refinery: config error: {key}: expected ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("override, attribute, expected", [
    ("dedup.verify_threshold=1", "dedup.verify_threshold", 1),
    ("analytics.reference_total_tokens=null", "analytics.reference_total_tokens", None),
    ("wds.weights={url_density: 2, digit_ratio: 0.5}", "wds.weights",
     {"url_density": 2, "digit_ratio": 0.5}),
], ids=["float-takes-int", "optional-takes-null", "weights-mapping"])
def test_well_typed_values_load_unconverted(tmp_path, override, attribute, expected):
    config = load_config(_write(tmp_path, _minimal(tmp_path)), overrides=[override])
    value = attrgetter(attribute)(config)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("override, message", [
    ("wds.weights={url_density: x}", "wds.weights.url_density: expected a number, got 'x'"),
    ("lid.seed_texts={aaa_Latn: 5}", "lid.seed_texts.aaa_Latn: expected a string, got 5"),
    ("lid.seed_texts={1: a.txt}", "lid.seed_texts key: expected a string, got 1"),
])
def test_mapping_items_checked_one_by_one(tmp_path, override, message):
    path = _write(tmp_path, _minimal(tmp_path))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(path, overrides=[override])


@pytest.mark.parametrize("key, value, message", [
    pytest.param(key, value, message, id=f"{key}={value}")
    for key, value, message in [
        ("lid.min_confidence", ".nan", "expected a number, got nan"),
        ("lid.min_confidence", "2", "must be in [0, 1], got 2"),
        ("lid.min_confidence", "-0.5", "must be in [0, 1], got -0.5"),
        ("wds.non_letter_ratio_threshold", ".nan", "expected a number, got nan"),
        ("wds.digit_ratio_threshold", ".nan", "expected a number, got nan"),
        ("wds.weights.url_density", ".nan", "expected a number, got nan"),
    ]
])
def test_nan_or_out_of_range_number_exits_2_naming_the_key(tmp_path, capsys, key, value, message):
    path = _write(tmp_path, _minimal(tmp_path))
    assert main(["all", "--config", str(path), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"refinery: config error: {key}: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    pytest.param(key, value, message, id=f"{key}-{value}")
    for key, value, message in [
        ("packaging.max_uncompressed_bytes", 0,
         "packaging.max_uncompressed_bytes: must be at least 1, got 0"),
        ("packaging.max_uncompressed_bytes", -1,
         "packaging.max_uncompressed_bytes: must be at least 1, got -1"),
        ("analytics.reference_total_tokens", 0,
         "analytics.reference_total_tokens: must be at least 1, got 0"),
        ("analytics.reference_total_tokens", -5,
         "analytics.reference_total_tokens: must be at least 1, got -5"),
        # The default is 16 bands of 16 rows.
        ("dedup.bands", 10_000_000, "dedup: bands * rows must be at most 512, got 160000000"),
        ("dedup.rows", 10**12, "dedup: bands * rows must be at most 512, got 16000000000000"),
    ]
])
def test_value_that_could_only_fail_later_exits_2_before_any_stage(
        tmp_path, capsys, key, value, message):
    # A shard limit below 1 would fail package only after lid, dedup and
    # score had written their outputs; a reference total below 1 would
    # report a negative share, or none at all for 0; a signature this long
    # would fail dedup's allocation only after lid had run.
    path = _write(tmp_path, _minimal(tmp_path))
    assert main(["all", "--config", str(path), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"refinery: config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bands, rows", [(512, 1), (32, 16), (1, 512)])
def test_longest_signature_loads(tmp_path, bands, rows):
    config = load_config(_write(tmp_path, _minimal(tmp_path)),
                         overrides=[f"dedup.bands={bands}", f"dedup.rows={rows}"])
    assert config.dedup.signature_length == 512


@pytest.mark.parametrize("key", ["packaging.max_uncompressed_bytes",
                                 "analytics.reference_total_tokens"])
def test_least_allowed_value_loads(tmp_path, key):
    config = load_config(_write(tmp_path, _minimal(tmp_path)), overrides=[f"{key}=1"])
    assert attrgetter(key)(config) == 1


# Each name a stage module takes from config, by the module that re-exports it.
_MOVED = {"dedup": ("DedupConfigError", "DedupParams"),
          "wds": ("PENALIZED_SUBSIGNALS", "WdsConfig"),
          "packaging": ("PackagingConfig",),
          "evalagg": ("RANKING_MODES", "SelectionThresholds")}


def test_loading_a_config_loads_no_stage_and_no_numpy(tmp_path):
    # Each short job pays for the modules its start-up imports; a config
    # alone needs neither numpy nor any stage.
    path = _write(tmp_path, _minimal(tmp_path))
    unwanted = ("numpy", "ctypes", *(f"refinery.{m}" for m in (
        "lid", "dedup", "evalagg", "packaging", "wds", "analytics", "stopwords", "zstdio")))
    script = textwrap.dedent(f"""\
        import importlib, sys
        import refinery.config
        refinery.config.load_config({str(path)!r})
        print(*(m for m in {unwanted!r} if m in sys.modules))
        for module, names in {_MOVED!r}.items():
            stage = importlib.import_module("refinery." + module)
            print(module, all(getattr(stage, n) is getattr(refinery.config, n) for n in names))
        """)
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [""] + [f"{m} True" for m in _MOVED], result.stderr
