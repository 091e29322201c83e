import json
import re
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

import pytest

from refinery.cli import main
from refinery.config import ConfigError, PipelineConfig, load_config


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
    payload["dedup"] = {"bands": 3, "rows": 5}  # 15 != 256
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
