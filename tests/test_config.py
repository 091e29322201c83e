import json

import pytest

from refinery.config import ConfigError, load_config


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
    assert config.wds.scoring.target_length_tokens == 200
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
    ],
)
def test_malformed_sections_named(tmp_path, section, value, match):
    payload = {**_minimal(tmp_path), section: value}
    with pytest.raises(ConfigError, match=match):
        load_config(_write(tmp_path, payload))
