import json
import math
import random
import sys
import unicodedata
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, seed, settings, strategies as st

from refinery import lid
from refinery.documents import Document
from refinery.lid import (
    LangPrediction,
    NgramLanguageClassifier,
    classify,
    normalize_for_lid,
    profile_segments,
)

_ALLOWED = {"Ll", "Lm", "Lo", "Mn", "Mc", "Me"}


def _oracle_normalize(text: str) -> str:
    # Character-by-character reference built straight off the category tables.
    collapsed = " ".join(text.split()).lower()
    out = []
    for ch in collapsed:
        if ch == " " or unicodedata.category(ch) in _ALLOWED:
            out.append(ch)
        else:
            out.append(" ")
    return " ".join("".join(out).split())


_BMP_CHUNK = 0x1000


@pytest.mark.parametrize("start", range(0, 0x10000, _BMP_CHUNK))
def test_every_bmp_code_point_matches_oracle(start):
    text = "".join(
        chr(cp)
        for cp in range(start, start + _BMP_CHUNK)
        if not 0xD800 <= cp <= 0xDFFF
    )
    assert normalize_for_lid(text) == _oracle_normalize(text)


def test_spec_example():
    assert normalize_for_lid("Hello, World! 123") == "hello world"


def test_empty():
    assert normalize_for_lid("") == ""


def test_punctuation_becomes_boundary():
    assert normalize_for_lid("foo,bar") == "foo bar"


@given(st.text(max_size=200))
def test_idempotent(text):
    once = normalize_for_lid(text)
    assert normalize_for_lid(once) == once


@given(st.text(max_size=200))
def test_matches_category_oracle(text):
    assert normalize_for_lid(text) == _oracle_normalize(text)


@given(st.text(max_size=200))
def test_character_class_invariants(text):
    out = normalize_for_lid(text)
    assert out == out.strip()
    assert "  " not in out
    for ch in out:
        cat = unicodedata.category(ch)
        assert not ch.isupper()
        assert cat != "Nd"
        assert not cat.startswith("P")
        assert not cat.startswith("S")
        assert ch == " " or cat in _ALLOWED


def _seed(words: list[str], rng: random.Random, n: int = 300) -> str:
    return " ".join(rng.choice(words) for _ in range(n))


@pytest.fixture
def two_alphabet_model(rng):
    # Disjoint alphabets: language A draws on a-f, language B on t-z.
    a_words = ["abada", "beef", "cafe", "dada", "fade", "decaf"]
    b_words = ["tutu", "wuzzy", "vuvu", "zyzzyva", "yutz", "xyst"]
    model = NgramLanguageClassifier.train(
        {"lang_a": _seed(a_words, rng), "lang_b": _seed(b_words, rng)}
    )
    return model, a_words, b_words


def test_separable_alphabets(two_alphabet_model, rng):
    model, a_words, b_words = two_alphabet_model
    for _ in range(50):
        text_a = " ".join(rng.sample(a_words, 3))
        text_b = " ".join(rng.sample(b_words, 3))
        assert classify(text_a, model).label == "lang_a"
        assert classify(text_b, model).label == "lang_b"


def test_confidence_in_unit_interval(two_alphabet_model):
    model, a_words, _ = two_alphabet_model
    pred = classify(" ".join(a_words), model)
    assert 0.0 <= pred.confidence <= 1.0


def test_empty_text_predicts_und(two_alphabet_model):
    model, _, _ = two_alphabet_model
    assert classify("", model) == LangPrediction("und", 0.0)
    assert classify(" 123 !!", model) == LangPrediction("und", 0.0)


def test_classify_idempotent_under_normalization(two_alphabet_model):
    model, a_words, _ = two_alphabet_model
    text = "Abada, BEEF! cafe 99"
    assert classify(text, model) == classify(normalize_for_lid(text), model)


def test_save_load_round_trip(two_alphabet_model, tmp_path):
    model, a_words, _ = two_alphabet_model
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NgramLanguageClassifier.load(path)
    assert loaded.labels == model.labels
    text = " ".join(a_words[:3])
    assert classify(text, loaded) == classify(text, model)


class _ruleclassifier:
    """Stub obeying the classifier contract: label by first letter."""

    labels = ("lang_a", "lang_b")

    def predict(self, normalized_text: str) -> LangPrediction:
        label = "lang_a" if normalized_text[0] in "abcdef" else "lang_b"
        return LangPrediction(label, 1.0)


def test_profile_segments_homogeneous():
    doc = Document(id="d", lang="lang_a", text="alpha\nbeta\ncedar")
    profile = profile_segments(doc, _ruleclassifier())
    assert profile.in_language_fraction == 1.0
    assert profile.seg_langs == ("lang_a", "lang_a", "lang_a")


def test_profile_segments_empty_document():
    doc = Document(id="d", lang="lang_a", text="  \n \n")
    profile = profile_segments(doc, _ruleclassifier())
    assert profile.in_language_fraction == 0.0
    assert profile.seg_langs == ()


def test_profile_segments_mixed_three_of_four():
    doc = Document(id="d", lang="lang_a", text="alpha\nbeta\ncedar\ntree")
    profile = profile_segments(doc, _ruleclassifier())
    labels = profile.seg_langs
    expected = sum(1 for lb in labels if lb == "lang_a") / len(labels)
    assert profile.in_language_fraction == expected == 0.75


def test_profile_fraction_permutation_invariant(rng):
    lines = ["alpha", "beta", "tree", "uvula", "cedar"]
    fractions = set()
    for _ in range(10):
        rng.shuffle(lines)
        doc = Document(id="d", lang="lang_a", text="\n".join(lines))
        fractions.add(profile_segments(doc, _ruleclassifier()).in_language_fraction)
    assert len(fractions) == 1


def _reference_predict(payload: dict, normalized_text: str) -> LangPrediction:
    """The dict-based scorer the gram-index matrix replaced, over a saved model:
    per label, the sum of count * log-prob over the grams, each order's grams
    in first-occurrence order."""
    grams: Counter = Counter()
    for n in payload["orders"]:
        for i in range(len(normalized_text) - n + 1):
            grams[normalized_text[i : i + n]] += 1
    labels = sorted(payload["log_probs"])
    scores = {}
    for label in labels:
        table = payload["log_probs"][label]
        miss = payload["fallback_log_probs"][label]
        scores[label] = sum(count * table.get(g, miss) for g, count in grams.items())
    best = max(labels, key=lambda lb: (scores[lb], lb))
    peak = scores[best]
    return LangPrediction(best, 1.0 / sum(math.exp(s - peak) for s in scores.values()))


_LATIN = "abcdefghijklmnopqrstuvwxyzéñ"
_CYRILLIC = "абвгдежзийклмнопрстуфхцчшщыэюя"
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
_MIXED_ALPHABET = _LATIN + _CYRILLIC + _GREEK + "ABCЖΩ0123456789 .,!-\n\t"


@pytest.fixture(scope="module")
def three_alphabet_model(tmp_path_factory):
    rng = random.Random(7)

    def seed_text(alphabet: str) -> str:
        return " ".join(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
            for _ in range(400)
        )

    model = NgramLanguageClassifier.train(
        {"lat": seed_text(_LATIN), "cyr": seed_text(_CYRILLIC), "grc": seed_text(_GREEK)}
    )
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save(path)
    return model, json.loads(path.read_text(encoding="utf-8"))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_MIXED_ALPHABET, min_size=1, max_size=300))
def test_predict_matches_reference_scorer(three_alphabet_model, text):
    model, payload = three_alphabet_model
    normalized = normalize_for_lid(text)
    if not normalized:
        return
    expected = _reference_predict(payload, normalized)
    got = model.predict(normalized)
    assert got.label == expected.label
    assert abs(got.confidence - expected.confidence) <= 1e-12
    assert model.predict(normalized) == got  # the memoized answer


def test_exact_tie_goes_to_larger_label():
    table = {"a": -1.0, "b": -2.0, "ab": -3.0}
    payload = {
        "orders": [1, 2],
        "log_probs": {"lang_x": table, "lang_y": dict(table)},
        "fallback_log_probs": {"lang_x": -5.0, "lang_y": -5.0},
    }
    model = NgramLanguageClassifier(
        payload["log_probs"], payload["fallback_log_probs"], (1, 2)
    )
    for text in ("ab", "ba zz", "q"):
        assert model.predict(text) == LangPrediction("lang_y", 0.5)
        assert _reference_predict(payload, text) == LangPrediction("lang_y", 0.5)


def test_memo_is_bounded(two_alphabet_model, monkeypatch):
    model, a_words, _ = two_alphabet_model
    monkeypatch.setattr(lid, "_MEMO_LIMIT", 3)
    for word in a_words:
        model.predict(word)
    assert len(model._memo) == 3
    assert model.predict(a_words[-1]) == model.predict(a_words[-1])


def test_long_inputs_are_not_memoized(two_alphabet_model):
    model, a_words, _ = two_alphabet_model
    short = " ".join(a_words)
    long = " ".join([short] * (lid._MEMO_MAX_CHARS // len(short) + 1))
    assert len(long) > lid._MEMO_MAX_CHARS
    model.predict(short)
    assert model.predict(long) == model.predict(long)
    assert list(model._memo) == [short]


def test_memo_bound_holds_under_threads(two_alphabet_model, monkeypatch, rng):
    model, a_words, b_words = two_alphabet_model
    texts = [" ".join(rng.choices(a_words + b_words, k=4)) for _ in range(400)]
    serial = NgramLanguageClassifier(model._log_probs, model._fallback, model._orders)
    expected = [serial.predict(t) for t in texts] * 3
    monkeypatch.setattr(lid, "_MEMO_LIMIT", 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(model.predict, texts * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(model._memo) == 50
    assert got == expected
