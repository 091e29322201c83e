import json
import math
import random
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from refinery import lid
from refinery.documents import Document
from refinery.lid import (
    LangPrediction,
    NgramLanguageClassifier,
    classify,
    normalize_for_lid,
    normalize_many,
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


def _segment_normals(texts: list[str]) -> list[list[str]]:
    return [[normalize_for_lid(seg.text) for seg in Document(id="d", lang="x", text=t).segments]
            for t in texts]


def _predict_documents(model, segments, min_confidence: float):
    """predict_documents's predictions, segment labels and re-decided texts."""
    rows = list(model.predict_documents(segments, min_confidence))
    return [row[0] for row in rows], [row[1] for row in rows], sum(row[2] for row in rows)


def _check_against_predict(model, texts: list[str], min_confidence: float) -> int:
    """predict_documents's labels and verdicts against classify's per text;
    returns the number of texts it decided again."""
    predictions, seg_labels, rescored = _predict_documents(
        model, _segment_normals(texts), min_confidence)
    expected = [classify(t, model) for t in texts]
    assert [p.label for p in predictions] == [e.label for e in expected]
    assert ([p.confidence < min_confidence for p in predictions]
            == [e.confidence < min_confidence for e in expected])
    for got, e in zip(predictions, expected):
        assert abs(got.confidence - e.confidence) <= 1e-9
    assert seg_labels == [
        tuple(classify(seg.text, model).label
              for seg in Document(id="d", lang="x", text=t).segments)
        for t in texts
    ]
    return rescored


_MIXED_DOCUMENTS = st.lists(st.text(alphabet=_MIXED_ALPHABET, max_size=300), max_size=6)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(_MIXED_DOCUMENTS, st.integers(min_value=0))
def test_predict_documents_matches_predict(three_alphabet_model, texts, pick):
    model, _ = three_alphabet_model
    _check_against_predict(model, texts, 0.0)
    # A threshold planted at one text's own confidence, and just above it.
    confidences = [classify(t, model).confidence for t in texts]
    planted = confidences[pick % len(confidences)] if confidences else 0.5
    _check_against_predict(model, texts, planted)
    _check_against_predict(model, texts, float(np.nextafter(planted, 1.0)))


def test_predict_documents_normalizes_raw_segments(three_alphabet_model):
    # U+0000 and U+0001 end documents and segments in the pass's stream;
    # raw text holding them must not move those ends.
    model, _ = three_alphabet_model
    raw = [["Абв\x00где", "", "ABC\x01 déñ 12"], [], ["\x00\x01"], ["жзи αβγ", "Ωμέγα"]]
    normal = [[normalize_for_lid(seg) for seg in segs] for segs in raw]
    assert _predict_documents(model, raw, 0.5) == _predict_documents(model, normal, 0.5)
    _, labels, _ = _predict_documents(model, raw, 0.5)
    assert labels == [tuple(classify(seg, model).label for seg in segs) for segs in raw]


def test_planted_confidence_is_decided_by_predict(three_alphabet_model, rng):
    model, _ = three_alphabet_model
    # A document mixing two scripts, so that its confidence is not 1.0.
    text, confidence = next(
        (t, classify(t, model).confidence) for t in (
            "".join(rng.choice(_LATIN + _CYRILLIC) for _ in range(8)) for _ in range(1000))
        if 0.01 < classify(t, model).confidence < 0.99
    )
    for threshold, rejected in ((confidence, False), (float(np.nextafter(confidence, 1.0)), True)):
        (prediction,), _, rescored = _predict_documents(
            model, _segment_normals([text]), threshold)
        assert (prediction.confidence < threshold) is rejected
        assert rescored == 1  # the document; its one segment is far from a tie


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_documents_and_windows_straddle_blocks(three_alphabet_model, monkeypatch, block):
    model, _ = three_alphabet_model
    rng = random.Random(block)
    texts = ["".join(rng.choice(_MIXED_ALPHABET) for _ in range(rng.randint(0, 120)))
             for _ in range(25)] + ["", "\n\n", "!! 12", "a\n\nб\n7\nγ"]
    rng.shuffle(texts)
    monkeypatch.setattr(lid, "_BLOCK_CHARS", block)
    _check_against_predict(model, texts, 0.0)
    _check_against_predict(model, texts, 0.9)


def _tied_model(delta: float) -> NgramLanguageClassifier:
    """Two labels whose tables differ only in the log-probability of "b",
    by ``delta``: every text without a "b" is an exact tie."""
    table = {"a": -1.0, "b": -2.0, "c": -0.5, "ab": -3.0, "bc": -2.5, "abc": -4.0}
    other = dict(table, b=-2.0 + delta)
    return NgramLanguageClassifier({"lang_x": table, "lang_y": other},
                                   {"lang_x": -5.0, "lang_y": -5.0}, (1, 2, 3))


_ULP_OF_TWO = 2.0**-51


@pytest.mark.parametrize("delta, rescored", [
    # Every document and segment ties exactly or within the bound.
    (0.0, 14), (1e-300, 14), (_ULP_OF_TWO, 14), (-_ULP_OF_TWO, 14),
    # Those holding a "b" are clear of a tie: the 7 without one tie exactly.
    (1e-3, 7), (-1e-3, 7),
])
def test_exact_and_near_ties_are_decided_by_predict(delta, rescored):
    model = _tied_model(delta)
    texts = ["ab c\nca", "abcabc\nb", "cc\naa", "q", "b" * 50 + "\n" + "c" * 40]
    assert _check_against_predict(model, texts, 0.0) == rescored


def test_exact_tie_in_predict_documents_goes_to_larger_label():
    model = _tied_model(0.0)
    (prediction,), (labels,), _ = _predict_documents(model, [["ab", "ba zz"]], 0.0)
    assert prediction == LangPrediction("lang_y", 0.5)
    assert labels == ("lang_y", "lang_y")


def test_inflated_bound_sends_every_text_to_predict(three_alphabet_model, monkeypatch, rng):
    model, _ = three_alphabet_model
    texts = ["".join(rng.choice(_MIXED_ALPHABET) for _ in range(rng.randint(0, 150)))
             for _ in range(20)]
    segments = _segment_normals(texts)
    expected = _predict_documents(model, segments, 0.3)
    calls = []
    predict = model.predict
    monkeypatch.setattr(model, "predict", lambda text: calls.append(text) or predict(text))
    monkeypatch.setattr(lid, "_rounding_bound", lambda windows, magnitude: windows * 0 + 1e300)
    got = _predict_documents(model, segments, 0.3)
    pieces = [seg for segs in segments for seg in segs if seg]
    assert len(calls) == got[2] == sum(map(any, segments)) + len(pieces)
    assert got[0] == [predict(" ".join(filter(None, segs))) for segs in segments]
    assert [p.label for p in got[0]] == [p.label for p in expected[0]]
    assert got[1] == expected[1]


def test_orders_beyond_a_key_are_decided_by_predict():
    model = NgramLanguageClassifier.train(
        {"lang_a": "abada beef cafe dada fade decaf " * 20,
         "lang_b": "tutu wuzzy vuvu zyzzyva yutz xyst " * 20},
        orders=(1, 2, 4),
    )
    texts = ["beef cafe\nyutz", "", "xyst\n\n99\ndecaf fade"]
    assert _check_against_predict(model, texts, 0.5) == 2 + 4


def test_single_label_model():
    model = NgramLanguageClassifier({"only": {"a": -1.0}}, {"only": -2.0}, (1, 2))
    predictions, labels, rescored = _predict_documents(model, [["ab", ""], []], 0.0)
    assert predictions == [LangPrediction("only", 1.0), LangPrediction("und", 0.0)]
    assert labels == [("only", "und"), ()]
    assert rescored == 0


_SEGMENT_ALPHABET = "aZ İıΣσς\u0301\u20dd\r\x1c\x85\u2028\t\n .'"


@seed(20261018)
@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_SEGMENT_ALPHABET, max_size=80))
def test_document_normal_is_its_segment_normals_joined(text):
    (normals,) = _segment_normals([text])
    assert normalize_for_lid(text) == " ".join(n for n in normals if n)


_NORMALIZE_ALPHABET = "aZ0 7İΣσς\u0301\u20dd\r\n\x1c\x85\u00a0\u2028.'\U0001d400\U0001f600\ud800"


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=_NORMALIZE_ALPHABET, max_size=24), max_size=10))
def test_normalize_many_is_normalize_for_lid_of_each(block, texts):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lid, "_BLOCK_CHARS", block)
        assert list(normalize_many(texts)) == [normalize_for_lid(t) for t in texts]


def _sorted_lookup(keys, values, queries, default):
    """The lookup the hash table replaced: searchsorted over sorted keys."""
    order = np.argsort(keys)
    ordered = np.append(keys[order], np.uint64(2**64 - 1))
    at = np.searchsorted(ordered, queries)
    return np.where(ordered[at] == queries, np.append(values[order], default)[at], default)


def _same_home(count: int, table_keys: int, home: int) -> list[int]:
    """``count`` keys below 2**63 whose home slot, in a table of
    ``table_keys`` keys, is ``home``."""
    shift = 64 - max(2, (4 * table_keys - 1).bit_length())
    inverse = pow(int(lid._HASH_FACTOR), -1, 2**64)
    keys = ((inverse * ((home << shift) + j)) % 2**64 for j in range(10 * count))
    return [k for k in keys if k < 2**63][:count]


_LARGEST_KEY = lid._pack(chr(0x10FFFF) * lid._KEY_ORDER)


@pytest.mark.parametrize("case", ["random", "first-home", "last-home", "empty"])
def test_key_table_matches_sorted_lookup(case):
    rng = np.random.default_rng(len(case))
    n = {"random": 300, "empty": 0}.get(case, 40)
    if case == "random":
        keys = list(rng.integers(1, 2**63 - 1, n, dtype=np.int64).tolist())
        keys[:3] = [_LARGEST_KEY, lid._pack("\x01"), lid._pack("a")]
        unknown = [_LARGEST_KEY - 1, 2**63 - 1, 0] + rng.integers(0, 2**63, 200).tolist()
    elif case == "empty":
        keys, unknown = [], [0, 1, _LARGEST_KEY]
    else:
        # Every key has one home slot, so each probes past all keys before it;
        # from the last slot the run reaches past the table's power of two.
        home = 0 if case == "first-home" else max(4, 1 << (4 * n - 1).bit_length()) - 1
        same = _same_home(2 * n, n, home)
        keys, unknown = same[:n], same[n:] + [_LARGEST_KEY]
    keys = np.array(keys, dtype=np.uint64)
    assert len(np.unique(keys)) == len(keys)
    values = np.arange(len(keys), dtype=np.intp) * 7 + 3
    queries = np.concatenate([keys, np.array(unknown, dtype=np.uint64), keys[::-1]])
    got = lid._KeyTable(keys, values).get(queries, -1)
    np.testing.assert_array_equal(got, _sorted_lookup(keys, values, queries, -1))
    assert (got[:len(keys)] == values).all()
