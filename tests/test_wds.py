import math
import random
import unicodedata

import pytest

from refinery.documents import Corpus, Document
from refinery.wds import (
    WdsConfig,
    compute_subsignals,
    filter_by_level,
    score_document,
    wds_level,
)

from conftest import WORDS


def _doc(text, doc_id="d"):
    return Document(id=doc_id, lang="eng_Latn", text=text)


def _clean_text(n_tokens, lines=10, prefix="w"):
    """Distinct letter-only lines, n_tokens total: zero oddity subsignals."""
    per_line = max(1, n_tokens // lines)
    # digits in words would trip the digit ratio; spell the index in letters
    words = [
        prefix + "".join(chr(97 + int(c)) for c in str(i)) + "y" * (i % 3)
        for i in range(n_tokens)
    ]
    out_lines = [
        " ".join(words[i : i + per_line]) for i in range(0, n_tokens, per_line)
    ]
    return "\n".join(out_lines)


class TestLevel:
    def test_floor(self):
        assert wds_level(7.99) == 7

    def test_boundary_ten(self):
        assert wds_level(10.0) == 10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wds_level(-0.1)
        with pytest.raises(ValueError):
            wds_level(10.01)

    def test_matches_floor_oracle(self, rng):
        for _ in range(10_000):
            score = rng.uniform(0, 10)
            assert wds_level(score) == int(score)  # trunc == floor for score >= 0


class TestScore:
    def test_empty_document_scores_zero(self):
        report = score_document(_doc(""), seg_profile=1.0)
        assert report.score == 0.0
        assert report.level == 0

    def test_pristine_document_scores_ten(self):
        report = score_document(_doc(_clean_text(250)), seg_profile=1.0)
        assert report.subsignals["non_letter_ratio"] == 0.0
        assert report.oddity_penalty == 0.0
        assert report.length_score == 1.0
        assert report.score == 10.0
        assert report.level == 10

    def test_multiplicative_form(self, rng):
        for _ in range(200):
            doc = _doc(
                "\n".join(
                    " ".join(rng.choice(WORDS + ["42", "a,b", "http://x.com"]) for _ in range(rng.randint(1, 15)))
                    for _ in range(rng.randint(1, 10))
                )
            )
            p = rng.random()
            r = score_document(doc, p)
            expected = 10.0 * r.language_share_score * r.length_score * (1 - r.oddity_penalty)
            assert math.isclose(r.score, expected, rel_tol=0, abs_tol=1e-12)
            assert 0.0 <= r.score <= 10.0
            assert r.level == wds_level(r.score)

    def test_halving_language_share_halves_score(self, rng):
        for _ in range(50):
            doc = _doc(_clean_text(rng.randint(30, 400)))
            p = rng.uniform(0.2, 1.0)
            full = score_document(doc, p).score
            half = score_document(doc, p / 2).score
            assert math.isclose(half, full / 2, rel_tol=1e-12)

    def test_monotone_in_language_share(self, rng):
        for _ in range(100):
            doc = _doc(
                " ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 300)))
            )
            p1, p2 = sorted((rng.random(), rng.random()))
            assert score_document(doc, p1).score <= score_document(doc, p2).score

    def test_length_ramp(self):
        config = WdsConfig(min_length_tokens=20, target_length_tokens=200)
        below = score_document(_doc(_clean_text(10)), 1.0, config)
        middle = score_document(_doc(_clean_text(110)), 1.0, config)
        above = score_document(_doc(_clean_text(300)), 1.0, config)
        assert below.length_score == 0.0
        assert 0.0 < middle.length_score < 1.0
        assert above.length_score == 1.0
        assert math.isclose(middle.length_score, (110 - 20) / 180)

    def test_length_counts_the_text_tokens_across_any_whitespace(self):
        text = "a\tb\r\nc\x1cd  e\n\n \x85 \n  f g  "
        assert len(text.split()) == 7
        config = WdsConfig(min_length_tokens=3, target_length_tokens=11)
        assert score_document(_doc(text), 1.0, config).length_score == 0.5

    def test_duplicated_text_never_decreases_length_score(self, rng):
        for _ in range(50):
            text = _clean_text(rng.randint(5, 120))
            doubled = text + "\n" + text
            r1 = score_document(_doc(text), 0.8)
            r2 = score_document(_doc(doubled), 0.8)
            assert r2.length_score >= r1.length_score
            assert r2.language_share_score == r1.language_share_score

    def test_wrong_language_forces_low_score(self):
        report = score_document(_doc(_clean_text(250)), seg_profile=0.0)
        assert report.score == 0.0


class TestOddity:
    def test_digit_heavy_text_penalized(self):
        clean = score_document(_doc(_clean_text(100)), 1.0).score
        digits = " ".join(str(i) * 3 for i in range(100))
        noisy = score_document(_doc(digits), 1.0).score
        assert noisy < clean

    def test_repeated_lines_penalized(self):
        line = " ".join(WORDS[:10])
        repeated = "\n".join([line] * 20)
        distinct = _clean_text(200)
        assert (
            score_document(_doc(repeated), 1.0).score
            < score_document(_doc(distinct), 1.0).score
        )

    # The prefixes match case-insensitively, but only through str.lower:
    # "ſ" (U+017F) is no "s", although re.IGNORECASE without re.ASCII says it is.
    @pytest.mark.parametrize(
        "url, counted",
        [("http://spam.example", True), ("HTTP://x", True), ("Www.x", True),
         ("http\u017f://x", False)],
        ids=["plain", "upper-scheme", "mixed-www", "long-s"],
    )
    def test_url_density_counted(self, url, counted):
        text = f"see {url} now " * 50  # 150 tokens, 50 urls
        signals = compute_subsignals(_doc(text))
        assert signals["url_density"] == pytest.approx(100.0 * 50 / 150 if counted else 0.0)

    def test_char_ratios_match_the_per_character_loop(self, rng):
        from refinery.wds import _char_ratios

        def per_character(text):
            non_space = letters = digits = 0
            for ch in text:
                if ch.isspace():
                    continue
                non_space += 1
                cat = unicodedata.category(ch)
                if cat.startswith("L") or cat.startswith("M"):
                    letters += 1
                elif cat == "Nd":
                    digits += 1
            if non_space == 0:
                return 0.0, 0.0
            return (non_space - letters) / non_space, digits / non_space

        # Combining marks, non-ASCII digits (Arabic-Indic, Devanagari,
        # fullwidth), other numbers, odd whitespace and a lone surrogate
        # beside random code points from the whole range.
        pool = ("aZ9 \n\t\u00a0\u2028\u3000\u0301\u0903\u20dd\u0663\u0967"
                "\uff19\u00bd\u2167\u00e9\u4e2d\ud800.,;!\U0001d7d8")
        cases = ["", "   \n\t", "\u0301\u0301", "\u0663\u0664 12"]
        for _ in range(300):
            n = rng.randint(0, 60)
            cases.append("".join(
                rng.choice(pool) if rng.random() < 0.7 else chr(rng.randrange(0x110000))
                for _ in range(n)
            ))
        for text in cases:
            assert _char_ratios(text) == per_character(text), repr(text)

    def test_unknown_weight_key_rejected(self):
        with pytest.raises(ValueError, match="url_densty"):
            WdsConfig(weights={"url_densty": 0})

    def test_subsignal_monotonicity_via_penalty(self, rng):
        from refinery.wds import _oddity_penalty

        config = WdsConfig()
        base = {
            "non_letter_ratio": 0.1,
            "digit_ratio": 0.05,
            "repeated_line_ratio": 0.1,
            "url_density": 0.0,
            "avg_segment_tokens": 8.0,
        }
        for name in ("non_letter_ratio", "digit_ratio", "repeated_line_ratio", "url_density"):
            for _ in range(50):
                bumped = dict(base)
                bumped[name] = base[name] + rng.uniform(0, 2)
                assert _oddity_penalty(bumped, config) >= _oddity_penalty(base, config)
                assert 0.0 <= _oddity_penalty(bumped, config) <= 1.0

    def test_level_projection_monotone(self, rng):
        for _ in range(500):
            a, b = rng.uniform(0, 10), rng.uniform(0, 10)
            if a >= b:
                assert wds_level(a) >= wds_level(b)


class TestFilter:
    def _scored_corpus(self, rng, n=60):
        docs = [
            Document(
                id=f"d{i:03d}", lang="eng_Latn", text=f"text {i}", wds=rng.uniform(0, 10)
            )
            for i in range(n)
        ]
        return Corpus(docs, "eng_Latn")

    def test_min_level_zero_keeps_all(self, rng):
        corpus = self._scored_corpus(rng)
        retained, removed = filter_by_level(corpus, 0)
        assert retained == corpus.documents
        assert removed == []

    def test_min_level_eleven_removes_all(self, rng):
        corpus = self._scored_corpus(rng)
        retained, removed = filter_by_level(corpus, 11)
        assert retained == []
        assert len(removed) == len(corpus)
        assert all(d.removed_reason == "below_wds" for d in removed)

    def test_partitions_ids(self, rng):
        for _ in range(20):
            corpus = self._scored_corpus(rng, n=rng.randint(1, 80))
            level = rng.randint(0, 11)
            retained, removed = filter_by_level(corpus, level)
            assert len(retained) + len(removed) == len(corpus)
            assert {d.id for d in retained} | {d.id for d in removed} == {
                d.id for d in corpus
            }
            assert all(wds_level(d.wds) >= level for d in retained)
            assert all(wds_level(d.wds) < level for d in removed)

    def test_unscored_document_rejected(self):
        corpus = Corpus([Document(id="a", lang="l", text="t")], "l")
        with pytest.raises(ValueError, match="no wds score"):
            filter_by_level(corpus, 5)
