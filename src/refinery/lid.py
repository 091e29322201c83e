"""Language-identification preprocessing and the pluggable classifier.

The normalizer lowercases, collapses whitespace, and strips digits and
non-word characters, yielding text suitable for any character-based
language classifier. ``normalize_for_lid`` defines it for one text;
``normalize_many`` gives the same result for many texts, lowercasing each
on its own and mapping the characters of about ``_BLOCK_CHARS`` of them at
once through an array over code points (``str.translate`` with a dict
costs about 100 ns per character of accented text). The built-in fallback
classifier is a character n-gram multinomial scorer trained on seed text
per language, so the whole pipeline runs offline; an external model can
replace it by implementing the two-method contract below.

The built-in scorer keeps its log-probabilities as one dense matrix with a
row per known n-gram and a column per label, plus a last row of unseen-gram
fallbacks: a prediction is one n-gram extraction and one gather over that
matrix (cf. the character n-gram features of fastText, Joulin et al. 2017).

``predict_documents`` scores whole corpora: every document (its normalized
segments joined by spaces) and every segment in one pass. It normalizes
the segments itself, so no caller can hand it the U+0000 and U+0001 that
mark where documents and segments end in its stream. Each order-n
window packs its code points into a ``uint64`` key, 21 bits each, and an
open-addressing hash table over the model's keys (``_KeyTable``) finds its
matrix row; one ``np.bincount`` per label sums the rows by document and
another by segment. The text is cut into blocks of ``_BLOCK_CHARS`` window
starts, each carrying the next (max order - 1) characters, so memory stays
a few MB whatever the corpus or document size. Those sums add the terms in
another order than ``predict``, so each text gets a bound on the
difference (``_rounding_bound``): n terms of at most M in magnitude,
added in any order, land within n * n * M * 2**-53 of the exact sum. A
text whose top-two gap, or whose confidence's distance to
``min_confidence``, is within the bound is decided again by ``predict``,
so labels and rejections equal ``predict``'s.
"""

from __future__ import annotations

import json
import math
import sys
import unicodedata
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, repeat, tee
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

# Document.segments is segment_text's one caller; the name stays bound here
# because the benchmark's tracer test expects it in this module.
from .documents import Document, segment_text, write_atomic  # noqa: F401

# Word characters are letters and combining marks. Uppercase and titlecase
# survivors of the lowercasing step (letters with no lowercase mapping,
# e.g. mathematical alphanumerics) are dropped with the other non-word
# characters so the output is uppercase-free by construction.
_KEEP_CATEGORIES = frozenset({"Ll", "Lm", "Lo", "Mn", "Mc", "Me"})

# Window starts per block of predict_documents, and characters per block of
# normalize_many: the kernel's arrays take a few hundred bytes per start, so
# a block's transient memory stays a few MB.
_BLOCK_CHARS = 1 << 14
# Bits per code point in a packed gram key; code points are below 2**21,
# so a uint64 key holds a gram of up to _KEY_ORDER of them.
_KEY_BITS = 21
_KEY_ORDER = 64 // _KEY_BITS
# Marks a free slot of a _KeyTable; packed keys use at most 63 bits.
_FREE = np.uint64(2**64 - 1)
# Odd multiplier of _KeyTable's hash (2**64 over the golden ratio).
_HASH_FACTOR = np.uint64(0x9E3779B97F4A7C15)


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


class _WordCodePoints:
    """``_WORD_CHARS`` as an array over code points, for numpy: word
    characters map to themselves, every other character to a space. It
    grows to the largest code point seen and fills each on first sight."""

    def __init__(self) -> None:
        # 0 marks a code point not yet seen: no code point maps to U+0000.
        self._table = np.zeros(1 << 8, dtype=np.uint32)

    def map(self, code: np.ndarray) -> np.ndarray:
        """The ``code`` points mapped through the table."""
        top = int(code.max(initial=0))
        if top >= len(self._table):
            grown = np.zeros(min(1 << top.bit_length(), sys.maxunicode + 1), dtype=np.uint32)
            grown[:len(self._table)] = self._table
            self._table = grown
        mapped = self._table[code]
        if not mapped.all():
            for point in set(code[mapped == 0].tolist()):
                self._table[point] = ord(_WORD_CHARS[point])
            mapped = self._table[code]
        return mapped


_WORD_CODE_POINTS = _WordCodePoints()


def normalize_for_lid(text: str) -> str:
    """Normalize text for language identification.

    Applies, in order: whitespace-run collapsing, lowercasing, replacement
    of digits and non-word characters by spaces, and a final whitespace
    pass with trimming. Idempotent.
    """
    collapsed = " ".join(text.split())
    kept = collapsed.lower().translate(_WORD_CHARS)
    return " ".join(kept.split())


def normalize_many(texts: Iterable[str]) -> Iterator[str]:
    """``normalize_for_lid`` of each of ``texts``, in order.

    Texts are read and normalized in blocks of at least ``_BLOCK_CHARS``
    characters (or the rest). Each text is lowercased on its own, so that
    a final sigma or an expanding ``İ`` lowers as it does alone; each block
    is then mapped at once, every character but a word character becoming
    a space, and each text's whitespace is collapsed. Whitespace is neither
    cased nor case-ignorable, so collapsing it after lowercasing, not
    before as ``normalize_for_lid`` does, changes nothing.
    """
    block: list[str] = []
    size = 0
    for text in texts:
        block.append(text.lower())
        size += len(block[-1])
        if size >= _BLOCK_CHARS:
            yield from _normalize_block(block)
            block, size = [], 0
    yield from _normalize_block(block)


def _normalize_block(lowered: list[str]) -> Iterator[str]:
    # With surrogatepass a lone surrogate is a code point like any other,
    # and no word character, as it is to str.translate.
    code = np.frombuffer("".join(lowered).encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)
    joined = _WORD_CODE_POINTS.map(code).tobytes().decode("utf-32-le")
    start = 0
    for text in lowered:
        end = start + len(text)
        yield " ".join(joined[start:end].split())
        start = end


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


def in_language_share(seg_langs: Sequence[str], lang: str) -> float:
    """Share of segment labels equal to ``lang``; 0.0 without segments."""
    if not seg_langs:
        return 0.0
    return sum(1 for label in seg_langs if label == lang) / len(seg_langs)


def profile_segments(doc: Document, model: LanguageClassifier) -> SegmentProfile:
    """Classify each segment independently and measure the in-language share."""
    labels = tuple(classify(seg.text, model).label for seg in doc.segments)
    return SegmentProfile(labels, in_language_share(labels, doc.lang))


def _char_ngrams(text: str, orders: tuple[int, ...]) -> Counter:
    """Counts of every n-gram of each order, keyed in first-occurrence order
    (all grams of the first order, then of the next)."""
    level = list(text)
    by_order = {1: level}
    for n in range(2, max(orders, default=1) + 1):
        # Each order-n gram is an order-(n-1) gram plus the next character.
        level = by_order[n] = list(map(add, level, text[n - 1 :]))
    return Counter(chain.from_iterable(by_order[n] for n in orders))


def _pack(gram: str) -> int:
    """A gram's key: its code points, _KEY_BITS bits each, first one highest.
    Code points in text are never 0, so keys of different orders differ."""
    key = 0
    for ch in gram:
        key = key << _KEY_BITS | ord(ch)
    return key


def _rounding_bound(windows: np.ndarray, magnitude: float) -> np.ndarray:
    """How far apart two float64 sums of the same ``windows`` terms, each at
    most ``magnitude`` in size, may be when added in different orders.

    Added in any order, n terms land within about n * 2**-53 times the sum
    of their magnitudes, here at most n * magnitude, of their exact sum
    (Higham 2002, section 4.2); ``predict``'s products of a count and a
    log-probability add one rounding per term. So two such sums differ by
    at most about 2 * n * n * magnitude * 2**-53, and the bound is twice
    that.
    """
    return (windows + 1) * windows * magnitude * 2.0**-51


def _blocks(parts: Iterable[str], size: int, overlap: int) -> Iterator[tuple[str, int]]:
    """Cut the concatenation of ``parts`` into blocks, each owning the window
    starts at its first ``size`` characters (the last block's may be fewer)
    and holding ``overlap`` characters more, so that every window of up to
    ``overlap + 1`` characters lies inside the block that owns its start."""
    held: list[str] = []
    count = 0
    for part in parts:
        held.append(part)
        count += len(part)
        if count >= size + overlap:
            text, start = "".join(held), 0
            while len(text) - start >= size + overlap:
                yield text[start:start + size + overlap], size
                start += size
            held, count = [text[start:]], len(text) - start
    text = "".join(held)
    for start in range(0, len(text), size):
        yield text[start:start + size + overlap], min(size, len(text) - start)


class _KeyTable:
    """An open-addressing hash table from distinct packed gram keys (below
    2**63, so none is ``_FREE``) to integer values.

    It has a power of two slots, at least four per key. A key's home slot is
    the top bits of key * ``_HASH_FACTOR`` modulo 2**64, and linear probing
    stores it in the first free slot from there on. The slots go on past the
    last stored key, so a probe never wraps around.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        bits = max(2, (4 * len(keys) - 1).bit_length())
        self._shift = np.uint64(64 - bits)
        home = self._home(keys)
        order = np.argsort(home, kind="stable")
        # Stored in order of home slot, a key goes to its home slot or, if
        # the key before took that or a later slot, to the slot after it.
        rank = np.arange(len(keys))
        slot = rank + np.maximum.accumulate(home[order] - rank)
        size = max(1 << bits, int(slot[-1]) + 2 if len(slot) else 0)
        self._keys = np.full(size, _FREE, dtype=np.uint64)
        self._keys[slot] = keys[order]
        self._values = np.zeros(size, dtype=values.dtype)
        self._values[slot] = values[order]

    def _home(self, keys: np.ndarray) -> np.ndarray:
        home = keys * _HASH_FACTOR
        home >>= self._shift
        return home.astype(np.intp)

    def get(self, keys: np.ndarray, default: int) -> np.ndarray:
        """Each key's value, or ``default`` for a key not in the table."""
        slot = self._home(keys)
        held = self._keys[slot]
        hit = held == keys
        found = self._values[slot]
        found[~hit] = default
        # Keys whose probe has met neither their key nor a free slot yet.
        probing = np.flatnonzero(~hit & (held != _FREE))
        slot = slot[probing]
        while len(probing):
            slot += 1
            held = self._keys[slot]
            hit = held == keys[probing]
            found[probing[hit]] = self._values[slot[hit]]
            going = ~hit & (held != _FREE)
            probing, slot = probing[going], slot[going]
        return found


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
        self._index: tuple[_KeyTable, np.ndarray, float] | None = None

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
        return LangPrediction(best, 1.0 / denom)

    def predict_documents(
        self, segments: Iterable[Sequence[str]], min_confidence: float
    ) -> Iterator[tuple[LangPrediction, tuple[str, ...], int]]:
        """Predict every document and label every segment in one pass.

        Each item of ``segments`` holds one document's segment texts, which
        the pass normalizes (``normalize_many``); the document's normalized
        text is its non-empty normalized segments joined by one space. Items
        are read as the pass reaches them. Yields, per document in order,
        its prediction, its segment labels ("und" for an empty segment) and
        how many of its texts ``predict`` decided again. Every label, and
        whether a document's confidence is below ``min_confidence``, equals
        ``predict``'s on the same text; a confidence may differ from
        ``predict``'s in its last bits.
        """
        # One normalize_many over every segment, read a block ahead of the pass.
        ahead, behind = tee(segments)
        normals = normalize_many(seg for segs in ahead for seg in segs)
        segments = ([next(normals) for _ in segs] for segs in behind)
        if max(self._orders, default=1) > _KEY_ORDER:
            # Keys cannot hold these grams: predict decides every text.
            for segs in segments:
                text = " ".join(seg for seg in segs if seg)
                labels = tuple(self.predict(seg).label for seg in segs)
                yield self.predict(text), labels, bool(text) + sum(map(bool, segs))
            return

        # Documents and pieces (non-empty segments) the pass has read and not
        # yet decided, and the labels of decided pieces whose document is not.
        docs: deque[tuple[Sequence[str], list[str]]] = deque()
        pieces: deque[str] = deque()
        piece_labels: deque[tuple[str, bool]] = deque()

        def stream() -> Iterator[str]:
            for segs in segments:
                text = [seg for seg in segs if seg]
                docs.append((segs, text))
                pieces.extend(text)
                if text:
                    yield "\x01".join(text) + "\x00"

        def document(
            segs: Sequence[str], prediction: LangPrediction, redone: int
        ) -> tuple[LangPrediction, tuple[str, ...], int]:
            labelled = [piece_labels.popleft() if seg else ("und", False) for seg in segs]
            redone += sum(again for _, again in labelled)
            return prediction, tuple(label for label, _ in labelled), redone

        labels = self._labels
        nothing = LangPrediction("und", 0.0)
        for doc_sums, piece_sums in self._block_sums(stream()):
            done = [pieces.popleft() for _ in range(len(piece_sums))]
            best, _, again = self._settle(piece_sums, [len(p) for p in done], None)
            piece_labels.extend((self.predict(piece).label, True) if redo else (labels[i], False)
                                for piece, i, redo in zip(done, best.tolist(), again.tolist()))
            ended, count = [], len(doc_sums)
            while count:
                ended.append(docs.popleft())
                count -= bool(ended[-1][1])
            best, conf, again = self._settle(
                doc_sums, [sum(map(len, text)) + len(text) - 1 for _, text in ended if text],
                min_confidence)
            verdicts = zip(best.tolist(), conf.tolist(), again.tolist())
            for segs, text in ended:
                if not text:
                    yield document(segs, nothing, 0)
                    continue
                i, confidence, redo = next(verdicts)
                if redo:
                    yield document(segs, self.predict(" ".join(text)), 1)
                else:
                    yield document(segs, LangPrediction(labels[i], confidence), 0)
        for segs, _ in docs:  # documents without text after the last one with text
            yield document(segs, nothing, 0)

    def _key_index(self) -> tuple[_KeyTable, np.ndarray, float]:
        """A table from the packed key of each known gram to its matrix row;
        the matrix as a [labels, rows] array, its last column holding the
        fallbacks; and the largest log-probability magnitude. Built on
        first use."""
        if self._index is None:
            # U+0000 packs to zero bits, so a gram holding one could share a
            # shorter gram's key; the windows holding one are discarded anyway.
            grams = [g for g in self._rows if 0 < len(g) <= _KEY_ORDER and "\x00" not in g]
            self._index = (
                _KeyTable(np.array([_pack(g) for g in grams], dtype=np.uint64),
                          np.array([self._rows[g] for g in grams], dtype=np.intp)),
                np.ascontiguousarray(self._matrix.T),
                float(np.abs(self._matrix).max()),
            )
        return self._index

    def _block_sums(self, stream: Iterable[str]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per block of ``stream``, the score sums of the documents and of the
        pieces that end in it, each a [texts, labels] array.

        The stream gives each document as its pieces joined by U+0001 and
        followed by U+0000; neither character occurs in normalized text. A
        window belongs to a document if it holds no U+0000, and to a piece if
        it holds neither; the others are summed into a last, discarded bin.
        The sums of the text open at a block's end carry over to the next.
        """
        table, columns, _ = self._key_index()
        unseen = len(self._rows)
        top = max(self._orders, default=1)
        carry_doc = np.zeros(len(self._labels))
        carry_piece = np.zeros(len(self._labels))
        for block, owned in _blocks(stream, _BLOCK_CHARS, top - 1):
            code = np.frombuffer(block.encode("utf-32-le"), dtype=np.uint32)
            # Documents and pieces begun before each position.
            doc_of = np.zeros(len(code) + 1, dtype=np.intp)
            np.cumsum(code == 0, out=doc_of[1:])
            piece_of = np.zeros(len(code) + 1, dtype=np.intp)
            np.cumsum(code <= 1, out=piece_of[1:])
            open_doc, open_piece = doc_of[owned], piece_of[owned]
            doc_sums = np.zeros((len(columns), open_doc + 2))
            piece_sums = np.zeros((len(columns), open_piece + 2))
            chars = code.astype(np.uint64)
            chars[code == 1] = ord(" ")
            key = chars
            for n in range(1, top + 1):
                if n > 1:
                    key = (key[:-1] << np.uint64(_KEY_BITS)) | chars[n - 1:]
                m = min(owned, len(key))
                doc_bin = np.where(doc_of[n:n + m] == doc_of[:m], doc_of[:m], open_doc + 1)
                piece_bin = np.where(piece_of[n:n + m] == piece_of[:m], piece_of[:m],
                                     open_piece + 1)
                at = table.get(key[:m], unseen)
                for _ in range(self._orders.count(n)):
                    for column, doc_row, piece_row in zip(columns, doc_sums, piece_sums):
                        terms = column[at]
                        doc_row += np.bincount(doc_bin, terms, open_doc + 2)
                        piece_row += np.bincount(piece_bin, terms, open_piece + 2)
            doc_sums[:, 0] += carry_doc
            piece_sums[:, 0] += carry_piece
            carry_doc = doc_sums[:, open_doc].copy()
            carry_piece = piece_sums[:, open_piece].copy()
            yield doc_sums[:, :open_doc].T, piece_sums[:, :open_piece].T

    def _settle(
        self, sums: np.ndarray, lengths: list[int], min_confidence: float | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each text's best label index and confidence from its score sums,
        and whether ``predict`` must decide it again: its top-two gap, or
        with ``min_confidence`` its confidence's distance to that, is within
        the rounding bound. A tie is within any bound, so ``predict``'s tie
        rule decides it."""
        n_labels = sums.shape[1]
        best = np.argmax(sums, axis=1)
        peak = sums.max(axis=1)
        runner_up = (np.partition(sums, n_labels - 2, axis=1)[:, n_labels - 2]
                     if n_labels > 1 else np.full(len(sums), -np.inf))
        chars = np.array(lengths, dtype=np.float64)
        windows = sum(np.maximum(chars - (n - 1), 0) for n in self._orders)
        bound = _rounding_bound(windows, self._key_index()[2])
        conf = 1.0 / np.exp(sums - peak[:, None]).sum(axis=1)
        # Written as "not clear of" so that a NaN sends the text to predict.
        again = ~(peak - runner_up > 2 * bound)
        if min_confidence is not None:
            slack = conf * (5 * bound + (n_labels + 2) * 2.0**-50)
            again |= ~(np.abs(conf - min_confidence) > slack)
        return best, conf, again

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
