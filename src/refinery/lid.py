"""Language-identification preprocessing and the n-gram classifier.

The normalizer lowercases, collapses whitespace, and strips digits and
non-word characters, yielding text suitable for any character-based
language classifier. It maps characters through one array over code
points, filled from ``unicodedata`` on first sight, so that it works on
many texts at once (``str.translate`` with a dict costs about 100 ns per
character of accented text): ``normalize_many`` normalizes about
``_BLOCK_CHARS`` characters of texts per step, lowercasing each text on
its own, and ``normalize_for_lid`` is its one-text case. The classifier
is a character n-gram multinomial scorer trained on seed text per
language, so the whole pipeline runs offline.

The scorer keeps its log-probabilities as one dense matrix with a
row per known n-gram and a column per label, plus a last row of unseen-gram
fallbacks: a prediction is one n-gram extraction and one gather over that
matrix (cf. the character n-gram features of fastText, Joulin et al. 2017).

``predict_documents`` scores whole corpora: every document (its normalized
segments joined by spaces) and every segment. It reads whole documents
into batches of about ``_BATCH_CHARS`` characters. A batch normalizes each
distinct raw segment once and scores each distinct non-empty normal form,
a piece, once; a document's sums are its pieces' sums plus those of its
junction windows, the windows holding a space that joins two pieces. Those
are the windows holding a join marked U+0001 in the document written with
each piece longer than 2 * (max order - 1) characters cut to its first and
last (max order - 1). Pieces and documents are summed by one kernel over
a stream of texts each ended by U+0000 (``_sums``); the batch normalizes
its segments itself, so no caller can hand it either character. Each
order-n window packs its code points into a ``uint64`` key, 21 bits each,
an open-addressing hash table over the model's keys (``_KeyTable``) finds
its matrix row, and one ``np.bincount`` per order and label sums the rows
by text. The stream is cut into blocks of ``_BLOCK_CHARS`` window starts,
each carrying the next (max order - 1) characters, so the kernel's memory
stays a few MB whatever the text size. Those sums add the terms in another order than
``predict``, so each text gets a bound on the difference
(``_rounding_bound``): n terms of at most M in magnitude, added in any
order, land within n * n * M * 2**-53 of the exact sum. A text whose
top-two gap, or whose confidence's distance to ``min_confidence``, is
within the bound is decided again by ``predict``, unless its lead makes
both confidences exactly 1.0, so labels and rejections equal
``predict``'s.
"""

from __future__ import annotations

import json
import math
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Document.segments is segment_text's one caller; the name stays bound here
# because the benchmark's tracer test expects it in this module.
from .documents import Document, DocumentError, read_utf8, segment_text, write_atomic  # noqa: F401

# Word characters are letters and combining marks. Uppercase and titlecase
# survivors of the lowercasing step (letters with no lowercase mapping,
# e.g. mathematical alphanumerics) are dropped with the other non-word
# characters so the output is uppercase-free by construction.
_KEEP_CATEGORIES = frozenset({"Ll", "Lm", "Lo", "Mn", "Mc", "Me"})

# Window starts per block of predict_documents' kernel and of _char_ngrams,
# and characters per block of normalize_many: the kernel's arrays take a few
# hundred bytes per start, so a block's transient memory stays a few MB.
_BLOCK_CHARS = 1 << 14
# Segment characters per batch of predict_documents: a batch ends with the
# document that brings it to this size, so a larger document is one batch.
_BATCH_CHARS = 4 * _BLOCK_CHARS
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


class _WordCodePoints:
    """An array over code points, for numpy: word characters map to
    themselves, every other character to a space. It grows to the largest
    code point seen and fills each on first sight."""

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
                keep = unicodedata.category(chr(point)) in _KEEP_CATEGORIES
                self._table[point] = point if keep else ord(" ")
            mapped = self._table[code]
        return mapped


_WORD_CODE_POINTS = _WordCodePoints()


def _batches(items: Iterable, size: int, length: Callable) -> Iterator[list]:
    """``items`` in order, in lists that end with the item bringing their
    total ``length`` to ``size`` (the last list may hold less)."""
    batch: list = []
    total = 0
    for item in items:
        batch.append(item)
        total += length(item)
        if total >= size:
            yield batch
            batch, total = [], 0
    if batch:
        yield batch


def normalize_for_lid(text: str) -> str:
    """Normalize text for language identification.

    Lowercases the text, replaces digits and non-word characters by spaces,
    and collapses every whitespace run to one space, trimmed at both ends:
    the same as collapsing whitespace before lowercasing. Idempotent.
    """
    return next(_normalize_block([text.lower()]))


def normalize_many(texts: Iterable[str]) -> Iterator[str]:
    """``normalize_for_lid`` of each of ``texts``, in order.

    Texts are read and normalized in blocks of at least ``_BLOCK_CHARS``
    characters (or the rest).
    """
    for block in _batches(texts, _BLOCK_CHARS, len):
        yield from _normalize_block([text.lower() for text in block])


def _normalize_block(lowered: list[str]) -> Iterator[str]:
    """The normal form of each of ``lowered``, texts lowercased each on its
    own, so that a final sigma or an expanding ``İ`` lowers as it does
    alone. The block is mapped at once, every character but a word
    character becoming a space, and each text's whitespace is collapsed.
    Whitespace is neither cased nor case-ignorable, so collapsing it after
    lowercasing, not before, changes nothing."""
    # With surrogatepass a lone surrogate is a code point like any other,
    # and no word character.
    code = np.frombuffer("".join(lowered).encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)
    joined = _WORD_CODE_POINTS.map(code).tobytes().decode("utf-32-le")
    start = 0
    for text in lowered:
        end = start + len(text)
        yield " ".join(joined[start:end].split())
        start = end


def classify(text: str, model: NgramLanguageClassifier) -> LangPrediction:
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


def profile_segments(doc: Document, model: NgramLanguageClassifier) -> SegmentProfile:
    """Classify each segment independently and measure the in-language share."""
    labels = tuple(classify(seg, model).label for seg in doc.segments)
    return SegmentProfile(labels, in_language_share(labels, doc.lang))


def _char_ngrams(text: str, orders: tuple[int, ...]) -> Counter:
    """Counts of every n-gram of each order, keyed in first-occurrence order
    (all grams of the first order, then of the next). Each order is counted
    ``_BLOCK_CHARS`` windows at a time through lazy maps, so beyond the
    counts only a block's slices of the text are held."""
    counts: Counter = Counter()
    for n in orders:
        for lo in range(0, len(text) - n + 1, _BLOCK_CHARS):
            hi = lo + _BLOCK_CHARS
            grams = text[lo:hi]
            for k in range(1, n):
                # Each order-(k+1) gram is an order-k gram plus the next character.
                grams = map(add, grams, text[lo + k : hi + k])
            counts.update(grams)
    return counts


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
        if not orders or not all(isinstance(n, int) and not isinstance(n, bool) and n > 0
                                 for n in orders):
            raise ClassifierError(f"orders must be positive integers, not {list(orders)!r}")
        unscored = [label for label in sorted(log_probs) if label not in fallback_log_probs]
        if unscored:
            raise ClassifierError(f"fallback_log_probs has no entry for label {unscored[0]!r}")
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
        finite = np.isfinite(matrix).all(axis=0)
        if not finite.all():
            label = self._labels[int(np.argmin(finite))]
            raise ClassifierError(f"label {label!r} has a non-finite log-probability")
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
        """Predict every document and label every segment.

        Each item of ``segments`` holds one document's segment texts, which
        the pass normalizes (``normalize_many``); the document's normalized
        text is its non-empty normalized segments, its pieces, joined by one
        space. Items are read in batches of whole documents, each ending
        with the document that brings its segments to ``_BATCH_CHARS``
        characters. Yields, per document in order, its prediction, its
        segment labels ("und" for an empty segment) and how many of its
        texts ``predict`` decided again, counting each occurrence of a
        piece. Every label, and whether a document's confidence is below
        ``min_confidence``, equals ``predict``'s on the same text; a
        confidence may differ from ``predict``'s in its last bits.
        """
        nothing = ("und", 0.0, False)
        for batch in _batches(segments, _BATCH_CHARS, lambda segs: sum(map(len, segs))):
            # Each distinct raw segment is normalized once, and each distinct
            # piece numbered once: its row in ``pieces``, or -1 if empty.
            raw = list(dict.fromkeys(chain.from_iterable(batch)))
            number: dict[str, int] = {}
            row_of = {seg: number.setdefault(normal, len(number)) if normal else -1
                      for seg, normal in zip(raw, normalize_many(raw))}
            pieces = list(number)
            docs = [[row_of[seg] for seg in segs] for segs in batch]
            del raw, number, row_of  # a few MB each on one long document
            # The documents with text, as the rows of their pieces.
            texts = [kept for kept in ([r for r in segs if r >= 0] for segs in docs) if kept]
            chars = np.fromiter(map(len, pieces), dtype=np.float64, count=len(pieces))
            rows = np.fromiter(chain.from_iterable(texts), dtype=np.intp)
            owner = np.repeat(np.arange(len(texts)), [len(t) for t in texts])
            piece_sums = doc_sums = None
            if max(self._orders) <= _KEY_ORDER:  # else keys cannot hold the grams
                piece_sums = self._sums("\x00".join(chain(pieces, [""])))
                doc_sums = self._document_sums(piece_sums, pieces, texts, rows, owner)
            labels, _, again = self._settle(piece_sums, chars, pieces.__getitem__, None)
            doc_chars = np.bincount(owner, chars[rows], len(texts)) + [len(t) - 1 for t in texts]
            documents = zip(*self._settle(doc_sums, doc_chars,
                                          lambda i: " ".join(pieces[r] for r in texts[i]),
                                          min_confidence))
            # Row -1: an empty segment.
            labels.append("und")
            again.append(False)
            for segs in docs:
                label, confidence, redone = (next(documents) if max(segs, default=-1) >= 0
                                             else nothing)
                yield (LangPrediction(label, confidence), tuple(map(labels.__getitem__, segs)),
                       redone + sum(map(again.__getitem__, segs)))

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

    def _document_sums(
        self, piece_sums: np.ndarray, pieces: list[str], texts: list[list[int]],
        rows: np.ndarray, owner: np.ndarray,
    ) -> np.ndarray:
        """The [documents, labels] score sums of ``texts``, documents given as
        the rows of their ``pieces`` (flattened into ``rows``, ``owner``
        holding each row's document): a document's pieces' ``piece_sums``
        plus the sums of its windows holding a join. Those are summed in
        ``marked`` mode over the documents written as their pieces joined by
        U+0001, each piece longer than 2 * (max order - 1) characters cut to
        its first and last (max order - 1): a window holding a join reaches
        no further into a piece, and one across a cut holds no join.
        """
        reach = max(self._orders) - 1
        # p[len(p) - reach:], not p[-reach:], which at reach 0 keeps all of p.
        ends = [p if len(p) <= 2 * reach else p[:reach] + p[len(p) - reach:] for p in pieces]
        sums = self._sums("".join("\x01".join(map(ends.__getitem__, t)) + "\x00" for t in texts),
                          marked=True)
        np.add.at(sums, owner, piece_sums[rows])
        return sums

    def _sums(self, stream: str, marked: bool = False) -> np.ndarray:
        """The [texts, labels] score sums of each U+0000-terminated text of
        ``stream``.

        A window holding U+0000 belongs to no text, nor, if ``marked``, one
        holding no U+0001; the others belong to the text they lie in, U+0001
        counting as a space. Normalized text holds neither character. The
        windows of no text are dropped, and the terms of the others summed
        by one ``np.bincount`` per order and label, with one bin per text.
        The stream is summed a block of ``_BLOCK_CHARS`` window starts
        at a time, and the sums of the text open at a block's end carry over
        to the next.
        """
        table, columns, _ = self._key_index()
        unseen = len(self._rows)
        top = max(self._orders)
        # One bin past the last text: the open text after the stream's end.
        sums = np.zeros((len(columns), stream.count("\x00") + 1))
        first = 0
        for start in range(0, len(stream), _BLOCK_CHARS):
            block = stream[start:start + _BLOCK_CHARS + top - 1]
            owned = min(_BLOCK_CHARS, len(stream) - start)
            code = np.frombuffer(block.encode("utf-32-le"), dtype=np.uint32)
            # Texts, and with ``marked`` joins, begun before each position.
            text_of = np.zeros(len(code) + 1, dtype=np.intp)
            np.cumsum(code == 0, out=text_of[1:])
            chars = code.astype(np.uint64)
            if marked:
                join = code == 1
                joins = np.zeros(len(code) + 1, dtype=np.intp)
                np.cumsum(join, out=joins[1:])
                chars[join] = ord(" ")
            open_text = text_of[owned]
            block_sums = np.zeros((len(columns), open_text + 1))
            key = chars
            for n in range(1, top + 1):
                if n > 1:
                    key = (key[:-1] << np.uint64(_KEY_BITS)) | chars[n - 1:]
                repeats = self._orders.count(n)
                if not repeats:
                    continue
                m = min(owned, len(key))
                held = text_of[n:n + m] == text_of[:m]
                if marked:
                    held &= joins[n:n + m] != joins[:m]
                held = np.flatnonzero(held)
                bins = text_of[held]
                at = table.get(key[held], unseen)
                for _ in range(repeats):
                    for column, row in zip(columns, block_sums):
                        row += np.bincount(bins, column[at], open_text + 1)
            # The open text's bin holds its sums from earlier blocks, every
            # later bin zero.
            sums[:, first:first + open_text + 1] += block_sums
            first += open_text
        return sums[:, :-1].T

    def _settle(
        self, sums: np.ndarray | None, chars: np.ndarray, text: Callable[[int], str],
        min_confidence: float | None,
    ) -> tuple[list[str], list[float], list[bool]]:
        """Each text's label and confidence from its score ``sums``, and
        whether ``predict`` decided it again (``text(i)`` is the i-th text,
        of ``chars[i]`` characters): with no sums, or when its top-two gap,
        or with ``min_confidence`` its confidence's distance to that unless
        it is surely 1.0, is within the rounding bound. A tie is within any
        bound, so ``predict``'s tie rule decides it."""
        if sums is None:
            best, conf = np.zeros(len(chars), dtype=np.intp), np.zeros(len(chars))
            again = np.ones(len(chars), dtype=bool)
        else:
            n_labels = sums.shape[1]
            best = np.argmax(sums, axis=1)
            peak = sums.max(axis=1)
            runner_up = (np.partition(sums, n_labels - 2, axis=1)[:, n_labels - 2]
                         if n_labels > 1 else np.full(len(sums), -np.inf))
            windows = sum(np.maximum(chars - (n - 1), 0) for n in self._orders)
            bound = _rounding_bound(windows, self._key_index()[2])
            conf = 1.0 / np.exp(sums - peak[:, None]).sum(axis=1)
            # Written as "not clear of" so that a NaN sends the text to predict.
            again = ~(peak - runner_up > 2 * bound)
            if min_confidence is not None:
                # Where every other label trails the peak by over 37 + ln L +
                # 2 * bound, it trails by over 37 + ln L in predict too: each
                # other term of a denominator is below e**-37 / L, their sum
                # below e**-37 < 2**-53, so both denominators, and confidences,
                # round to exactly 1.0 in any order. NaN fails ">": predict.
                sure = peak - runner_up > 37 + math.log(n_labels) + 2 * bound
                slack = conf * (5 * bound + (n_labels + 2) * 2.0**-50)
                again |= ~sure & ~(np.abs(conf - min_confidence) > slack)
        labels = [self._labels[i] for i in best.tolist()]
        confidences = conf.tolist()
        for i in np.flatnonzero(again).tolist():
            prediction = self.predict(text(i))
            labels[i], confidences[i] = prediction.label, prediction.confidence
        return labels, confidences, again.tolist()

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
            payload = json.loads(read_utf8(path))
            if not isinstance(payload, dict):
                raise ClassifierError("expected a JSON object")
            for name in ("log_probs", "fallback_log_probs", "orders"):
                if name not in payload:
                    raise ClassifierError(f"missing field {name!r}")
            return cls(
                payload["log_probs"],
                payload["fallback_log_probs"],
                tuple(payload["orders"]),
            )
        except DocumentError as exc:
            raise ClassifierError(str(exc)) from exc
        except (ClassifierError, OSError, KeyError, ValueError, TypeError,
                AttributeError, OverflowError, RecursionError) as exc:
            raise ClassifierError(f"cannot load classifier from {path}: {exc}") from exc
