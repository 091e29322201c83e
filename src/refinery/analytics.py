"""Descriptive corpus statistics and proportion confidence intervals.

Each statistic is a sum, count or set union over documents and their
segments, so results are independent of document order. Each function
makes its own pass over the corpus and reads ``Document.segments``, so
segmenting happens once per document however many statistics read it.
Segment and token here mean the same units used everywhere else in the
pipeline: trimmed non-empty lines, held as strings, and whitespace
tokens, counted where a statistic reads them. An empty corpus gives a
report of zeros.

``top_ngrams`` counts over integer token ids in about 24 bytes per token
at its peak, plus the vocabulary. Lowercased tokens stream through one
vocabulary dict straight into one flat ``int32`` id array, beside a
stopword flag per position and the tokens left in the segment from each
position, capped at the top order and held in ``uint8``. The n-grams at
each position are ranked from the order below: ``np.argsort`` orders the
``int64`` keys ``rank[i] * V + id[i + n - 1]`` (V the vocabulary size), key
changes are read a slice of that order at a time, with no sorted copy of
the keys, and a running count of them numbers the n-grams, so equal ranks
mark equal n-grams. Each array is let go as soon as it is used. A window
of order n counts if n tokens are left at its start and no stopword is at
either edge. The histogram of the counts gives the k-th largest
count; the grams counted at least that often are joined into strings a
fixed-size slice of ranks at a time, each from one window found in a
slice-wise pass over the counted positions, and ``heapq.nsmallest`` keeps
the top k by (-count, joined string). Ties break on the joined string, not
on the token tuple: the orders differ for tokens with characters below
``" "``.
"""

from __future__ import annotations

import heapq
import logging
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from itertools import chain
from urllib.parse import urlsplit

import numpy as np

# Document.segments is segment_text's one caller; the name stays bound here
# because the benchmark's tracer test expects it in this module.
from .documents import Corpus, segment_text  # noqa: F401

logger = logging.getLogger(__name__)

LARGE_DOCUMENT_SEGMENTS = 25  # "large" means strictly more segments than this
SHORT_SEGMENT_TOKENS = 3  # "short" means strictly fewer tokens than this
NGRAM_ORDERS = (1, 2, 3, 4, 5)
TOP_NGRAMS = 5
DECODE_SLICE = 4096  # grams whose candidates are joined into strings at once
RANK_SLICE = 1 << 16  # positions per slice of a rank or window pass

@dataclass(frozen=True)
class CorpusSummary:
    document_count: int
    token_count: int
    avg_document_length: float
    share_percent: float | None

    def to_json(self) -> dict:
        return asdict(self)


def summary_from_totals(
    document_count: int, token_count: int, reference_total_tokens: int | None = None
) -> CorpusSummary:
    """Summary arithmetic over already-aggregated totals."""
    if document_count < 1:
        raise ValueError("summary requires at least one document")
    share = (
        100.0 * token_count / reference_total_tokens
        if reference_total_tokens
        else None
    )
    return CorpusSummary(
        document_count, token_count, token_count / document_count, share
    )


def corpus_summary(
    corpus: Corpus, reference_total_tokens: int | None = None
) -> CorpusSummary:
    if len(corpus) == 0:
        return CorpusSummary(0, 0, 0.0, 0.0 if reference_total_tokens else None)
    total = sum(len(doc.text.split()) for doc in corpus)
    return summary_from_totals(len(corpus), total, reference_total_tokens)


def unique_segment_ratio(corpus: Corpus) -> float:
    """Distinct segment strings over total segment occurrences."""
    seen = set(chain.from_iterable(doc.segments for doc in corpus))
    occurrences = sum(len(doc.segments) for doc in corpus)
    if occurrences == 0:
        logger.warning("unique_segment_ratio: corpus has no segments")
        return 0.0
    return len(seen) / occurrences


def length_profiles(corpus: Corpus) -> tuple[float, float]:
    """(fraction of documents with >25 segments,
    fraction of segments with <3 tokens)."""
    large = sum(len(doc.segments) > LARGE_DOCUMENT_SEGMENTS for doc in corpus)
    segments = sum(len(doc.segments) for doc in corpus)
    short = sum(len(seg.split(None, SHORT_SEGMENT_TOKENS)) < SHORT_SEGMENT_TOKENS
                for doc in corpus for seg in doc.segments)  # splits stop past "short"
    return (large / len(corpus) if len(corpus) else 0.0,
            short / segments if segments else 0.0)


def in_language_ratio(corpus: Corpus) -> float:
    """Micro-average over all segments of (segment label == document lang)."""
    matching = 0
    total = 0
    for doc in corpus:
        if doc.seg_langs is None:
            raise ValueError(f"document {doc.id!r} has no seg_langs annotation")
        total += len(doc.seg_langs)
        matching += sum(1 for label in doc.seg_langs if label == doc.lang)
    if total == 0:
        logger.warning("in_language_ratio: corpus has no segments")
        return 0.0
    return matching / total


@dataclass(frozen=True)
class NgramReport:
    top: dict[int, list[tuple[str, int]]]  # order -> top (ngram, count) pairs

    def to_json(self) -> dict:
        return {str(n): [[g, c] for g, c in pairs] for n, pairs in self.top.items()}


def top_ngrams(
    corpus: Corpus,
    stopwords: frozenset[str] | set[str] = frozenset(),
    orders: tuple[int, ...] = NGRAM_ORDERS,
    top_k: int = TOP_NGRAMS,
) -> NgramReport:
    """Most frequent word n-grams per order, confined within segments.

    Tokens are lowercased; candidates whose first or last token is a
    stopword are discarded. Ties break lexicographically on the joined
    n-gram string.
    """
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # a new token's id is the vocabulary size
    stream, lengths = array("i"), array("q")
    for doc in corpus:
        for seg in doc.segments:
            before = len(stream)
            stream.extend(map(vocab.__getitem__, seg.lower().split()))
            lengths.append(len(stream) - before)
    if (len(stream) + 1) * (len(vocab) + 1) > np.iinfo(np.int64).max:
        raise OverflowError(f"{len(stream)} tokens are too many to key n-grams in int64")
    vocab.default_factory = None  # no cycle keeps the dict once it is dropped
    ids = np.frombuffer(stream, np.intc)  # a view: the ids are not copied
    dtype = np.int32 if len(ids) < np.iinfo(np.int32).max else np.int64
    top = max(orders, default=0)
    # The tokens from each position to the end of its segment, itself
    # included, capped at the top order: only order n >= that count is asked.
    left = np.full(len(ids), top, np.min_scalar_type(top))
    sizes = np.frombuffer(lengths, np.int64)
    ends = np.cumsum(sizes)
    for j in range(1, top):
        left[ends[sizes >= j] - j] = j
    del lengths, sizes, ends
    content = np.fromiter(map(stopwords.__contains__, vocab), bool, len(vocab))[ids]
    np.logical_not(content, out=content)
    words = np.array(list(vocab), dtype=object)
    del vocab
    found: dict[int, list[tuple[str, int]]] = {}
    # Equal ranks mark equal n-grams starting at those positions; ranks and
    # window starts share the dtype that holds every position.
    rank = ids.astype(dtype, copy=False)
    for n in range(1, top + 1):
        if n > 1:
            # Sorting the keys rank * V + id groups equal n-grams.
            key = rank[:-1].astype(np.int64)
            del rank
            key *= len(words)
            key += ids[n - 1 :]
            order = np.argsort(key)
            fresh = _key_changes(key, order)
            del key
            rank = _numbered(fresh, order, dtype)
            del order, fresh
        if n in orders:
            counted = left[: len(rank)] >= n
            counted &= content[: len(rank)]
            counted &= content[n - 1 :]
            found[n] = _most_frequent(n, rank, counted, ids, words, top_k)
            del counted
    return NgramReport({n: found[n] for n in orders})


def _key_changes(key: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Whether each key, taken in ``order``, differs from the one before it
    (the first does not). Keys are compared a slice of ``order`` at a time,
    so no sorted copy of them is held."""
    fresh = np.zeros(len(order), bool)
    for lo in range(0, len(order), RANK_SLICE):
        run = key[order[lo : lo + RANK_SLICE + 1]]
        np.not_equal(run[1:], run[:-1], out=fresh[lo + 1 : lo + len(run)])
    return fresh


def _numbered(fresh: np.ndarray, order: np.ndarray, dtype) -> np.ndarray:
    """Each position's rank: the running count of key changes up to its
    place in ``order``, so the smallest key ranks 0 and equal keys rank
    alike."""
    rank = np.empty(len(order), dtype)
    base = 0
    for lo in range(0, len(order), RANK_SLICE):
        numbers = np.cumsum(fresh[lo : lo + RANK_SLICE], dtype=dtype)
        numbers += base
        rank[order[lo : lo + RANK_SLICE]] = numbers
        base = numbers[-1]
    return rank


def _most_frequent(
    n: int,
    rank: np.ndarray,
    counted: np.ndarray,
    ids: np.ndarray,
    words: np.ndarray,
    top_k: int,
) -> list[tuple[str, int]]:
    """Top k (n-gram, count) pairs over the windows where ``counted`` holds."""
    counts = np.bincount(rank[counted])
    k = min(max(top_k, 0), np.count_nonzero(counts))
    if k == 0:
        return []
    # Only grams counted at least as often as the k-th largest count can
    # make the top k; the histogram of counts finds that count without a
    # partitioned copy of the counts.
    at_least = np.cumsum(np.bincount(counts)[::-1])  # grams counted >= max, max - 1, ...
    least = len(at_least) - 1 - np.searchsorted(at_least, k)
    start_of = np.empty(len(counts), rank.dtype)  # one window of each gram
    for lo in range(0, len(counted), RANK_SLICE):
        at = np.flatnonzero(counted[lo : lo + RANK_SLICE])
        at += lo
        start_of[rank[at]] = at
    # Decode the candidates a slice of grams at a time from those windows.
    best: list[tuple[int, str]] = []
    for lo in range(0, len(counts), DECODE_SLICE):
        part = np.flatnonzero(counts[lo : lo + DECODE_SLICE] >= least)
        part += lo
        windows = start_of[part, None] + np.arange(n)
        grams = map(" ".join, words[ids[windows]].tolist())
        best = heapq.nsmallest(k, chain(best, zip((-counts[part]).tolist(), grams)))
    return [(gram, -negated) for negated, gram in best]


@dataclass(frozen=True)
class DomainReport:
    host_counts: dict[str, int]  # includes "unknown" for missing/unparseable
    tld_counts: dict[str, int]  # parseable hosts only
    wikipedia_share: float

    def to_json(self) -> dict:
        return {
            "host_counts": dict(sorted(self.host_counts.items())),
            "tld_counts": dict(sorted(self.tld_counts.items())),
            "wikipedia_share": self.wikipedia_share,
        }


def _host_of(url: str | None) -> str | None:
    if not url:
        return None
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    if not host:
        return None
    return host.rstrip(".").lower() or None


def _is_wikipedia(host: str) -> bool:
    return host == "wikipedia.org" or host.endswith(".wikipedia.org")


def domain_report(corpus: Corpus) -> DomainReport:
    hosts: Counter = Counter()
    tlds: Counter = Counter()
    wikipedia = 0
    for doc in corpus:
        host = _host_of(doc.url)
        if host is None:
            hosts["unknown"] += 1
            continue
        hosts[host] += 1
        tlds[host.rsplit(".", 1)[-1]] += 1
        if _is_wikipedia(host):
            wikipedia += 1
    share = wikipedia / len(corpus) if len(corpus) else 0.0
    return DomainReport(dict(hosts), dict(tlds), share)


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else -math.floor(-x + 0.5)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, as fractions."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    # The analytic interval always contains p; keep float error from
    # violating that at the k=0 and k=n boundaries.
    low = min(max(0.0, center - half), p)
    high = max(min(1.0, center + half), p)
    return low, high


def proportion_ci(successes: int, n: int) -> tuple[int, int]:
    """95% Wilson interval reported as rounded integer percents."""
    low, high = wilson_interval(successes, n, z=1.96)
    return _round_half_away(low * 100.0), _round_half_away(high * 100.0)


def register_counts(corpus: Corpus) -> dict[str, int]:
    counts: Counter = Counter(
        doc.register for doc in corpus if doc.register is not None
    )
    return dict(sorted(counts.items()))


def analyze_corpus(
    corpus: Corpus,
    stopwords: frozenset[str] | set[str] = frozenset(),
    reference_total_tokens: int | None = None,
) -> dict:
    """Full analytics report as one JSON-serializable document."""
    summary = corpus_summary(corpus, reference_total_tokens)
    large_ratio, short_ratio = length_profiles(corpus)
    report = {
        "language": corpus.language,
        "summary": summary.to_json(),
        "unique_segment_ratio": unique_segment_ratio(corpus),
        "large_document_ratio": large_ratio,
        "short_segment_ratio": short_ratio,
        "top_ngrams": top_ngrams(corpus, stopwords).to_json(),
        "domains": domain_report(corpus).to_json(),
        "register_counts": register_counts(corpus),
    }
    if all(doc.seg_langs is not None for doc in corpus):
        report["in_language_ratio"] = in_language_ratio(corpus)
    return report


def render_report(report: dict) -> str:
    """Plain-text table rendering of an analytics report."""
    lines = [f"language: {report['language']}"]
    s = report["summary"]
    share = "" if s["share_percent"] is None else f"  share: {s['share_percent']:.2f}%"
    lines.append(f"documents: {s['document_count']}  tokens: {s['token_count']}  "
                 f"avg length: {s['avg_document_length']:.1f}{share}")
    lines.append(f"unique segments: {report['unique_segment_ratio']:.1%}")
    lines.append(f"large documents (>25 segments): {report['large_document_ratio']:.1%}")
    lines.append(f"short segments (<3 tokens): {report['short_segment_ratio']:.1%}")
    if "in_language_ratio" in report:
        lines.append(f"segments in document language: {report['in_language_ratio']:.1%}")
    lines.append(f"wikipedia share: {report['domains']['wikipedia_share']:.1%}")
    lines.append("top TLDs:")
    tlds = Counter(report["domains"]["tld_counts"])
    for tld, count in tlds.most_common(5):
        lines.append(f"  .{tld}: {count}")
    lines.append("top n-grams:")
    for order in sorted(report["top_ngrams"], key=int):
        pairs = report["top_ngrams"][order]
        rendered = ", ".join(f"{g!r}×{c}" for g, c in pairs) or "-"
        lines.append(f"  order {order}: {rendered}")
    return "\n".join(lines) + "\n"
