"""Descriptive corpus statistics and proportion confidence intervals.

Each statistic is a sum, count or set union over documents and their
segments, so results are independent of document order. Each function
makes its own pass over the corpus and reads ``Document.segments``, so
segmenting happens once per document however many statistics read it.
Segment and token here mean the same units used everywhere else in the
pipeline: trimmed non-empty lines, held as strings, and whitespace
tokens, counted where a statistic reads them. An empty corpus gives a
report of zeros.

``top_ngrams`` counts over integer token ids in a few dozen bytes per
token. Lowercased tokens stream through one vocabulary dict into one flat
id array, beside a stopword flag and the tokens left in the segment from
each position, in ``int32`` while the token count fits. The n-grams at
each position are ranked from the order below: ``np.argsort`` sorts the
``int64`` keys ``rank[i] * V + id[i + n - 1]`` (V the vocabulary size)
and a running sum of key changes numbers them, so equal ranks mean equal
n-grams. A window of order n counts if n tokens are left at its start and
no stopword is at either edge. ``np.partition`` finds the k-th largest
count; the grams counted at least that often are joined into strings a
fixed-size slice at a time, and ``heapq.nsmallest`` keeps the top k by
(-count, joined string). Ties break on the joined string, not on the
token tuple: the orders differ for tokens with characters below ``" "``.
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
DECODE_SLICE = 4096  # tied candidate n-grams joined into strings at once

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
    stream, lengths = array("q"), array("q")
    for doc in corpus:
        for seg in doc.segments:
            before = len(stream)
            stream.extend(map(vocab.__getitem__, seg.lower().split()))
            lengths.append(len(stream) - before)
    if (len(stream) + 1) * (len(vocab) + 1) > np.iinfo(np.int64).max:
        raise OverflowError(f"{len(stream)} tokens are too many to key n-grams in int64")
    dtype = np.int32 if len(stream) < np.iinfo(np.int32).max else np.int64
    ids = np.asarray(stream).astype(dtype)
    del stream
    # The tokens from each position to the end of its segment, itself included.
    left = np.repeat(np.cumsum(lengths, dtype=dtype), lengths)
    left -= np.arange(len(ids), dtype=dtype)
    words = np.array(list(vocab), dtype=object)
    is_stop = np.fromiter(map(stopwords.__contains__, vocab), bool, len(vocab))
    content = ~is_stop[ids]
    found: dict[int, list[tuple[str, int]]] = {}
    rank = ids  # equal ranks mark equal n-grams starting at those positions
    for n in range(1, max(orders, default=0) + 1):
        if n > 1:
            key = rank[:-1].astype(np.int64)
            del rank
            key *= len(vocab)
            key += ids[n - 1 :]
            order = np.argsort(key)
            key = key[order]
            fresh = np.concatenate(([False], key[1:] != key[:-1]))  # the smallest key ranks 0
            del key
            rank = np.empty(len(order), dtype)
            rank[order] = np.cumsum(fresh, dtype=dtype)
            del order, fresh
        if n in orders:
            m = len(rank)
            counted = (left[:m] >= n) & content[:m] & content[n - 1 :]
            found[n] = _most_frequent(n, rank, counted, ids, words, top_k)
    return NgramReport({n: found[n] for n in orders})


def _most_frequent(
    n: int,
    rank: np.ndarray,
    counted: np.ndarray,
    ids: np.ndarray,
    words: np.ndarray,
    top_k: int,
) -> list[tuple[str, int]]:
    """Top k (n-gram, count) pairs over the windows where ``counted`` holds."""
    starts = np.flatnonzero(counted)
    ranks = rank[starts]
    start_of = np.empty(ranks.max(initial=-1) + 1, ids.dtype)  # one window of each gram
    start_of[ranks] = starts
    del starts
    counts = np.bincount(ranks, minlength=len(start_of))
    del ranks
    k = min(max(top_k, 0), np.count_nonzero(counts))
    if k == 0:
        return []
    # Only grams counted at least as often as the k-th largest count can
    # make the top k; decode them a slice at a time from those windows.
    kept = np.flatnonzero(counts >= np.partition(counts, len(counts) - k)[-k])
    best: list[tuple[int, str]] = []
    for lo in range(0, len(kept), DECODE_SLICE):
        part = kept[lo : lo + DECODE_SLICE]
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
