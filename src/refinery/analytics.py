"""Descriptive corpus statistics and proportion confidence intervals.

Each statistic is a sum, count or set union over documents and their
segments, so results are independent of document order. Each function
makes its own pass over the corpus and reads ``Document.segments``, so
segmenting happens once per document however many statistics read it.
Segment and token here mean the same units used everywhere else in the
pipeline: trimmed non-empty lines and whitespace tokens. An empty corpus
gives a report of zeros.

``top_ngrams`` counts over integer token ids, not strings. One vocabulary
dict maps each lowercased token to an id; one flat array holds the ids of
every segment's tokens, beside each position's segment index and a
stopword flag. The n-grams starting at each position are ranked from the
order below: ``np.unique`` numbers the keys ``rank[i] * V + id[i + n - 1]``
(V the vocabulary size), so equal ranks mean equal n-grams, and as ranks
stay below the token count the keys fit in int64. Only windows inside one
segment with no stopword at either edge are counted. ``np.partition``
finds the k-th largest count, only grams counted at least that often are
joined into strings, and ``heapq.nsmallest`` keeps the top k by (-count,
joined string). Ties break on the joined string, not on the token tuple:
the two orders differ for tokens that hold characters below ``" "``.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass
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
    total = sum(seg.token_count for doc in corpus for seg in doc.segments)
    return summary_from_totals(len(corpus), total, reference_total_tokens)


def unique_segment_ratio(corpus: Corpus) -> float:
    """Distinct segment strings over total segment occurrences."""
    seen: set[str] = set()
    occurrences = 0
    for doc in corpus:
        for seg in doc.segments:
            seen.add(seg.text)
            occurrences += 1
    if occurrences == 0:
        logger.warning("unique_segment_ratio: corpus has no segments")
        return 0.0
    return len(seen) / occurrences


def length_profiles(corpus: Corpus) -> tuple[float, float]:
    """(fraction of documents with >25 segments,
    fraction of segments with <3 tokens)."""
    large = sum(len(doc.segments) > LARGE_DOCUMENT_SEGMENTS for doc in corpus)
    segments = sum(len(doc.segments) for doc in corpus)
    short = sum(seg.token_count < SHORT_SEGMENT_TOKENS for doc in corpus for seg in doc.segments)
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
    tokens: list[str] = []
    lengths: list[int] = []
    for doc in corpus:
        for seg in doc.segments:
            seg_tokens = seg.text.lower().split()
            tokens.extend(seg_tokens)
            lengths.append(len(seg_tokens))
    vocab = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
    ids = np.fromiter(map(vocab.__getitem__, tokens), np.int64, len(tokens))
    del tokens
    words = np.array(list(vocab), dtype=object)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    is_stop = np.fromiter(map(stopwords.__contains__, vocab), bool, len(vocab))
    content = ~is_stop[ids]
    found: dict[int, list[tuple[str, int]]] = {}
    rank = ids  # equal ranks mark equal n-grams starting at those positions
    for n in range(1, max(orders, default=0) + 1):
        if n > 1:
            # Ranks stay below the token count, so the key fits in int64.
            key = rank[:-1] * len(vocab) + ids[n - 1 :]
            rank = np.unique(key, return_inverse=True)[1]
        if n in orders:
            m, last = len(rank), n - 1
            inside = segment[:m] == segment[last:]
            starts = np.flatnonzero(inside & content[:m] & content[last:])
            found[n] = _most_frequent(n, rank[starts], starts, ids, words, top_k)
    return NgramReport({n: found[n] for n in orders})


def _most_frequent(
    n: int,
    ranks: np.ndarray,
    starts: np.ndarray,
    ids: np.ndarray,
    words: np.ndarray,
    top_k: int,
) -> list[tuple[str, int]]:
    """Top k (n-gram, count) pairs over the windows at ``starts``."""
    counts = np.bincount(ranks)
    k = min(max(top_k, 0), np.count_nonzero(counts))
    if k == 0:
        return []
    # Only grams counted at least as often as the k-th largest count can
    # make the top k; decode each of them from one of its windows.
    kept = np.flatnonzero(counts >= np.partition(counts, len(counts) - k)[-k])
    start_of = np.empty(len(counts), np.int64)
    start_of[ranks] = starts
    windows = start_of[kept, None] + np.arange(n)
    grams = map(" ".join, words[ids[windows]].tolist())
    best = heapq.nsmallest(k, zip((-counts[kept]).tolist(), grams))
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
