"""Web-document quality scoring on a 0-10 scale.

The score is multiplicative: 10 * language_share * length_ramp *
(1 - oddity_penalty). A catastrophic factor (wrong-language text, tiny
document, heavy oddity) therefore forces a low score no matter how good
the other factors are. Thresholds and weights are configurable; the
defaults below are declared artifact choices, not tuned constants.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field

# Document.segments is segment_text's one caller; the name stays bound here
# because the benchmark's tracer test expects it in this module.
from .documents import Corpus, Document, segment_text  # noqa: F401

_URL_PREFIXES = ("http://", "https://", "www.")
# The subsignals that the oddity penalty weighs, each against the config
# field "<name>_threshold"; they are the only allowed ``weights`` keys.
PENALIZED_SUBSIGNALS = (
    "non_letter_ratio",
    "digit_ratio",
    "repeated_line_ratio",
    "url_density",
)


@dataclass(frozen=True)
class WdsConfig:
    min_length_tokens: int = 20
    target_length_tokens: int = 200
    # Oddity thresholds; exceedance above each is penalized.
    non_letter_ratio_threshold: float = 0.3
    digit_ratio_threshold: float = 0.2
    repeated_line_ratio_threshold: float = 0.2
    url_density_threshold: float = 0.1  # URLs per 100 tokens
    # Equal weights by default; a subsignal left out weighs 1.0.
    weights: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PENALIZED_SUBSIGNALS, 1.0)
    )
    # Documents below this level are removed as below_wds; None keeps all.
    min_level: int | None = None

    def __post_init__(self):
        for name in self.weights:
            if name not in PENALIZED_SUBSIGNALS:
                raise ValueError(
                    f"unknown weights key {name!r} (allowed: "
                    f"{', '.join(PENALIZED_SUBSIGNALS)})"
                )


@dataclass(frozen=True)
class WdsReport:
    language_share_score: float
    length_score: float
    oddity_penalty: float
    subsignals: dict[str, float]
    score: float
    level: int


def wds_level(score: float) -> int:
    """Integer level for a 0-10 score: floor, with 10.0 mapping to 10."""
    if not 0.0 <= score <= 10.0:
        raise ValueError(f"score {score} outside [0, 10]")
    return min(math.floor(score), 10)


class _CharClassTable(dict):
    """``str.translate`` table, filled on first sight of each code point:
    whitespace is deleted, letters and marks map to "L", decimal digits to
    "D" and every other character to "O"."""

    def __missing__(self, code_point: int) -> str | None:
        ch = chr(code_point)
        category = unicodedata.category(ch)
        if ch.isspace():
            mapped = None
        elif category[0] in "LM":
            mapped = "L"
        else:
            mapped = "D" if category == "Nd" else "O"
        self[code_point] = mapped
        return mapped


_CHAR_CLASSES = _CharClassTable()


def _char_ratios(text: str) -> tuple[float, float]:
    """Non-letter and digit shares of the non-whitespace characters."""
    classes = text.translate(_CHAR_CLASSES)
    if not classes:
        return 0.0, 0.0
    non_space = len(classes)
    return (non_space - classes.count("L")) / non_space, classes.count("D") / non_space


def compute_subsignals(doc: Document) -> dict[str, float]:
    segments = doc.segments
    tokens = doc.text.split()
    non_letter_ratio, digit_ratio = _char_ratios(doc.text)
    if segments:
        repeated = 1.0 - len({s.text for s in segments}) / len(segments)
        avg_segment_tokens = sum(s.token_count for s in segments) / len(segments)
    else:
        repeated = 0.0
        avg_segment_tokens = 0.0
    url_count = sum(1 for t in tokens if t.lower().startswith(_URL_PREFIXES))
    url_density = 100.0 * url_count / len(tokens) if tokens else 0.0
    return {
        "non_letter_ratio": non_letter_ratio,
        "digit_ratio": digit_ratio,
        "repeated_line_ratio": repeated,
        "url_density": url_density,
        "avg_segment_tokens": avg_segment_tokens,
    }


def _length_score(n_tokens: int, config: WdsConfig) -> float:
    lo, hi = config.min_length_tokens, config.target_length_tokens
    if n_tokens <= lo:
        return 0.0
    if n_tokens >= hi:
        return 1.0
    return (n_tokens - lo) / (hi - lo)


def _oddity_penalty(subsignals: dict[str, float], config: WdsConfig) -> float:
    penalty = 0.0
    for name in PENALIZED_SUBSIGNALS:
        threshold = getattr(config, f"{name}_threshold")
        exceedance = max(0.0, subsignals[name] - threshold)
        penalty += config.weights.get(name, 1.0) * exceedance
    return min(1.0, max(0.0, penalty))


def score_document(
    doc: Document, seg_profile: float, config: WdsConfig | None = None
) -> WdsReport:
    """Score one document given its in-language segment fraction."""
    config = config or WdsConfig()
    if not 0.0 <= seg_profile <= 1.0:
        raise ValueError(f"seg_profile {seg_profile} outside [0, 1]")
    subsignals = compute_subsignals(doc)
    if not doc.segments:
        return WdsReport(0.0, 0.0, 0.0, subsignals, 0.0, 0)
    length = _length_score(len(doc.text.split()), config)
    penalty = _oddity_penalty(subsignals, config)
    score = 10.0 * seg_profile * length * (1.0 - penalty)
    return WdsReport(seg_profile, length, penalty, subsignals, score, wds_level(score))


def filter_by_level(
    corpus: Corpus, min_level: int
) -> tuple[list[Document], list[Document]]:
    """Partition scored documents by quality level.

    Removed documents carry removed_reason="below_wds".
    """
    retained: list[Document] = []
    removed: list[Document] = []
    for doc in corpus:
        if doc.wds is None:
            raise ValueError(f"document {doc.id!r} has no wds score")
        if wds_level(doc.wds) >= min_level:
            retained.append(doc)
        else:
            removed.append(doc.replace(removed_reason="below_wds"))
    return retained, removed
