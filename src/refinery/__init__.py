"""Desk-scale monolingual web-corpus refinement toolkit."""

import os

# Refinery calls no BLAS routine. Capped before numpy loads, OpenBLAS starts
# no thread, so dedup's process map forks a single-threaded process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .documents import Corpus, Document, parse_document_line, segment_text
from .dedup import DedupParams, dedup, estimate_jaccard, lsh_candidates, shingle, signature
from .lid import LangPrediction, NgramLanguageClassifier, classify, normalize_for_lid, profile_segments
from .wds import WdsConfig, WdsReport, filter_by_level, score_document, wds_level
from .packaging import PackagingConfig, ShardManifest, assign_bins, package_corpus, read_shards, sort_bin, write_shards
from .analytics import analyze_corpus, corpus_summary, domain_report, in_language_ratio, length_profiles, proportion_ci, top_ngrams, unique_segment_ratio
from .evalagg import EvalGrid, SelectionThresholds, TaskMeta, language_score, multilingual_scores, prompt_aggregate, rescale, select_tasks

__version__ = "0.1.0"
