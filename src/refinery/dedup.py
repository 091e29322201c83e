"""MinHash near-deduplication: shingling, signatures, LSH, clustering.

Signatures use a splitmix64-style mixing family: component i is
min over shingles x of mix64(x ^ r_i), with the r_i derived from the run
seed. Each mix64(. ^ r_i) is a bijection of the 64-bit space with strong
avalanche, so component agreement estimates Jaccard similarity the same
way seeded permutations would, and everything vectorizes in uint64.

Documents are shingled and signed in one ``parallel.pmap``. Candidate
pairs come from LSH banding by default; an all-pairs mode exists for small
corpora and oracle testing. Verification compares either the signature
estimate, computed for all candidate pairs at once from one matrix of the
signatures, or, with exact_verification, the true Jaccard of the shingle
sets, which are kept only then.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .documents import Corpus, Document
from .lid import normalize_for_lid
from .parallel import pmap

PairVerifier = Callable[[str, str], float]

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SHINGLE_CHUNK = 8192
_PAIR_CHUNK = 1024  # candidate pairs scored at once; bounds the gathered rows


class DedupConfigError(ValueError):
    """Invalid deduplication parameters."""


class EmptyShingleSetError(ValueError):
    """Document has too few tokens to shingle; exempt it from dedup."""


@dataclass(frozen=True)
class ShingleSet:
    shingles: frozenset[int]
    n: int


@dataclass(frozen=True)
class MinHashSignature:
    values: tuple[int, ...]
    k: int
    seed: int


@dataclass(frozen=True)
class DedupParams:
    ngram_order: int = 5
    signature_length: int = 256
    seed: int = 0
    bands: int = 16
    rows: int = 16
    verify_threshold: float = 0.8
    mode: str = "global"  # global | per_crawl
    exact_verification: bool = False
    candidates: str = "lsh"  # lsh | all_pairs

    def __post_init__(self):
        if self.ngram_order < 1:
            raise DedupConfigError("ngram_order must be >= 1")
        if self.signature_length < 1:
            raise DedupConfigError("signature_length must be >= 1")
        if self.bands * self.rows != self.signature_length:
            raise DedupConfigError(
                f"bands*rows = {self.bands * self.rows} != "
                f"signature_length = {self.signature_length}"
            )
        if not 0.0 <= self.verify_threshold <= 1.0:
            raise DedupConfigError("verify_threshold must lie in [0, 1]")
        if self.mode not in ("global", "per_crawl"):
            raise DedupConfigError(f"unknown mode {self.mode!r}")
        if self.candidates not in ("lsh", "all_pairs"):
            raise DedupConfigError(f"unknown candidate scheme {self.candidates!r}")


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_seeds(k: int, seed: int) -> np.ndarray:
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    steps = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    return _mix64(base + steps)


def _shingle_hash(ngram: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(ngram.encode("utf-8"), digest_size=8).digest(), "little"
    )


def shingle(doc: Document, n: int) -> ShingleSet:
    """Hash every contiguous word n-gram of the LID-normalized text."""
    if n < 1:
        raise DedupConfigError("shingle order n must be >= 1")
    tokens = normalize_for_lid(doc.text).split()
    grams = {
        _shingle_hash(" ".join(tokens[i : i + n]))
        for i in range(len(tokens) - n + 1)
    }
    return ShingleSet(frozenset(grams), n)


def exact_jaccard(a: ShingleSet, b: ShingleSet) -> float:
    union = len(a.shingles | b.shingles)
    if union == 0:
        return 0.0
    return len(a.shingles & b.shingles) / union


def signature(s: ShingleSet, k: int, seed: int) -> MinHashSignature:
    """MinHash signature of a non-empty shingle set."""
    if k < 1:
        raise DedupConfigError("signature length k must be >= 1")
    if not s.shingles:
        raise EmptyShingleSetError(
            "cannot sign an empty shingle set; exempt the document from dedup"
        )
    x = np.fromiter(s.shingles, dtype=np.uint64, count=len(s.shingles))
    seeds = _hash_seeds(k, seed)[:, None]
    mins = np.full(k, np.iinfo(np.uint64).max, dtype=np.uint64)
    for start in range(0, len(x), _SHINGLE_CHUNK):
        hashed = _mix64(x[None, start : start + _SHINGLE_CHUNK] ^ seeds)
        np.minimum(mins, hashed.min(axis=1), out=mins)
    return MinHashSignature(tuple(int(v) for v in mins), k, seed)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of agreeing signature positions."""
    if a.k != b.k or a.seed != b.seed:
        raise DedupConfigError(
            "signatures are not comparable: k/seed mismatch "
            f"({a.k}/{a.seed} vs {b.k}/{b.seed})"
        )
    agree = sum(1 for va, vb in zip(a.values, b.values) if va == vb)
    return agree / a.k


def lsh_candidates(
    signatures: Mapping[str, MinHashSignature], bands: int, rows: int
) -> set[tuple[str, str]]:
    """All unordered id pairs sharing at least one identical band."""
    buckets: dict[tuple[int, tuple[int, ...]], list[str]] = {}
    for doc_id in sorted(signatures):
        sig = signatures[doc_id]
        if bands * rows != sig.k:
            raise DedupConfigError(
                f"bands*rows = {bands * rows} != signature length {sig.k}"
            )
        for band in range(bands):
            key = (band, sig.values[band * rows : (band + 1) * rows])
            buckets.setdefault(key, []).append(doc_id)
    pairs: set[tuple[str, str]] = set()
    for ids in buckets.values():
        if len(ids) > 1:
            pairs.update(combinations(ids, 2))
    return pairs


def _estimates(
    signatures: Mapping[str, MinHashSignature], pairs: list[tuple[str, str]]
) -> dict[tuple[str, str], float]:
    """``estimate_jaccard`` of every pair, from one ``uint64[N, k]`` matrix of
    the signatures, ``_PAIR_CHUNK`` pairs at a time."""
    if not pairs:
        return {}
    rows = {doc_id: i for i, doc_id in enumerate(signatures)}
    matrix = np.array([sig.values for sig in signatures.values()], dtype=np.uint64)
    k = matrix.shape[1]
    estimates: dict[tuple[str, str], float] = {}
    for start in range(0, len(pairs), _PAIR_CHUNK):
        chunk = pairs[start : start + _PAIR_CHUNK]
        ia = np.fromiter((rows[a] for a, _ in chunk), dtype=np.intp, count=len(chunk))
        ib = np.fromiter((rows[b] for _, b in chunk), dtype=np.intp, count=len(chunk))
        # Agreeing positions over k, divided as estimate_jaccard divides.
        agree = (matrix[ia] == matrix[ib]).sum(axis=1)
        estimates.update(zip(chunk, (agree / k).tolist()))
    return estimates


@dataclass(frozen=True)
class DuplicateClusterSet:
    """Partition of document ids; one representative per cluster."""

    representative: dict[str, str]
    # Each merged id's highest verified similarity over the pairs that merged it.
    similarity: dict[str, float] = field(default_factory=dict)

    def clusters(self) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for doc_id, rep in self.representative.items():
            grouped.setdefault(rep, []).append(doc_id)
        return {rep: sorted(ids) for rep, ids in grouped.items()}


class UnionFind:
    def __init__(self, ids: Iterable[str] = ()):
        self.parent: dict[str, str] = {i: i for i in ids}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: str, y: str) -> None:
        px, py = self.find(x), self.find(y)
        if px != py:
            self.parent[max(px, py)] = min(px, py)


def cluster(
    pairs: Iterable[tuple[str, str]],
    all_ids: Iterable[str],
    verify: PairVerifier,
    verify_threshold: float,
    mode: str = "global",
    collections: Mapping[str, str] | None = None,
    sort_keys: Mapping[str, tuple[str, str]] | None = None,
) -> DuplicateClusterSet:
    """Union every candidate pair whose verified similarity clears the threshold.

    In per_crawl mode pairs crossing collection boundaries are ignored.
    The representative of each cluster is its lexicographically smallest
    (collection, id) member.
    """
    if not 0.0 <= verify_threshold <= 1.0:
        raise DedupConfigError("verify_threshold must lie in [0, 1]")
    uf = UnionFind(all_ids)
    similarity: dict[str, float] = {}
    for a, b in pairs:
        if mode == "per_crawl" and collections is not None:
            if collections.get(a) != collections.get(b):
                continue
        score = verify(a, b)
        if score >= verify_threshold:
            uf.add(a)
            uf.add(b)
            uf.union(a, b)
            for doc_id in (a, b):
                similarity[doc_id] = max(similarity.get(doc_id, score), score)
    keys = sort_keys or {}
    by_root: dict[str, list[str]] = {}
    for doc_id in uf.parent:
        by_root.setdefault(uf.find(doc_id), []).append(doc_id)
    representative: dict[str, str] = {}
    for members in by_root.values():
        rep = min(members, key=lambda i: keys.get(i, ("", i)))
        for doc_id in members:
            representative[doc_id] = rep
    return DuplicateClusterSet(representative, similarity)


@dataclass(frozen=True)
class RemovalRecord:
    id: str
    representative_id: str
    estimated_jaccard: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class DedupResult:
    retained: Corpus
    removals: list[RemovalRecord] = field(default_factory=list)
    removed_docs: list[Document] = field(default_factory=list)
    clusters: DuplicateClusterSet | None = None
    workers: int = 1  # processes that shingled and signed the documents


def dedup(corpus: Corpus, params: DedupParams) -> DedupResult:
    """Remove all but one document from every near-duplicate cluster.

    Documents too short to shingle bypass dedup unremoved. The retained
    sequence follows corpus order; removed documents are reported with
    their cluster representative and their highest verified similarity to
    a document they were merged with.
    """
    docs = list(corpus.documents)

    def sign(doc: Document) -> tuple[MinHashSignature, ShingleSet | None] | None:
        """None for a document too short to shingle; its signature otherwise,
        with its shingle set only when exact verification will read it."""
        shingles = shingle(doc, params.ngram_order)
        if not shingles.shingles:
            return None
        sig = signature(shingles, params.signature_length, params.seed)
        return sig, shingles if params.exact_verification else None

    signed, workers = pmap(sign, docs)
    sigs = {d.id: s[0] for d, s in zip(docs, signed) if s is not None}

    if params.candidates == "lsh":
        pairs = sorted(lsh_candidates(sigs, params.bands, params.rows))
    else:
        pairs = list(combinations(sorted(sigs), 2))

    if params.exact_verification:
        shingle_sets = {d.id: s[1] for d, s in zip(docs, signed) if s is not None}

        def verify(a: str, b: str) -> float:
            return exact_jaccard(shingle_sets[a], shingle_sets[b])
    else:
        estimates = _estimates(sigs, pairs)

        def verify(a: str, b: str) -> float:
            return estimates[a, b]

    collections = {d.id: d.collection for d in docs}
    sort_keys = {d.id: d.sort_key() for d in docs}
    cluster_set = cluster(
        pairs,
        sigs.keys(),
        verify,
        params.verify_threshold,
        mode=params.mode,
        collections=collections,
        sort_keys=sort_keys,
    )

    retained: list[Document] = []
    removals: list[RemovalRecord] = []
    removed_docs: list[Document] = []
    for doc in docs:
        rep = cluster_set.representative.get(doc.id, doc.id)
        if rep == doc.id:
            retained.append(doc)
        else:
            removals.append(RemovalRecord(doc.id, rep, cluster_set.similarity[doc.id]))
            removed_docs.append(doc.replace(removed_reason="duplicate"))
    retained_corpus = Corpus(retained, corpus.language)
    return DedupResult(retained_corpus, removals, removed_docs, cluster_set, workers)
