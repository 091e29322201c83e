"""Near-deduplication on one ``uint64[N, k]`` matrix of similarity sketches.

Shingles. The tokens of a document are the whitespace-separated words of
its LID-normalized text. Each distinct token is hashed once, through a
vocabulary dict, to t(w), the 8-byte ``blake2b`` digest of its UTF-8 bytes
read little-endian. The shingle hash of the n-gram w_1 .. w_n is
mix64(t(w_1) + G t(w_2) + G^2 t(w_3) + ... + G^(n-1) t(w_n)) modulo 2^64,
with the odd constant G = 0x9E3779B97F4A7C15, so the order of the tokens
counts; numpy computes it for every window of a document at once.
``blake2b`` is unsalted, so the hashes agree across processes and runs;
it is bound from CPython's ``_blake2``, the object ``hashlib.blake2b`` is,
because importing ``hashlib`` maps OpenSSL's libcrypto (about 3.7 MB of
RSS) for nothing else.

Signatures are fast similarity sketches (Dahlgaard, Knudsen & Thorup,
"Fast Similarity Sketching", FOCS 2017) of k components. In rounds
r = 0, 1, ..., each shingle hash x gives z = mix64(x ^ s_r), with s_r
derived from the seed and r, and offers the value r * 2^40 + (z >> 24) to
component ((z mod 2^32) * k) >> 32, which keeps the least value offered.
A document stops after the first round that leaves no component empty,
as every later value is larger. Two sets agree in a component when the
least value their union offers it comes from their intersection, so the
share of agreeing components estimates Jaccard similarity as MinHash's
does, at about k ln k mixes per document instead of k per shingle.

Rows are signed serially, in (collection, id) order, straight into one
matrix, in blocks of about ``_SIGN_BLOCK`` shingles. Texts are normalized
in blocks by ``lid.normalize_many`` and not kept on ``Document``, where
they would hold memory across stages.

LSH buckets the rows whose values in a band are identical (per crawl, within
a collection). Each bucket member is verified against the components
already in its bucket; a pair in one component is never verified and a
failed pair is not verified twice, so the partition is that of verifying
every pair sharing a bucket, at a cost linear in the bucket for a cluster
of near-duplicates. A pair's estimate is the share of agreeing positions
of its two rows; with exact_verification it is the true Jaccard of the
shingle sets, which are kept only then. The all-pairs mode, for small
corpora and oracle testing, verifies every pair through ``cluster``.
"""

from __future__ import annotations

from _blake2 import blake2b
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping

import numpy as np

from .config import DedupConfigError, DedupParams
from .documents import Corpus, Document
from .lid import _batches, normalize_for_lid, normalize_many

PairVerifier = Callable[[str, str], float]

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_LOW32 = np.uint64(0xFFFFFFFF)
_NO_HASH = np.iinfo(np.uint64).max  # an empty component; no value reaches it
# Shingles in a block of documents signed at once, and (round, shingle)
# pairs mixed at once. 2**16 signed the 20k-document demo fixture some 20%
# faster but raised the boilerplate benchmark's peak RSS by about 1 MB.
_SIGN_BLOCK = 1 << 14
# Rounds after which a block whose open rows show many repeated hashes
# keeps one copy of each: a row of a few shingles repeated many times would
# otherwise cost every repeat a mix in each of some k ln k rounds.
_DISTINCT_AFTER = 7  # the round batches of 1, 2 and 4


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


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, applied to ``z`` in place; returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _round_seeds(seed: int, first: int, count: int) -> np.ndarray:
    """s_r of the sketch's rounds ``first .. first + count - 1``."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    steps = np.arange(first + 1, first + count + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    return _mix64(base + steps)


class _TokenHashes(dict):
    """Token -> its 64-bit ``blake2b`` hash, computed on first sight."""

    def __missing__(self, token: str) -> int:
        digest = blake2b(token.encode("utf-8"), digest_size=8).digest()
        value = self[token] = int.from_bytes(digest, "little")
        return value


def _shingle_hashes(normalized: str, n: int, vocab: _TokenHashes) -> np.ndarray:
    """The shingle hash of each word n-gram window of a LID-normalized
    text, repeats included (see the module docstring); empty below ``n``
    tokens."""
    tokens = normalized.split()
    windows = len(tokens) - n + 1
    if windows < 1:
        return np.empty(0, dtype=np.uint64)
    t = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.uint64, count=len(tokens))
    h = t[:windows].copy()
    for j in range(1, n):
        h += t[j : j + windows] * np.uint64(pow(int(_GOLDEN_GAMMA), j, 1 << 64))
    return _mix64(h)


def _sign(hashes: list[np.ndarray], seed: int, out: np.ndarray) -> None:
    """Write the sketch of each non-empty array of shingle hashes (repeats
    change nothing) into the rows of ``out``, a C-contiguous
    ``uint64[len(hashes), k]``; see the module docstring. Rounds run in
    batches of 1, 2, 4, ... over the documents not yet full, mixing at
    most ``_SIGN_BLOCK`` (round, shingle) pairs at once. After
    ``_DISTINCT_AFTER`` rounds, if some open row is mostly repeats, the
    open rows drop their repeated hashes, so a document of one repeated
    shingle costs a mix per round, not one per token."""
    k = out.shape[1]
    out.fill(_NO_HASH)
    flat = out.reshape(-1)
    x = np.concatenate(hashes)
    lengths = np.array([len(h) for h in hashes])  # 0 for a full row
    offset = np.repeat(np.arange(0, len(hashes) * k, k, dtype=np.uint64), lengths)
    first, width = 0, 1
    while len(x):
        if first == _DISTINCT_AFTER and _mostly_repeats(out, lengths, first):
            x, offset = _distinct_per_row(x, offset)
            lengths = np.bincount((offset // np.uint64(k)).astype(np.intp),
                                  minlength=len(hashes))
        seeds = _round_seeds(seed, first, width)[:, None]
        rounds = np.arange(first, first + width, dtype=np.uint64)[:, None] << np.uint64(40)
        step = max(1, _SIGN_BLOCK // width)
        for lo in range(0, len(x), step):
            z = _mix64(x[lo : lo + step] ^ seeds)  # [round, shingle]
            at = ((z & _LOW32) * np.uint64(k) >> np.uint64(32)) + offset[lo : lo + step]
            z >>= np.uint64(24)
            z += rounds
            np.minimum.at(flat, at.ravel(), z.ravel())
            del z, at
        first += width
        width = min(2 * width, _SIGN_BLOCK)
        still_open = (out == _NO_HASH).any(axis=1)
        keep = np.repeat(still_open, lengths)
        lengths[~still_open] = 0
        x, offset = x[keep], offset[keep]


def _mostly_repeats(out: np.ndarray, lengths: np.ndarray, rounds: int) -> bool:
    """Whether some row of ``lengths`` hashes has fewer than half of them
    distinct, judged by its empty components: after ``rounds`` rounds, d
    distinct hashes leave about k exp(-rounds d / k) of k empty."""
    k = out.shape[1]
    empty = (out == _NO_HASH).sum(axis=1)
    return bool((empty > k * np.exp(-rounds * lengths / (2 * k))).any())


def _distinct_per_row(x: np.ndarray, offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One copy of each (row offset, hash) pair, rows still in order. Sorted
    with ``np.lexsort`` and a change mask: ``np.unique`` would load numpy.ma."""
    order = np.lexsort((x, offset))
    x, offset = x[order], offset[order]
    del order
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (offset[1:] != offset[:-1])
    return x[keep], offset[keep]


def shingle(doc: Document, n: int) -> ShingleSet:
    """Hash every contiguous word n-gram of the LID-normalized text."""
    if n < 1:
        raise DedupConfigError("shingle order n must be >= 1")
    hashes = _shingle_hashes(normalize_for_lid(doc.text), n, _TokenHashes())
    return ShingleSet(frozenset(hashes.tolist()), n)


def exact_jaccard(a: ShingleSet, b: ShingleSet) -> float:
    union = len(a.shingles | b.shingles)
    if union == 0:
        return 0.0
    return len(a.shingles & b.shingles) / union


def signature(s: ShingleSet, k: int, seed: int) -> MinHashSignature:
    """Fast similarity sketch of a non-empty shingle set."""
    if k < 1:
        raise DedupConfigError("signature length k must be >= 1")
    if not s.shingles:
        raise EmptyShingleSetError(
            "cannot sign an empty shingle set; exempt the document from dedup"
        )
    row = np.empty((1, k), dtype=np.uint64)
    _sign([np.fromiter(s.shingles, dtype=np.uint64, count=len(s.shingles))], seed, row)
    return MinHashSignature(tuple(row[0].tolist()), k, seed)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of agreeing signature positions."""
    if a.k != b.k or a.seed != b.seed:
        raise DedupConfigError(
            "signatures are not comparable: k/seed mismatch "
            f"({a.k}/{a.seed} vs {b.k}/{b.seed})"
        )
    agree = sum(1 for va, vb in zip(a.values, b.values) if va == vb)
    return agree / a.k


def _buckets(
    matrix: np.ndarray, bands: int, rows: int, groups: np.ndarray | None = None
) -> Iterator[list[int]]:
    """Every bucket of two or more rows, band by band: rows whose values in
    the band are identical, and whose ``groups`` codes are too, ascending."""
    for band in range(bands):
        columns = matrix[:, band * rows : (band + 1) * rows]
        # Rows share a bucket only if they share the band's first value, so
        # only those rows, found by binary search in the sorted repeated
        # values (np.isin would load numpy.ma), are sorted on the whole band.
        ranked = np.sort(columns[:, 0])
        repeated = ranked[1:][ranked[1:] == ranked[:-1]]
        if not len(repeated):
            continue
        at = np.searchsorted(repeated, columns[:, 0]).clip(max=len(repeated) - 1)
        subset = np.flatnonzero(repeated[at] == columns[:, 0])
        block = columns[subset]
        if groups is not None:  # the group code sorts first
            block = np.column_stack([groups[subset].astype(np.uint64), block])
        # Big-endian, a row's bytes sort in the numeric order of its values.
        keys = np.ascontiguousarray(block, dtype=">u8").view(f"V{8 * block.shape[1]}").ravel()
        by_key = np.argsort(keys, kind="stable")  # ascending rows within a bucket
        order, keys = subset[by_key], keys[by_key]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = keys[1:] != keys[:-1]
        bounds = np.append(np.flatnonzero(starts), len(order))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi - lo > 1:
                yield order[lo:hi].tolist()


def lsh_candidates(
    signatures: Mapping[str, MinHashSignature], bands: int, rows: int
) -> set[tuple[str, str]]:
    """All unordered id pairs sharing at least one identical band."""
    ids = sorted(signatures)
    for doc_id in ids:
        if bands * rows != signatures[doc_id].k:
            raise DedupConfigError(
                f"bands*rows = {bands * rows} != "
                f"signature length {signatures[doc_id].k}"
            )
    if not ids:
        return set()
    matrix = np.array([signatures[i].values for i in ids], dtype=np.uint64)
    pairs: set[tuple[str, str]] = set()
    for bucket in _buckets(matrix, bands, rows):
        pairs.update(combinations([ids[row] for row in bucket], 2))
    return pairs


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
    """Disjoint sets; a set's root is its smallest member."""

    def __init__(self, ids: Iterable[Hashable] = ()):
        self.parent: dict = {i: i for i in ids}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        px, py = self.find(x), self.find(y)
        if px != py:
            self.parent[max(px, py)] = min(px, py)


def _merge(uf: UnionFind, similarity: dict, a, b, score: float) -> None:
    """Join ``a`` and ``b``, which verified at ``score``, and keep each end's
    highest merging score."""
    uf.union(a, b)
    for x in (a, b):
        similarity[x] = max(similarity.get(x, score), score)


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
            _merge(uf, similarity, a, b, score)
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


def _cluster_buckets(
    buckets: Iterable[list[int]],
    n: int,
    verify: Callable[[int, int], float],
    verify_threshold: float,
) -> tuple[UnionFind, dict[int, float], int]:
    """Union-find over rows ``0 .. n-1`` joining bucket members whose
    verified similarity clears the threshold, each member verified against
    the components already in its bucket; with each merged row's highest
    merging score and the number of pairs verified."""
    uf = UnionFind(range(n))
    similarity: dict[int, float] = {}
    failed: set[tuple[int, int]] = set()
    verified = 0
    for bucket in buckets:
        present: dict[int, list[int]] = {}  # root -> its members in this bucket so far
        for row in bucket:
            joined = present.pop(uf.find(row), [])
            for root in list(present):
                for other in present[root]:
                    if (other, row) in failed:
                        continue
                    verified += 1
                    score = verify(other, row)
                    if score < verify_threshold:
                        failed.add((other, row))
                        continue
                    _merge(uf, similarity, other, row, score)
                    # Take the component's list itself when the row brings
                    # none, so a large cluster is not copied once per row.
                    if joined:
                        joined += present.pop(root)
                    else:
                        joined = present.pop(root)
                    break
            joined.append(row)
            present[uf.find(row)] = joined
    return uf, similarity, verified


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
    verified_pairs: int = 0  # pairs whose similarity was computed

    @property
    def largest_cluster(self) -> int:
        """Members of the largest cluster; 0 when no document was signed."""
        if self.clusters is None:
            return 0
        return max(map(len, self.clusters.clusters().values()), default=0)


def dedup(corpus: Corpus, params: DedupParams) -> DedupResult:
    """Remove all but one document from every near-duplicate cluster.

    Documents too short to shingle bypass dedup unremoved. The retained
    sequence follows corpus order; removed documents are reported with
    their cluster representative and their highest verified similarity to
    a document they were merged with.
    """
    docs = list(corpus.documents)
    ranked = sorted(docs, key=Document.sort_key)  # rows go in (collection, id) order
    vocab = _TokenHashes()
    k = params.signature_length
    signed: list[Document] = []
    shingle_sets: list[ShingleSet] = []  # read only by exact verification

    def shingled() -> Iterator[np.ndarray]:
        for doc, text in zip(ranked, normalize_many(doc.text for doc in ranked)):
            hashes = _shingle_hashes(text, params.ngram_order, vocab)
            if len(hashes):
                signed.append(doc)
                if params.exact_verification:
                    shingle_sets.append(ShingleSet(frozenset(hashes.tolist()), params.ngram_order))
                yield hashes

    # Rows of documents too short to shingle stay unused at the end.
    matrix = np.empty((len(ranked), k), dtype=np.uint64)
    at = 0
    for block in _batches(shingled(), _SIGN_BLOCK, len):
        _sign(block, params.seed, matrix[at : at + len(block)])
        at += len(block)
    matrix = matrix[:at]
    ids = [doc.id for doc in signed]

    def verify_rows(a: int, b: int) -> float:
        if params.exact_verification:
            return exact_jaccard(shingle_sets[a], shingle_sets[b])
        return int(np.count_nonzero(matrix[a] == matrix[b])) / k

    if params.candidates == "lsh":
        groups = None
        if params.mode == "per_crawl":
            code = {name: i for i, name in enumerate(sorted({doc.collection for doc in signed}))}
            groups = np.array([code[doc.collection] for doc in signed])
        buckets = _buckets(matrix, params.bands, params.rows, groups)
        uf, row_similarity, verified = _cluster_buckets(
            buckets, len(ids), verify_rows, params.verify_threshold
        )
        # Rows follow (collection, id) and a root is its set's smallest row,
        # so each root is its cluster's representative.
        cluster_set = DuplicateClusterSet(
            {doc_id: ids[uf.find(row)] for row, doc_id in enumerate(ids)},
            {ids[row]: score for row, score in row_similarity.items()},
        )
    else:
        row_of = {doc_id: row for row, doc_id in enumerate(ids)}
        verified = 0

        def verify(a: str, b: str) -> float:
            nonlocal verified
            verified += 1
            return verify_rows(row_of[a], row_of[b])

        cluster_set = cluster(
            combinations(sorted(ids), 2),
            ids,
            verify,
            params.verify_threshold,
            mode=params.mode,
            collections={doc.id: doc.collection for doc in signed},
            sort_keys={doc.id: doc.sort_key() for doc in signed},
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
    return DedupResult(
        retained_corpus, removals, removed_docs, cluster_set, verified
    )
