import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from refinery.dedup import (
    DedupConfigError,
    DedupParams,
    EmptyShingleSetError,
    MinHashSignature,
    ShingleSet,
    _buckets,
    _cluster_buckets,
    _sign,
    cluster,
    dedup,
    estimate_jaccard,
    exact_jaccard,
    lsh_candidates,
    shingle,
    signature,
)
from refinery.documents import Corpus, Document
from refinery.lid import normalize_for_lid

dedup_module = importlib.import_module("refinery.dedup")

from conftest import WORDS, random_text


def _doc(text, doc_id="d", collection=""):
    return Document(id=doc_id, lang="eng_Latn", text=text, collection=collection)


def _random_set(rng, size):
    return frozenset(rng.getrandbits(64) for _ in range(size))


def _pair_with_jaccard(rng, similarity, union_size=600):
    inter = round(similarity * union_size)
    common = [rng.getrandbits(64) for _ in range(inter)]
    rest = [rng.getrandbits(64) for _ in range(union_size - inter)]
    cut = len(rest) // 2
    a = ShingleSet(frozenset(common + rest[:cut]), 5)
    b = ShingleSet(frozenset(common + rest[cut:]), 5)
    return a, b


_REPO = Path(__file__).resolve().parents[1]
_MASK = (1 << 64) - 1


def _env_with_src(**extra):
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _py_mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _py_shingles(text, n):
    """The documented shingle hash, in plain Python ints."""
    t = [int.from_bytes(hashlib.blake2b(w.encode("utf-8"), digest_size=8).digest(),
                        "little")
         for w in normalize_for_lid(text).split()]
    g = 0x9E3779B97F4A7C15
    return {_py_mix64(sum(t[i + j] * g**j for j in range(n)) & _MASK)
            for i in range(len(t) - n + 1)}


def _py_signature(shingles, k, seed):
    """The documented sketch, round by round and one element at a time."""
    values = [None] * k
    r = 0
    while None in values:
        s_r = _py_mix64((seed + (r + 1) * 0x9E3779B97F4A7C15) & _MASK)
        for x in shingles:
            z = _py_mix64(x ^ s_r)
            i = ((z & 0xFFFFFFFF) * k) >> 32
            value = (r << 40) + (z >> 24)
            if values[i] is None or value < values[i]:
                values[i] = value
        r += 1
    return tuple(values)


class TestShingle:
    def test_enumeration(self):
        s = shingle(_doc("a b c"), n=2)
        assert len(s.shingles) == 2

    def test_short_document_empty(self):
        assert shingle(_doc("a"), n=3).shingles == frozenset()

    def test_matches_brute_force_count(self, rng):
        for _ in range(50):
            text = random_text(rng, max_lines=3, max_tokens=20)
            n = rng.randint(1, 4)
            tokens = normalize_for_lid(text).split()
            expected = {
                " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
            }
            assert len(shingle(_doc(text), n).shingles) == len(expected)

    def test_rejects_bad_order(self):
        with pytest.raises(DedupConfigError):
            shingle(_doc("a b"), n=0)

    def test_hash_matches_the_documented_definition(self, rng):
        texts = [random_text(rng, max_lines=3, max_tokens=20) for _ in range(30)]
        texts += ["a b a b a", "b a", "a b", "İstanbul Ünïcödé çà ça"]
        for text in texts:
            for n in (1, 2, 3, 5):
                assert shingle(_doc(text), n).shingles == _py_shingles(text, n)

    def test_hash_ignores_the_interpreter_hash_seed(self):
        script = ("from refinery.dedup import shingle; from refinery.documents import "
                  "Document; print(sorted(shingle(Document(id='d', lang='l', "
                  "text='uno dos tres cuatro uno dos'), 2).shingles))")
        outputs = set()
        for hash_seed in ("1", "2"):
            outputs.add(subprocess.run([sys.executable, "-c", script],
                                       env=_env_with_src(PYTHONHASHSEED=hash_seed),
                                       check=True, capture_output=True,
                                       text=True, timeout=120).stdout)
        assert len(outputs) == 1


class TestSignature:
    def test_deterministic(self, rng):
        s = ShingleSet(_random_set(rng, 100), 5)
        assert signature(s, 64, 9) == signature(s, 64, 9)

    def test_self_similarity(self, rng):
        s = ShingleSet(_random_set(rng, 100), 5)
        sig = signature(s, 128, 1)
        assert estimate_jaccard(sig, sig) == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyShingleSetError):
            signature(ShingleSet(frozenset(), 5), 16, 0)

    def test_estimator_accuracy(self, rng):
        errs = []
        for trial in range(200):
            s = rng.choice([i / 10 for i in range(1, 10)])
            a, b = _pair_with_jaccard(rng, s)
            exact = exact_jaccard(a, b)
            est = estimate_jaccard(signature(a, 256, trial), signature(b, 256, trial))
            errs.append(abs(est - exact))
        assert sum(errs) / len(errs) <= 0.05

    def test_estimator_unbiased_across_seeds(self, rng):
        a, b = _pair_with_jaccard(rng, 0.5)
        exact = exact_jaccard(a, b)
        k = 256
        n_seeds = 120
        estimates = [
            estimate_jaccard(signature(a, k, seed), signature(b, k, seed))
            for seed in range(n_seeds)
        ]
        mean = sum(estimates) / n_seeds
        stderr = math.sqrt(exact * (1 - exact) / k) / math.sqrt(n_seeds)
        assert abs(mean - exact) <= 3 * stderr

    def test_disjoint_sets_estimate_low(self, rng):
        for seed in range(50):
            a = ShingleSet(_random_set(rng, 1000), 5)
            b = ShingleSet(_random_set(rng, 1000), 5)
            est = estimate_jaccard(signature(a, 256, seed), signature(b, 256, seed))
            assert est <= 0.05

    def test_symmetry(self, rng):
        for seed in range(20):
            a, b = _pair_with_jaccard(rng, rng.random())
            sa, sb = signature(a, 64, seed), signature(b, 64, seed)
            assert estimate_jaccard(sa, sb) == estimate_jaccard(sb, sa)

    @pytest.mark.parametrize("k, size", [(1, 5), (16, 40), (256, 300), (256, 1), (256, 2000)])
    def test_matches_plain_python_minhash(self, rng, k, size):
        # One element takes some 1,500 rounds at k = 256, in batches of
        # growing width; 2,000 elements fill most rows in one.
        s = ShingleSet(_random_set(rng, size), 5)
        for seed in (0, 7, 2**64 - 1):
            assert signature(s, k, seed).values == _py_signature(s.shingles, k, seed)

    @pytest.mark.parametrize("block", [1 << 16, 300, 7])
    def test_a_block_signs_each_set_as_it_signs_alone(self, rng, monkeypatch, block):
        # A block of 7 mixes one (shingle, round) pair at a time.
        sets = [_random_set(rng, size) for size in (1, 5, 2000, 5, 1, 2000, 1)]
        arrays = [np.fromiter(s, dtype=np.uint64, count=len(s)) for s in sets]
        monkeypatch.setattr(dedup_module, "_SIGN_BLOCK", block)
        rows = np.empty((len(sets), 256), dtype=np.uint64)
        _sign(arrays, 11, rows)
        monkeypatch.undo()
        for s, row in zip(sets, rows.tolist()):
            assert tuple(row) == signature(ShingleSet(s, 5), 256, 11).values
        assert (rows != np.iinfo(np.uint64).max).all()  # every component filled

    def test_mismatched_signatures_rejected(self, rng):
        s = ShingleSet(_random_set(rng, 10), 5)
        with pytest.raises(DedupConfigError):
            estimate_jaccard(signature(s, 64, 0), signature(s, 64, 1))
        with pytest.raises(DedupConfigError):
            estimate_jaccard(signature(s, 64, 0), signature(s, 32, 0))


class TestLsh:
    def test_identical_signatures_always_candidates(self, rng):
        s = ShingleSet(_random_set(rng, 200), 5)
        for bands, rows in [(16, 16), (32, 8), (8, 32)]:
            sigs = {
                "x": signature(s, bands * rows, 3),
                "y": signature(s, bands * rows, 3),
            }
            assert lsh_candidates(sigs, bands, rows) == {("x", "y")}

    def test_band_shape_validated(self, rng):
        s = ShingleSet(_random_set(rng, 10), 5)
        with pytest.raises(DedupConfigError):
            lsh_candidates({"x": signature(s, 64, 0)}, bands=10, rows=10)

    def test_signature_length_is_bands_times_rows(self):
        assert DedupParams(bands=4, rows=8).signature_length == 32

    def test_matches_brute_force_band_comparison(self, rng):
        sets = {}
        for i in range(120):
            if i % 3 == 0 and i:
                base = sets[f"id{i - 1}"]
                mutated = set(base)
                for _ in range(rng.randint(0, 4)):
                    mutated.add(rng.getrandbits(64))
                sets[f"id{i}"] = frozenset(mutated)
            else:
                sets[f"id{i}"] = _random_set(rng, rng.randint(20, 60))
        bands, rows = 8, 4
        sigs = {
            name: signature(ShingleSet(s, 5), bands * rows, 11)
            for name, s in sets.items()
        }
        expected = set()
        for a, b in combinations(sorted(sigs), 2):
            va, vb = sigs[a].values, sigs[b].values
            for band in range(bands):
                lo, hi = band * rows, (band + 1) * rows
                if va[lo:hi] == vb[lo:hi]:
                    expected.add((a, b))
                    break
        assert lsh_candidates(sigs, bands, rows) == expected

    def test_matches_brute_force_on_colliding_values(self, rng):
        # Values from {0, 1, 2}: rows agree on some band columns and not others.
        for bands, rows in [(1, 1), (2, 4), (4, 2)]:
            k = bands * rows
            sigs = {f"id{i:02d}": MinHashSignature(
                tuple(rng.randrange(3) for _ in range(k)), k, 0) for i in range(60)}
            expected = {
                (a, b) for a, b in combinations(sorted(sigs), 2)
                if any(sigs[a].values[lo : lo + rows] == sigs[b].values[lo : lo + rows]
                       for lo in range(0, k, rows))
            }
            assert lsh_candidates(sigs, bands, rows) == expected

    def test_no_first_band_value_repeats(self):
        # Distinct first values leave no repeats to search, even though the
        # rest of every band agrees.
        matrix = np.full((6, 8), 7, dtype=np.uint64)
        matrix[:, ::4] = np.arange(12, dtype=np.uint64).reshape(6, 2)
        assert list(_buckets(matrix, 2, 4)) == []
        sigs = {f"id{i}": MinHashSignature(tuple(row), 8, 0)
                for i, row in enumerate(matrix.tolist())}
        assert lsh_candidates(sigs, 2, 4) == set()

    def test_every_row_identical(self):
        matrix = np.tile(np.arange(8, dtype=np.uint64), (5, 1))
        assert list(_buckets(matrix, 4, 2)) == [[0, 1, 2, 3, 4]] * 4
        sigs = {f"id{i}": MinHashSignature(tuple(row), 8, 0)
                for i, row in enumerate(matrix.tolist())}
        assert lsh_candidates(sigs, 4, 2) == set(combinations(sorted(sigs), 2))

    def test_buckets_split_by_group_code(self):
        matrix = np.zeros((5, 2), dtype=np.uint64)
        matrix[4] = 1
        groups = np.array([1, 0, 1, 0, 0])
        assert list(_buckets(matrix, 1, 2, groups)) == [[1, 3], [0, 2]]

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("bands, rows", [(1, 1), (3, 2), (2, 5)])
    def test_buckets_come_in_the_lexsort_order(self, grouped, bands, rows):
        # Few values, so that first values collide and whole bands repeat,
        # most of them at or above 2**56, where little-endian bytes sort
        # out of numeric order. Bucket order decides which pairs
        # _cluster_buckets verifies.
        values = np.array([1, 2, 2**56, 2**56 + 1, 3 << 56, 2**63, 2**64 - 1], dtype=np.uint64)
        gen = np.random.default_rng(bands * 10 + rows)
        for _ in range(40):
            n = int(gen.integers(2, 60))
            pool = gen.choice(values, int(gen.integers(2, 5)), replace=False)
            matrix = pool[gen.integers(0, len(pool), (n, bands * rows))]
            groups = gen.integers(0, 3, n) if grouped else None
            assert (list(_buckets(matrix, bands, rows, groups))
                    == list(_lexsort_buckets(matrix, bands, rows, groups)))


def _lexsort_buckets(matrix, bands, rows, groups=None):
    """``_buckets`` as it was when it sorted each band with ``np.lexsort``."""
    for band in range(bands):
        columns = matrix[:, band * rows : (band + 1) * rows]
        ranked = np.sort(columns[:, 0])
        repeated = ranked[1:][ranked[1:] == ranked[:-1]]
        if not len(repeated):
            continue
        at = np.searchsorted(repeated, columns[:, 0]).clip(max=len(repeated) - 1)
        subset = np.flatnonzero(repeated[at] == columns[:, 0])
        keys = [columns[subset, c] for c in reversed(range(rows))]
        if groups is not None:
            keys.append(groups[subset])
        order = subset[np.lexsort(keys)]
        ordered = columns[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        if groups is not None:
            starts[1:] |= np.diff(groups[order]) != 0
        bounds = np.append(np.flatnonzero(starts), len(order))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi - lo > 1:
                yield order[lo:hi].tolist()


class TestCluster:
    def test_no_pairs_is_identity_partition(self):
        result = cluster([], ["a", "b", "c"], lambda x, y: 0.0, 0.5)
        assert result.clusters() == {"a": ["a"], "b": ["b"], "c": ["c"]}

    def test_chain_transitivity(self):
        result = cluster(
            [("a", "b"), ("b", "c")], ["a", "b", "c"], lambda x, y: 1.0, 0.8
        )
        assert result.clusters() == {"a": ["a", "b", "c"]}

    def test_matches_bfs_components(self, rng):
        for _ in range(25):
            ids = [f"n{i}" for i in range(rng.randint(2, 40))]
            pairs = set()
            for _ in range(rng.randint(0, 60)):
                a, b = rng.sample(ids, 2)
                pairs.add(tuple(sorted((a, b))))
            result = cluster(sorted(pairs), ids, lambda x, y: 1.0, 0.5)

            adjacency = {i: set() for i in ids}
            for a, b in pairs:
                adjacency[a].add(b)
                adjacency[b].add(a)
            seen = set()
            components = []
            for start in ids:
                if start in seen:
                    continue
                component = set()
                queue = [start]
                while queue:
                    node = queue.pop()
                    if node in component:
                        continue
                    component.add(node)
                    queue.extend(adjacency[node] - component)
                seen |= component
                components.append(frozenset(component))
            got = {frozenset(members) for members in result.clusters().values()}
            assert got == set(components)

    def test_threshold_gates_union(self):
        similarity = {("a", "b"): 0.9, ("b", "c"): 0.3}
        result = cluster(
            [("a", "b"), ("b", "c")],
            ["a", "b", "c"],
            lambda x, y: similarity[(x, y)],
            0.8,
        )
        assert result.clusters() == {"a": ["a", "b"], "c": ["c"]}

    def test_per_crawl_ignores_cross_collection_pairs(self):
        collections = {"a": "c1", "b": "c2", "c": "c1"}
        result = cluster(
            [("a", "b"), ("a", "c")],
            ["a", "b", "c"],
            lambda x, y: 1.0,
            0.5,
            mode="per_crawl",
            collections=collections,
        )
        assert result.clusters() == {"a": ["a", "c"], "b": ["b"]}

    def test_representative_is_smallest_sort_key(self):
        keys = {"x": ("crawl-b", "x"), "y": ("crawl-a", "y")}
        result = cluster(
            [("x", "y")], ["x", "y"], lambda a, b: 1.0, 0.5, sort_keys=keys
        )
        assert result.representative == {"x": "y", "y": "y"}


def test_bucket_clustering_matches_components_of_verified_bucket_pairs(rng):
    for _ in range(300):
        n = rng.randint(2, 20)
        sim = {pair: rng.random() for pair in combinations(range(n), 2)}
        buckets = [sorted(rng.sample(range(n), rng.randint(2, n)))
                   for _ in range(rng.randint(0, 5))]
        threshold = rng.choice([0.2, 0.5, 0.8])
        calls = []

        def verify(a, b):
            calls.append((a, b))
            return sim[a, b]

        uf, similarity, verified = _cluster_buckets(buckets, n, verify, threshold)
        shared = {pair for bucket in buckets for pair in combinations(bucket, 2)}
        edges = cluster(sorted(p for p in shared if sim[p] >= threshold), range(n),
                        lambda a, b: 1.0, 0.5)
        got = {}
        for row in range(n):
            got.setdefault(uf.find(row), set()).add(row)
        assert sorted(map(sorted, got.values())) == sorted(edges.clusters().values())
        # Each verified pair shares a bucket and is verified once.
        assert verified == len(calls) == len(set(calls))
        assert set(calls) <= shared
        for row in range(n):
            merging = [sim[c] for c in calls if row in c and sim[c] >= threshold]
            assert similarity.get(row) == max(merging, default=None)


def _duplicate_corpus(rng, n_groups=30, lang="eng_Latn"):
    """Corpus of groups: each group shares one text across 1-3 documents."""
    docs = []
    i = 0
    for _ in range(n_groups):
        text = random_text(rng, max_lines=4, max_tokens=14)
        for _ in range(rng.randint(1, 3)):
            docs.append(
                Document(
                    id=f"doc{i:04d}",
                    lang=lang,
                    text=text,
                    collection=rng.choice(["crawl-a", "crawl-b"]),
                )
            )
            i += 1
    return Corpus(docs, lang)


class TestDedup:
    def test_distinct_corpus_untouched(self, rng):
        texts = [
            " ".join(rng.sample(WORDS, 8)) + f" marker{i}" for i in range(20)
        ]
        docs = [_doc(t, doc_id=f"d{i}") for i, t in enumerate(texts)]
        corpus = Corpus(docs, "eng_Latn")
        result = dedup(corpus, DedupParams())
        assert result.retained.documents == docs
        assert result.removals == []

    def test_identical_pair_keeps_smaller_key(self):
        text = "one two three four five six seven eight nine ten eleven twelve"
        a = _doc(text, "idB", collection="crawl-b")
        b = _doc(text, "idA", collection="crawl-a")
        result = dedup(Corpus([a, b], "eng_Latn"), DedupParams())
        assert [d.id for d in result.retained] == ["idA"]
        assert result.removals[0].id == "idB"
        assert result.removals[0].representative_id == "idA"
        assert result.removals[0].estimated_jaccard == 1.0
        assert result.removed_docs[0].removed_reason == "duplicate"

    @pytest.mark.parametrize("exact", [False, True])
    def test_transitive_merge_logs_a_similarity_that_cleared_the_threshold(self, exact):
        # b overlaps a and c by 90 of 102 shingles; a and c share only 84 of
        # 108 (0.78), so c joins a's cluster through b alone.
        tokens = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(112)]
        docs = [_doc(" ".join(tokens[shift : shift + 100]), doc_id)
                for doc_id, shift in (("a", 0), ("b", 6), ("c", 12))]
        params = DedupParams(candidates="all_pairs", exact_verification=exact)
        shingles = [shingle(d, params.ngram_order) for d in docs]
        assert exact_jaccard(shingles[0], shingles[2]) == pytest.approx(84 / 108)
        result = dedup(Corpus(docs, "eng_Latn"), params)
        assert [d.id for d in result.retained] == ["a"]
        logged = {r.id: (r.representative_id, r.estimated_jaccard) for r in result.removals}
        assert logged["c"][0] == "a"
        assert all(sim >= params.verify_threshold for _, sim in logged.values())
        if exact:
            assert logged == {"b": ("a", 90 / 102), "c": ("a", 90 / 102)}

    def test_too_short_documents_bypass(self):
        docs = [_doc("tiny", "a"), _doc("tiny", "b")]
        result = dedup(Corpus(docs, "eng_Latn"), DedupParams(ngram_order=5))
        assert [d.id for d in result.retained] == ["a", "b"]

    def test_retained_set_invariant_under_permutation(self, rng):
        corpus = _duplicate_corpus(rng)
        params = DedupParams()
        baseline = {d.id for d in dedup(corpus, params).retained}
        for _ in range(3):
            shuffled = list(corpus.documents)
            rng.shuffle(shuffled)
            result = dedup(Corpus(shuffled, corpus.language), params)
            assert {d.id for d in result.retained} == baseline

    def test_idempotent(self, rng):
        corpus = _duplicate_corpus(rng)
        params = DedupParams()
        once = dedup(corpus, params)
        twice = dedup(once.retained, params)
        assert [d.id for d in twice.retained] == [d.id for d in once.retained]
        assert twice.removals == []

    def test_per_crawl_spares_cross_collection_duplicates(self):
        text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
        a = _doc(text, "a", collection="crawl-a")
        b = _doc(text, "b", collection="crawl-b")
        corpus = Corpus([a, b], "eng_Latn")
        kept_global = dedup(corpus, DedupParams(mode="global")).retained
        kept_crawl = dedup(corpus, DedupParams(mode="per_crawl")).retained
        assert [d.id for d in kept_global] == ["a"]
        assert [d.id for d in kept_crawl] == ["a", "b"]

    def test_per_crawl_codes_collections_in_sorted_order(self, rng):
        # The collections are first seen in an order unlike their sorted one;
        # LSH buckets must still group, and order, as verifying all pairs does.
        names = ["crawl-z", "crawl-b", "crawl-m"]
        docs = [doc.replace(collection=names[i // 2 % 3])
                for i, doc in enumerate(_duplicate_corpus(rng, n_groups=40))]
        corpus = Corpus(docs, "eng_Latn")
        lsh = dedup(corpus, DedupParams(mode="per_crawl"))
        oracle = dedup(corpus, DedupParams(mode="per_crawl", candidates="all_pairs"))
        assert lsh.clusters.representative == oracle.clusters.representative
        assert lsh.removals == oracle.removals
        assert lsh.removals  # duplicates within a collection were found
        spared = len(dedup(corpus, DedupParams()).removals) - len(lsh.removals)
        assert spared > 0  # and some across collections were kept

    def _oracle_retained(self, corpus, params):
        """Quadratic exact-Jaccard + connected-components reference."""
        shingles = {d.id: shingle(d, params.ngram_order) for d in corpus}
        ids = [d.id for d in corpus if shingles[d.id].shingles]
        adjacency = {i: set() for i in ids}
        for a, b in combinations(ids, 2):
            if exact_jaccard(shingles[a], shingles[b]) >= params.verify_threshold:
                adjacency[a].add(b)
                adjacency[b].add(a)
        keys = {d.id: d.sort_key() for d in corpus}
        retained = {d.id for d in corpus if not shingles[d.id].shingles}
        seen = set()
        for start in ids:
            if start in seen:
                continue
            component = set()
            queue = [start]
            while queue:
                node = queue.pop()
                if node in component:
                    continue
                component.add(node)
                queue.extend(adjacency[node] - component)
            seen |= component
            retained.add(min(component, key=lambda i: keys[i]))
        return retained

    def test_matches_quadratic_oracle_exact_mode(self, rng):
        params = DedupParams(candidates="all_pairs", exact_verification=True)
        for _ in range(5):
            corpus = _duplicate_corpus(rng, n_groups=40)
            assert len(corpus) <= 200
            got = {d.id for d in dedup(corpus, params).retained}
            assert got == self._oracle_retained(corpus, params)


def _short_at_chunk_ends(rng, chunks=3):
    """A duplicate corpus whose documents at both ends of each of
    ``chunks`` equal chunks, in (collection, id) order, are too short to
    shingle: two at each chunk's start, one at its end."""
    ranked = sorted(_duplicate_corpus(rng, n_groups=40), key=Document.sort_key)
    bounds = [len(ranked) * i // chunks for i in range(chunks + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        for i in (start, start + 1, stop - 1):
            ranked[i] = ranked[i].replace(text="too short")
    return Corpus(ranked, "eng_Latn")


@pytest.mark.parametrize("case", ["short_at_chunk_ends", "exact_verification",
                                  "none_shingles", "empty"])
def test_rows_sign_in_blocks_as_each_document_does_alone(monkeypatch, rng, case):
    corpus = _short_at_chunk_ends(rng)
    if case == "none_shingles":
        corpus = Corpus([doc.replace(text="too short") for doc in corpus], "eng_Latn")
    elif case == "empty":
        corpus = Corpus([], "eng_Latn")
    params = DedupParams(exact_verification=case == "exact_verification")
    matrices = []
    buckets = dedup_module._buckets

    def keep_matrix(matrix, *args):
        matrices.append(matrix.copy())
        return buckets(matrix, *args)

    monkeypatch.setattr(dedup_module, "_buckets", keep_matrix)
    whole = dedup(corpus, params)
    # Blocks of a few documents each, with unshingled ones between them.
    monkeypatch.setattr(dedup_module, "_SIGN_BLOCK", 100)
    blocks = dedup(corpus, params)
    ranked = sorted(corpus, key=Document.sort_key)
    alone = [signature(s, params.signature_length, params.seed).values
             for s in (shingle(doc, params.ngram_order) for doc in ranked) if s.shingles]
    for matrix in matrices:
        assert matrix.shape == (len(alone), params.signature_length)
        assert [tuple(row) for row in matrix.tolist()] == alone
    assert blocks.removals == whole.removals
    assert [doc.id for doc in blocks.retained] == [doc.id for doc in whole.retained]
    assert blocks.clusters == whole.clusters
    assert bool(whole.removals) == (case in ("short_at_chunk_ends", "exact_verification"))


def test_token_hash_is_hashlibs_blake2b():
    # dedup binds blake2b from _blake2 so that no run loads OpenSSL; it must
    # stay the function hashlib documents, or token hashes could drift.
    # (The package's attribute ``dedup`` is the function, not the module.)
    assert importlib.import_module("refinery.dedup").blake2b is hashlib.blake2b


def _chain_corpus(rng, n_chains=12):
    """Chains of documents, each a window of its chain's tokens shifted a
    little further: neighbours are alike, a chain's ends may not be, and
    chains share some tokens so that unlike documents share buckets."""
    pool = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(200)]
    docs = []
    for chain in range(n_chains):
        tokens = [rng.choice(pool) for _ in range(60)]
        shift = 0
        for _ in range(rng.randint(1, 6)):
            docs.append(Document(
                id=f"c{chain:02d}d{len(docs):03d}", lang="eng_Latn",
                text=" ".join(tokens[shift : shift + 30]),
                collection=rng.choice(["crawl-a", "crawl-b"]),
            ))
            shift += rng.randint(0, 6)
    rng.shuffle(docs)
    return Corpus(docs, "eng_Latn")


@pytest.mark.parametrize("mode", ["global", "per_crawl"])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("bands, rows", [(16, 2), (1, 1)])
def test_lsh_partition_matches_verifying_every_candidate_pair(rng, mode, exact, bands, rows):
    # With one band of one row, a document shares a bucket with a chain's
    # end and middle alike, and only the middle may clear the threshold.
    for threshold in (0.3, 0.5, 0.8):
        params = DedupParams(ngram_order=2, bands=bands,
                             rows=rows, verify_threshold=threshold, mode=mode,
                             exact_verification=exact)
        corpus = _chain_corpus(rng)
        shingles = {d.id: shingle(d, params.ngram_order) for d in corpus}
        sigs = {i: signature(s, bands * rows, params.seed) for i, s in shingles.items()}
        pairs = sorted(lsh_candidates(sigs, params.bands, params.rows))

        def verify(a, b):
            if exact:
                return exact_jaccard(shingles[a], shingles[b])
            return estimate_jaccard(sigs[a], sigs[b])

        expected = cluster(pairs, sigs, verify, threshold, mode=mode,
                           collections={d.id: d.collection for d in corpus},
                           sort_keys={d.id: d.sort_key() for d in corpus})
        result = dedup(corpus, params)
        assert result.clusters.representative == expected.representative
        assert result.verified_pairs <= len(pairs)
        partners = {}
        for a, b in pairs:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        for record in result.removals:
            # The estimate is one of the document's own merging pairs.
            scores = {verify(record.id, x) for x in partners[record.id]}
            assert record.estimated_jaccard in scores
            assert threshold <= record.estimated_jaccard <= expected.similarity[record.id]


def _near_identical_corpus(rng, n, length=300):
    """``n`` documents of ``length`` tokens that differ from one base text in
    one token each."""
    def word():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))

    base = [word() for _ in range(length)]
    docs = []
    for i in range(n):
        tokens = list(base)
        tokens[rng.randrange(length)] = word()
        docs.append(Document(id=f"d{i:05d}", lang="eng_Latn", text=" ".join(tokens)))
    return Corpus(docs, "eng_Latn")


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_one_large_cluster_verifies_a_linear_number_of_pairs(rng, n):
    result = dedup(_near_identical_corpus(rng, n), DedupParams())
    assert len(result.retained) == 1
    assert result.largest_cluster == n
    # Every pair here clears the threshold, so each verified pair joins two
    # clusters: at most n - 1 of them, against about n(n-1)/2 candidate pairs.
    assert result.verified_pairs < n


@pytest.mark.parametrize("tokens", [1000, 10000])
def test_repeated_shingle_documents_sign_in_linear_time(monkeypatch, tokens):
    # Two documents of one repeated word: every window is the same shingle,
    # so a row fills one component per round and needs some k ln k rounds.
    # Each round must mix the row's one distinct hash, not every repeat.
    mixed = []
    mix64 = dedup_module._mix64
    monkeypatch.setattr(dedup_module, "_mix64", lambda z: mixed.append(z.size) or mix64(z))
    docs = [Document(id=f"r{i}", lang="eng_Latn", text=" ".join(["word"] * tokens))
            for i in range(2)]
    result = dedup(Corpus(docs, "eng_Latn"), DedupParams())
    assert [d.id for d in result.retained] == ["r0"]
    assert sum(mixed) / (2 * tokens) < 16  # about 2,000 before repeats were dropped
    repeated, once = np.empty((2, 256), dtype=np.uint64), np.empty((1, 256), dtype=np.uint64)
    _sign([np.full(tokens, 7, dtype=np.uint64), np.arange(tokens, dtype=np.uint64)], 0, repeated)
    _sign([np.array([7], dtype=np.uint64)], 0, once)
    assert (repeated[0] == once[0]).all()


def test_one_large_exact_cluster_matches_all_pairs(rng):
    text = _near_identical_corpus(rng, 1).documents[0].text
    docs = [Document(id=f"d{i:05d}", lang="eng_Latn", text=text,
                     collection=rng.choice(["crawl-a", "crawl-b"])) for i in range(300)]
    rng.shuffle(docs)
    corpus = Corpus(docs, "eng_Latn")
    result = dedup(corpus, DedupParams())
    oracle = dedup(corpus, DedupParams(candidates="all_pairs"))
    assert result.largest_cluster == 300
    assert result.removals == oracle.removals
    assert result.clusters.representative == oracle.clusters.representative
    assert [d.id for d in result.retained] == [d.id for d in oracle.retained]


def test_minhash_calibration_script_runs():
    result = subprocess.run(
        [sys.executable, str(_REPO / "scripts" / "minhash_calibration.py"), "--trials", "3"],
        env=_env_with_src(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "banding detection" in result.stdout
