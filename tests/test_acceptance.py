"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import json
import math
import random
import time
import unicodedata
from collections import Counter
from itertools import combinations

import pytest

from refinery.analytics import (
    domain_report,
    in_language_ratio,
    length_profiles,
    proportion_ci,
    summary_from_totals,
    top_ngrams,
    unique_segment_ratio,
    wilson_interval,
)
from refinery.cli import main
from refinery.dedup import (
    DedupParams,
    ShingleSet,
    dedup,
    estimate_jaccard,
    exact_jaccard,
    lsh_candidates,
    shingle,
    signature,
)
from refinery.documents import Corpus, Document, read_documents, segment_text
from refinery.evalagg import (
    EvalGrid,
    TaskMeta,
    language_score,
    multilingual_scores,
    rescale,
    select_tasks,
)
from refinery.lid import normalize_for_lid
from refinery.packaging import (
    UNBINNED,
    assign_bins,
    package_corpus,
    sort_bin,
)
from refinery.wds import _oddity_penalty, WdsConfig, score_document, wds_level

from conftest import build_pipeline_fixture, random_text, snapshot_tree


def _ok(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} PASS - {message}")


def _set_pair(rng, similarity, union_size=800):
    inter = round(similarity * union_size)
    common = [rng.getrandbits(64) for _ in range(inter)]
    rest = [rng.getrandbits(64) for _ in range(union_size - inter)]
    cut = len(rest) // 2
    a = ShingleSet(frozenset(common + rest[:cut]), 5)
    b = ShingleSet(frozenset(common + rest[cut:]), 5)
    return a, b


def test_c01_minhash_estimator_accuracy():
    rng = random.Random(101)
    started = time.perf_counter()
    errors = []
    for trial in range(200):
        s = rng.choice([i / 10 for i in range(1, 10)])
        a, b = _set_pair(rng, s)
        exact = exact_jaccard(a, b)
        est = estimate_jaccard(signature(a, 256, trial), signature(b, 256, trial))
        errors.append(abs(est - exact))
    elapsed = time.perf_counter() - started
    mae = sum(errors) / len(errors)
    assert mae <= 0.05
    assert elapsed < 30.0
    _ok(1, f"estimator MAE {mae:.4f} <= 0.05 over 200 pairs in {elapsed:.2f}s")


def test_c02_lsh_detection_probability():
    rng = random.Random(202)
    s, rows, bands = 0.8, 8, 16
    detected = 0
    trials = 500
    for trial in range(trials):
        a, b = _set_pair(rng, s, union_size=500)
        sig_a = signature(a, bands * rows, trial)
        sig_b = signature(b, bands * rows, trial)
        if lsh_candidates({"a": sig_a, "b": sig_b}, bands, rows):
            detected += 1
    rate = detected / trials
    formula = 1 - (1 - s**rows) ** bands
    assert abs(rate - formula) <= 0.1
    _ok(2, f"detection rate {rate:.3f} within 0.1 of closed form {formula:.3f}")


def _oracle_dedup_retained(corpus, params):
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
        component, queue = set(), [start]
        while queue:
            node = queue.pop()
            if node in component:
                continue
            component.add(node)
            queue.extend(adjacency[node] - component)
        seen |= component
        retained.add(min(component, key=lambda i: keys[i]))
    return retained


def test_c03_dedup_oracle_equivalence_and_determinism():
    rng = random.Random(303)
    params = DedupParams(
        ngram_order=3, candidates="all_pairs", exact_verification=True
    )
    for round_no in range(4):
        docs = []
        i = 0
        for _ in range(rng.randint(30, 60)):
            text = random_text(rng, max_lines=5, max_tokens=10)
            for _ in range(rng.randint(1, 3)):
                docs.append(
                    Document(
                        id=f"d{i:04d}",
                        lang="eng_Latn",
                        text=text,
                        collection=rng.choice(["a", "b"]),
                    )
                )
                i += 1
        assert len(docs) <= 200
        corpus = Corpus(docs, "eng_Latn")
        expected = _oracle_dedup_retained(corpus, params)
        got = {d.id for d in dedup(corpus, params).retained}
        assert got == expected

        shuffled = list(docs)
        rng.shuffle(shuffled)
        got_shuffled = {
            d.id for d in dedup(Corpus(shuffled, "eng_Latn"), params).retained
        }
        assert got_shuffled == expected
    _ok(3, "retained sets equal the quadratic oracle; shuffle invariant")


def _random_unicode_string(rng, max_len=60):
    chars = []
    for _ in range(rng.randint(0, max_len)):
        while True:
            cp = rng.randrange(0x0, 0x2FFFF)
            if not (0xD800 <= cp <= 0xDFFF):  # skip surrogates
                break
        chars.append(chr(cp))
    return "".join(chars)


def test_c04_lid_preprocessing_invariants():
    assert normalize_for_lid("Hello, World! 123") == "hello world"
    rng = random.Random(404)
    allowed = {"Ll", "Lm", "Lo", "Mn", "Mc", "Me"}
    for _ in range(10_000):
        text = _random_unicode_string(rng)
        out = normalize_for_lid(text)
        assert normalize_for_lid(out) == out
        assert out == out.strip() and "  " not in out
        for ch in out:
            cat = unicodedata.category(ch)
            assert not ch.isupper() and cat != "Nd"
            assert not cat.startswith("P") and not cat.startswith("S")
            assert ch == " " or cat in allowed
    _ok(4, "idempotence and character classes hold on 10^4 fuzzed strings")


def _letter_text(rng, n_tokens):
    words = [
        "w" + "".join(chr(97 + int(c)) for c in str(k)) + "z" * (k % 3)
        for k in range(n_tokens)
    ]
    lines = [" ".join(words[j : j + 8]) for j in range(0, n_tokens, 8)]
    return "\n".join(lines)


def test_c05_wds_invariant_suite():
    rng = random.Random(505)
    config = WdsConfig()
    assert score_document(Document(id="e", lang="l", text=""), 1.0).score == 0.0
    pristine = score_document(
        Document(id="p", lang="l", text=_letter_text(rng, 250)), 1.0
    )
    assert pristine.score == 10.0 and pristine.level == 10

    signals = ("non_letter_ratio", "digit_ratio", "repeated_line_ratio", "url_density")
    for _ in range(1000):
        doc = Document(
            id="x",
            lang="l",
            text=random_text(rng, max_lines=10, max_tokens=20),
        )
        p1, p2 = sorted((rng.random(), rng.random()))
        r1, r2 = score_document(doc, p1, config), score_document(doc, p2, config)
        # 1) monotone in language share
        assert r1.score <= r2.score
        # 2) monotone in each single oddity subsignal
        base = dict(r2.subsignals)
        for name in signals:
            bumped = dict(base)
            bumped[name] = base[name] + rng.uniform(0, 1.5)
            worse = 10 * p2 * r2.length_score * (1 - _oddity_penalty(bumped, config))
            assert worse <= r2.score + 1e-12
        # 3) level is a monotone projection
        assert wds_level(r1.score) <= wds_level(r2.score)
        # 4) duplicating the text: share factor unchanged, length never drops
        doubled = score_document(
            Document(id="x", lang="l", text=doc.text + "\n" + doc.text), p2, config
        )
        assert doubled.language_share_score == r2.language_share_score
        assert doubled.length_score >= r2.length_score
    _ok(5, "four invariants hold on 10^3 documents; empty->0; pristine->10")


def test_c06_packaging_round_trip(tmp_path):
    rng = random.Random(606)
    docs = [
        Document(
            id=f"d{i:05d}",
            lang="eng_Latn",
            collection=rng.choice(["a", "b"]),
            text=random_text(rng, max_lines=6, max_tokens=12),
            wds=round(rng.uniform(0, 10), 4),
        )
        for i in range(10_000)
    ]
    corpus = Corpus(docs, "eng_Latn")
    limit = 8192
    from refinery.packaging import PackagingConfig

    config = PackagingConfig(max_uncompressed_bytes=limit, compression_level=3)
    manifests = package_corpus(corpus, tmp_path, config)

    bins = assign_bins(corpus)
    assert set(bins) <= {5, 6, 7, 8, 9, 10, UNBINNED}
    assert sorted(d.id for docs_ in bins.values() for d in docs_) == sorted(
        d.id for d in corpus
    )
    for key, members in bins.items():
        bin_manifests = [m for m in manifests if m.wds_bin == key]
        read_back = [doc for m in bin_manifests for doc in read_documents(
            tmp_path / "eng_Latn" / str(m.wds_bin) / f"{m.shard_index}.jsonl.zst")]
        assert read_back == sort_bin(members)
        for m in bin_manifests:
            assert m.uncompressed_bytes <= limit
        assert sum(m.document_count for m in bin_manifests) == len(members)
    _ok(6, "10^4-doc round trip, size bound, sort order, and bin partition hold")


def _brute_ngrams(corpus, stopwords, order):
    counter = Counter()
    for doc in corpus:
        for seg in segment_text(doc.text):
            tokens = [t.lower() for t in seg.split()]
            for i in range(len(tokens) - order + 1):
                gram = tokens[i : i + order]
                if gram[0] in stopwords or gram[-1] in stopwords:
                    continue
                counter[" ".join(gram)] += 1
    return counter


def test_c07_analytics_oracle_equality():
    rng = random.Random(707)
    docs = []
    hosts = ["example.com", "en.wikipedia.org", "site.no", "data.org"]
    for i in range(500):
        text = random_text(rng, max_lines=30, max_tokens=6)
        n_segments = len(segment_text(text))
        docs.append(
            Document(
                id=f"d{i:04d}",
                lang="eng_Latn",
                text=text,
                url=(
                    f"https://{rng.choice(hosts)}/p/{i}"
                    if rng.random() < 0.8
                    else None
                ),
                seg_langs=tuple(
                    rng.choice(["eng_Latn", "zzz_Latn"]) for _ in range(n_segments)
                ),
            )
        )
    corpus = Corpus(docs, "eng_Latn")

    segs = [s for d in corpus for s in segment_text(d.text)]
    assert unique_segment_ratio(corpus) == len(set(segs)) / len(segs)

    large, short = length_profiles(corpus)
    assert large == sum(
        1 for d in corpus if len(segment_text(d.text)) > 25
    ) / len(corpus)
    seg_objects = [s for d in corpus for s in segment_text(d.text)]
    assert short == sum(1 for s in seg_objects if len(s.split()) < 3) / len(seg_objects)

    flat = [(label, d.lang) for d in corpus for label in d.seg_langs]
    assert in_language_ratio(corpus) == sum(
        1 for label, lang in flat if label == lang
    ) / len(flat)

    stopwords = frozenset({"data", "web", "line"})
    report = top_ngrams(corpus, stopwords)
    for order in (1, 2, 3, 4, 5):
        brute = _brute_ngrams(corpus, stopwords, order)
        assert report.top[order] == sorted(
            brute.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]

    domains = domain_report(corpus)
    with_url = [d for d in corpus if d.url]
    assert sum(domains.tld_counts.values()) == len(with_url)
    assert domains.host_counts.get("unknown", 0) == len(corpus) - len(with_url)
    wiki = sum(1 for d in with_url if "wikipedia.org" in d.url)
    assert domains.wikipedia_share == wiki / len(corpus)
    _ok(7, "unique/length/in-language/ngram/domain stats equal brute force")


def test_c08_published_table_arithmetic():
    basque = summary_from_totals(3_200_000, 3_200_000_000)
    czech = summary_from_totals(107_000_000, 126_000_000_000)
    assert abs(basque.avg_document_length - 991) / 991 < 0.05
    assert abs(czech.avg_document_length - 1171) / 1171 < 0.05
    _ok(
        8,
        f"avg lengths {basque.avg_document_length:.0f}/991 and "
        f"{czech.avg_document_length:.0f}/1171 within 5%",
    )


def test_c09_wilson_ci():
    assert proportion_ci(0, 100) == (0, 4)
    rng = random.Random(909)
    for _ in range(200):
        n = rng.randint(1, 1000)
        assert proportion_ci(n, n)[1] == 100

        k = rng.randint(0, n)
        # independent recomputation straight from the score-test inequality
        z = 1.96
        phat = k / n
        disc = math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
        low = (phat + z * z / (2 * n) - z * disc) / (1 + z * z / n)
        high = (phat + z * z / (2 * n) + z * disc) / (1 + z * z / n)
        low, high = min(max(0.0, low), phat), max(min(1.0, high), phat)

        def roundp(x):
            return math.floor(x * 100 + 0.5)

        assert proportion_ci(k, n) == (roundp(low), roundp(high))
        got_low, got_high = wilson_interval(k, n)
        assert 0.0 <= got_low <= phat <= got_high <= 1.0
    _ok(9, "(0,100)->(0,4); k=n upper bound 100; integer percents match formula")


def _pairwise_points(scores):
    return {
        m: sum(
            1.0 if scores[m] > scores[o] else 0.5 if scores[m] == scores[o] else 0.0
            for o in scores
            if o != m
        )
        for m in scores
    }


def test_c10_eval_aggregation():
    # rescale boundaries and clamping
    assert rescale(0.25, 0.25, 1.0) == 0.0
    assert rescale(1.0, 0.25, 1.0) == 1.0
    assert rescale(0.1, 0.25, 1.0) == 0.0

    # two-level categorical weighting: 0.5, not 1/3
    grid = EvalGrid(
        {
            ("m", "ta", "p", 1): 1.0,
            ("m", "tb0", "p", 1): 0.0,
            ("m", "tb1", "p", 1): 0.0,
        },
        {
            "ta": TaskMeta(0.0, 1.0, "A", "lang"),
            "tb0": TaskMeta(0.0, 1.0, "B", "lang"),
            "tb1": TaskMeta(0.0, 1.0, "B", "lang"),
        },
    )
    assert language_score(grid, "m", "lang") == pytest.approx(0.5)

    # Borda and average rank vs the pairwise brute force, all grid shapes <= 4x4
    rng = random.Random(1010)
    for n_models in (2, 3, 4):
        for n_langs in (1, 2, 3, 4):
            for _ in range(20):
                models = [f"m{i}" for i in range(n_models)]
                langs = [f"l{i}" for i in range(n_langs)]
                scores = {
                    m: {
                        lng: rng.choice([0.1, 0.3, 0.3, 0.6, 0.9]) for lng in langs
                    }
                    for m in models
                }
                report = multilingual_scores(scores)
                borda = {m: 0.0 for m in models}
                ranks = {m: 0.0 for m in models}
                for lng in langs:
                    points = _pairwise_points({m: scores[m][lng] for m in models})
                    for m in models:
                        borda[m] += points[m]
                        ranks[m] += n_models - points[m]
                for m in models:
                    assert report.borda_totals[m] == pytest.approx(borda[m])
                    assert report.average_rank[m] == pytest.approx(
                        ranks[m] / n_langs
                    )

    # unanimity collapse of the three aggregators
    strengths = {"m0": 0.9, "m1": 0.6, "m2": 0.3}
    unanimous = {
        m: {f"l{i}": strengths[m] + 0.01 * i for i in range(3)} for m in strengths
    }
    report = multilingual_scores(unanimous)
    by_avg = tuple(sorted(strengths, key=lambda m: -report.average_language_score[m]))
    by_rank = tuple(sorted(strengths, key=lambda m: report.average_rank[m]))
    assert by_avg == by_rank == report.borda_ranking == ("m0", "m1", "m2")

    # select_tasks monotonicity exactly +/-1 on strictly monotone series
    def one_task_grid(values):
        cells = {("m", "t", "p", c): v for c, v in enumerate(values, start=1)}
        return EvalGrid(cells, {"t": TaskMeta(0.0, 1.0, "c", "lang")})

    up = select_tasks(one_task_grid([0.1, 0.3, 0.5, 0.7]))
    down = select_tasks(one_task_grid([0.7, 0.5, 0.3, 0.1]))
    assert up.criteria["t"]["monotonicity"].value == 1.0
    assert down.criteria["t"]["monotonicity"].value == -1.0
    _ok(10, "rescale/two-level/Borda/rank/unanimity/monotone checks all hold")


def test_c11_end_to_end_determinism(tmp_path):
    config_path = build_pipeline_fixture(tmp_path, random.Random(1111), n_docs=500)
    trees = []
    for name in ("run1", "run2", "run3"):
        out = tmp_path / name
        code = main(["all", "--config", str(config_path), "--output", str(out)])
        assert code == 0
        trees.append(snapshot_tree(out))
    assert trees[0] == trees[1] == trees[2]
    shard_files = [p for p in trees[0] if p.endswith(".jsonl.zst")]
    assert shard_files, "pipeline produced no shards"
    _ok(
        11,
        "three runs byte-identical "
        f"({len(trees[0])} files, {len(shard_files)} shards)",
    )
