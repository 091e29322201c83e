import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from refinery import analytics
from refinery.analytics import (
    analyze_corpus,
    corpus_summary,
    domain_report,
    in_language_ratio,
    length_profiles,
    proportion_ci,
    render_report,
    summary_from_totals,
    top_ngrams,
    unique_segment_ratio,
    wilson_interval,
)
from refinery.documents import Corpus, Document, segment_text

from conftest import make_corpus


def _docs(*texts, lang="eng_Latn", **kwargs):
    return Corpus(
        [Document(id=f"d{i}", lang=lang, text=t, **kwargs) for i, t in enumerate(texts)],
        lang,
    )


class TestSummary:
    def test_single_document(self):
        summary = corpus_summary(_docs("a b c"))
        assert summary.document_count == 1
        assert summary.token_count == 3
        assert summary.avg_document_length == 3.0

    def test_share_of_reference(self):
        summary = corpus_summary(_docs("a b", "c d"), reference_total_tokens=16)
        assert summary.share_percent == 25.0

    def test_rounded_published_totals(self):
        # Average lengths derived from rounded headline (docs, tokens) pairs
        # land within 5% of the published averages.
        basque = summary_from_totals(3_200_000, 3_200_000_000)
        czech = summary_from_totals(107_000_000, 126_000_000_000)
        assert abs(basque.avg_document_length - 991) / 991 < 0.05
        assert abs(czech.avg_document_length - 1171) / 1171 < 0.05

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            summary_from_totals(0, 0)

    def test_token_count_matches_brute_force(self, rng):
        for _ in range(20):
            corpus = make_corpus(rng, rng.randint(1, 40))
            summary = corpus_summary(corpus)
            brute = sum(len(re.findall(r"\S+", d.text)) for d in corpus)
            assert summary.token_count == brute
            assert summary.avg_document_length == brute / len(corpus)


class TestUniqueSegments:
    def test_all_distinct(self):
        assert unique_segment_ratio(_docs("a\nb", "c\nd")) == 1.0

    def test_one_repeated_four_times(self):
        assert unique_segment_ratio(_docs("x\nx", "x\nx")) == 0.25

    def test_zero_segments(self):
        assert unique_segment_ratio(_docs("", "  \n ")) == 0.0

    def test_matches_set_oracle(self, rng):
        for _ in range(20):
            corpus = make_corpus(rng, rng.randint(1, 50))
            segs = [
                s for d in corpus for s in segment_text(d.text)
            ]
            expected = len(set(segs)) / len(segs) if segs else 0.0
            assert unique_segment_ratio(corpus) == expected


class TestLengthProfiles:
    def test_large_document_boundary(self):
        text_26 = "\n".join(f"line {i}" for i in range(26))
        text_25 = "\n".join(f"line {i}" for i in range(25))
        assert length_profiles(_docs(text_26))[0] == 1.0
        assert length_profiles(_docs(text_25))[0] == 0.0

    def test_short_segment_boundary(self):
        three = _docs("one two three\nuno dos tres")
        two = _docs("one two\nuno dos")
        assert three.documents[0].text.count("\n") == 1
        assert length_profiles(three)[1] == 0.0  # 3 tokens is not short
        assert length_profiles(two)[1] == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            corpus = make_corpus(rng, rng.randint(1, 60))
            large, short = length_profiles(corpus)
            n_large = sum(
                1 for d in corpus if len(segment_text(d.text)) > 25
            )
            segs = [s for d in corpus for s in segment_text(d.text)]
            n_short = sum(1 for s in segs if len(s.split()) < 3)
            assert large == n_large / len(corpus)
            assert short == (n_short / len(segs) if segs else 0.0)


class TestInLanguage:
    def _with_seg_langs(self, labels_per_doc, lang="eng_Latn"):
        docs = []
        for i, labels in enumerate(labels_per_doc):
            text = "\n".join(f"line {j}" for j in range(len(labels)))
            docs.append(
                Document(id=f"d{i}", lang=lang, text=text, seg_langs=tuple(labels))
            )
        return Corpus(docs, lang)

    def test_all_matching(self):
        corpus = self._with_seg_langs([["eng_Latn"] * 3, ["eng_Latn"] * 2])
        assert in_language_ratio(corpus) == 1.0

    def test_none_matching(self):
        corpus = self._with_seg_langs([["spa_Latn"], ["fin_Latn", "spa_Latn"]])
        assert in_language_ratio(corpus) == 0.0

    def test_micro_average(self, rng):
        for _ in range(20):
            labels_per_doc = [
                [rng.choice(["eng_Latn", "other"]) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 20))
            ]
            corpus = self._with_seg_langs(labels_per_doc)
            flat = [label for labels in labels_per_doc for label in labels]
            expected = sum(1 for lb in flat if lb == "eng_Latn") / len(flat)
            assert in_language_ratio(corpus) == expected

    def test_missing_annotation_names_document(self):
        corpus = _docs("a\nb")
        with pytest.raises(ValueError, match="d0"):
            in_language_ratio(corpus)


def _brute_force_ngrams(corpus, stopwords, order):
    counter = Counter()
    for doc in corpus:
        for seg in segment_text(doc.text):
            tokens = [t.lower() for t in seg.split()]
            for i in range(len(tokens)):
                gram = tokens[i : i + order]
                if len(gram) < order:
                    continue
                if gram[0] in stopwords or gram[-1] in stopwords:
                    continue
                counter[" ".join(gram)] += 1
    return counter


class TestNgrams:
    def test_stopword_edges(self):
        report = top_ngrams(_docs("the cat"), stopwords={"the"})
        assert report.top[1] == [("cat", 1)]
        assert report.top[2] == []

    def test_overlapping_counts(self):
        report = top_ngrams(_docs("a a a"), stopwords=frozenset())
        assert report.top[1] == [("a", 3)]
        assert report.top[2] == [("a a", 2)]

    def test_ngrams_confined_to_segments(self):
        report = top_ngrams(_docs("a b\nc d"), stopwords=frozenset())
        assert ("b c", 1) not in report.top[2]

    def test_lowercasing(self):
        report = top_ngrams(_docs("Cat CAT cat"), stopwords=frozenset())
        assert report.top[1] == [("cat", 3)]

    def test_ties_lexicographic(self):
        report = top_ngrams(_docs("b a d c e f"), stopwords=frozenset())
        assert report.top[1] == [("a", 1), ("b", 1), ("c", 1), ("d", 1), ("e", 1)]

    def test_matches_brute_force(self, rng):
        stopwords = frozenset({"data", "the", "web"})
        words = [f"w{i}" for i in range(40)]
        rng.shuffle(words)
        handmade = [
            # Every n-gram occurs once, so all of them tie at the k-th count.
            _docs(" ".join(words[:25]), " ".join(words[25:])),
            # "a" is a prefix of "a\x01": token tuples order "a b" first,
            # joined strings order "a\x01 b" first ("\x01" < " ").
            _docs("a\x01 b a b", "x a\x01 y\nx a y", "b a\x01 b a\nA\x01 B"),
            # "İ".lower() is two characters long.
            _docs("İstanbul İzmir the İstanbul", "İZMİR data İstanbul izmir"),
            # Segments shorter than the longer orders, and stopword-only ones.
            _docs("a b\nc\nd e f g", "the web\ndata\nb a"),
            Corpus([], "eng_Latn"),
        ]
        cases = [(make_corpus(rng, rng.randint(1, 40)), (1, 2, 3, 4, 5), 5)
                 for _ in range(10)]
        cases += [(corpus, (1, 2, 3, 4, 5), 5) for corpus in handmade]
        cases += [(corpus, (2, 5), k) for corpus in handmade for k in (0, 1, 100)]
        for corpus, orders, k in cases:
            report = top_ngrams(corpus, stopwords, orders, k)
            assert list(report.top) == list(orders)
            for order in orders:
                brute = _brute_force_ngrams(corpus, stopwords, order)
                expected = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
                assert report.top[order] == expected, (order, k)

    def test_more_tied_grams_than_one_decode_slice(self, rng):
        # About 6,000 distinct 5-grams, all counted once: every one of them
        # ties at the k-th count and is decoded, over two slices and more.
        words = [f"t{i:04d}" for i in range(3000)]
        text = "\n".join(" ".join(rng.choice(words) for _ in range(30)) for _ in range(240))
        corpus = _docs(text)
        stopwords = frozenset(words[:20])
        brute = _brute_force_ngrams(corpus, stopwords, 5)
        assert len(brute) > 4096 and set(brute.values()) == {1}
        for k in (1, 5, 5000):
            report = top_ngrams(corpus, stopwords, (5,), k)
            assert report.top[5] == sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    @pytest.mark.parametrize("rank_slice", [1, 2, 3, 64])
    def test_rank_and_window_passes_in_small_slices(self, rng, monkeypatch, rank_slice):
        # Key changes and ranks carry across slice edges, and a gram's window
        # may come from any slice.
        monkeypatch.setattr(analytics, "RANK_SLICE", rank_slice)
        monkeypatch.setattr(analytics, "DECODE_SLICE", 5)
        stopwords = frozenset({"data", "the", "web"})
        for _ in range(4):
            corpus = make_corpus(rng, rng.randint(1, 12))
            report = top_ngrams(corpus, stopwords, (1, 2, 3, 4, 5), 7)
            for order in (1, 2, 3, 4, 5):
                brute = _brute_force_ngrams(corpus, stopwords, order)
                expected = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:7]
                assert report.top[order] == expected, order

    def test_segments_of_every_length_around_order_five(self, rng):
        # Each segment holds 1 to 6 tokens from a small pool, so windows of
        # order 5 and 6 fit some segments exactly and miss others by one.
        pool = ["a", "b", "c", "the"]
        texts = []
        for _ in range(30):
            lengths = list(range(1, 7))
            rng.shuffle(lengths)
            texts.append("\n".join(" ".join(rng.choice(pool) for _ in range(n)) for n in lengths))
        corpus = _docs(*texts)
        orders = (1, 2, 3, 4, 5, 6)
        report = top_ngrams(corpus, {"the"}, orders, 10)
        for order in orders:
            brute = _brute_force_ngrams(corpus, {"the"}, order)
            assert report.top[order] == sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    def test_traced_peak_stays_a_few_dozen_bytes_per_token(self):
        # About 200k tokens over 20k words, in which nearly every 5-gram
        # occurs once. Holding a corpus-wide token list and np.unique's
        # int64 temporaries, counting peaked at 230 traced bytes per token
        # on this corpus; streaming ids through an int64 array, with int32
        # tokens-left and a sorted copy of each order's keys, about 50; ids
        # filled straight into int32, tokens-left in uint8 and key changes
        # found a slice at a time, about 37.
        seeded = random.Random(14)
        words = [f"w{i:05d}" for i in range(20000)]
        texts, tokens = [], 0
        while tokens < 200_000:
            lengths = [seeded.randint(1, 40) for _ in range(seeded.randint(1, 12))]
            tokens += sum(lengths)
            texts.append("\n".join(" ".join(seeded.choices(words, k=n)) for n in lengths))
        corpus = _docs(*texts)
        for doc in corpus:
            doc.segments  # cached before tracing: the corpus is not the count's
        tracemalloc.start()
        try:
            top_ngrams(corpus, frozenset(words[:50]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / tokens <= 42, peak / tokens

    def test_no_edge_stopwords_property(self, rng):
        stopwords = frozenset({"data", "corpus", "line"})
        corpus = make_corpus(rng, 30)
        report = top_ngrams(corpus, stopwords)
        for pairs in report.top.values():
            counts = [c for _, c in pairs]
            assert counts == sorted(counts, reverse=True)
            for gram, _ in pairs:
                tokens = gram.split()
                assert tokens[0] not in stopwords
                assert tokens[-1] not in stopwords


def _reference_host(url):
    # Manual scheme://[user@]host[:port]/... parser, independent of urllib.
    m = re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]*)", url)
    if not m:
        return None
    authority = m.group(1)
    if "@" in authority:
        authority = authority.rsplit("@", 1)[1]
    host = authority.rsplit(":", 1)[0] if re.search(r":\d*$", authority) else authority
    return host.lower().rstrip(".") or None


class TestDomains:
    def test_wikipedia_document(self):
        corpus = _docs("x", url="https://ca.wikipedia.org/x")
        report = domain_report(corpus)
        assert report.wikipedia_share == 1.0
        assert report.tld_counts == {"org": 1}
        assert report.host_counts == {"ca.wikipedia.org": 1}

    def test_no_urls_all_unknown(self):
        report = domain_report(_docs("a", "b"))
        assert report.host_counts == {"unknown": 2}
        assert report.tld_counts == {}
        assert report.wikipedia_share == 0.0

    def test_lookalike_host_not_wikipedia(self):
        corpus = _docs("x", url="https://notwikipedia.org/x")
        assert domain_report(corpus).wikipedia_share == 0.0

    def test_tld_counts_sum_to_parseable(self, rng):
        hosts = ["example.com", "site.no", "en.wikipedia.org", "data.museum"]
        docs = []
        for i in range(80):
            url = (
                None
                if rng.random() < 0.2
                else f"https://{rng.choice(hosts)}/p/{i}"
            )
            docs.append(Document(id=f"d{i}", lang="l", text="t", url=url))
        corpus = Corpus(docs, "l")
        report = domain_report(corpus)
        parseable = sum(1 for d in docs if d.url)
        assert sum(report.tld_counts.values()) == parseable

    def test_matches_reference_parser(self, rng):
        candidates = [
            "https://example.com/a",
            "http://user@site.no:8080/b",
            "https://EN.Wikipedia.org/wiki/X",
            "https://sub.domain.co.uk/path?q=1",
            "ftp://files.example.org/f",
            "https://host.name./trailing",
        ]
        docs = [
            Document(id=f"d{i}", lang="l", text="t", url=rng.choice(candidates))
            for i in range(100)
        ]
        corpus = Corpus(docs, "l")
        report = domain_report(corpus)
        expected_hosts = Counter(_reference_host(d.url) for d in docs)
        for host, count in expected_hosts.items():
            assert report.host_counts[host] == count
        expected_tlds = Counter(
            _reference_host(d.url).rsplit(".", 1)[-1] for d in docs
        )
        assert report.tld_counts == dict(expected_tlds)


def _wilson_by_roots(k, n, z=1.96):
    # Interval endpoints solve (phat - p)^2 = z^2 p (1-p) / n.
    phat = k / n
    a = 1 + z * z / n
    b = -(2 * phat + z * z / n)
    c = phat * phat
    lo, hi = sorted(np.roots([a, b, c]).real)
    return max(0.0, lo), min(1.0, hi)


class TestProportionCi:
    def test_zero_successes_of_hundred(self):
        assert proportion_ci(0, 100) == (0, 4)

    def test_all_successes_upper_bound(self):
        assert proportion_ci(100, 100)[1] == 100
        assert proportion_ci(7, 7)[1] == 100

    def test_symmetric_at_half(self):
        low, high = proportion_ci(50, 100)
        assert low + high == 100
        assert (low, high) == (40, 60)

    def test_matches_root_oracle(self, rng):
        for _ in range(300):
            n = rng.randint(1, 2000)
            k = rng.randint(0, n)
            lo, hi = wilson_interval(k, n)
            olo, ohi = _wilson_by_roots(k, n)
            assert lo == pytest.approx(olo, abs=1e-9)
            assert hi == pytest.approx(ohi, abs=1e-9)

    def test_interval_contains_point_estimate(self, rng):
        for _ in range(300):
            n = rng.randint(1, 500)
            k = rng.randint(0, n)
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            proportion_ci(0, 0)
        with pytest.raises(ValueError):
            proportion_ci(5, 4)


class TestReport:
    def test_order_invariance(self, rng):
        corpus = make_corpus(rng, 40)
        shuffled = list(corpus.documents)
        rng.shuffle(shuffled)
        a = analyze_corpus(corpus)
        b = analyze_corpus(Corpus(shuffled, corpus.language))
        assert a == b

    def test_render_smoke(self, rng):
        corpus = make_corpus(rng, 10)
        text = render_report(analyze_corpus(corpus, stopwords={"the"}))
        assert "unique segments" in text
        assert "order 5" in text
