import json
import random

import pytest

from refinery import zstdio
from refinery.documents import (
    Corpus,
    Document,
    DocumentError,
    read_documents,
    serialize_document,
)
from refinery.packaging import (
    PackagingConfig,
    PackagingError,
    UNBINNED,
    assign_bins,
    package_corpus,
    sort_bin,
    write_shards,
)
from refinery.wds import wds_level

from conftest import random_text


def _scored_doc(i, score, lang="eng_Latn", collection="c", text=None):
    return Document(
        id=f"d{i:04d}",
        lang=lang,
        collection=collection,
        text=text if text is not None else f"line one {i}\nline two {i}",
        wds=score,
    )


def _read_shards(out_dir, manifests, lang="eng_Latn"):
    """The documents of the manifests' shards, in the order given."""
    return [doc for m in manifests for doc in read_documents(
        out_dir / lang / str(m.wds_bin) / f"{m.shard_index}.jsonl.zst")]


def _scored_corpus(rng, n, lang="eng_Latn"):
    docs = [
        _scored_doc(
            i,
            round(rng.uniform(0, 10), 4),
            lang,
            collection=rng.choice(["a", "b"]),
            text=random_text(rng),
        )
        for i in range(n)
    ]
    return Corpus(docs, lang)


class TestAssignBins:
    def test_levels_route_to_bins(self):
        corpus = Corpus([_scored_doc(0, 5.1), _scored_doc(1, 9.9)], "eng_Latn")
        bins = assign_bins(corpus)
        assert sorted(bins) == [5, 9]
        assert [d.id for d in bins[5]] == ["d0000"]
        assert [d.id for d in bins[9]] == ["d0001"]

    def test_low_scores_unbinned(self):
        corpus = Corpus(
            [_scored_doc(0, 1.0), _scored_doc(1, 4.99), _scored_doc(2, 0.0)],
            "eng_Latn",
        )
        bins = assign_bins(corpus)
        assert list(bins) == [UNBINNED]
        assert len(bins[UNBINNED]) == 3

    def test_partition_property(self, rng):
        for _ in range(20):
            corpus = _scored_corpus(rng, rng.randint(1, 120))
            bins = assign_bins(corpus)
            all_ids = [d.id for docs in bins.values() for d in docs]
            assert sorted(all_ids) == sorted(d.id for d in corpus)
            for key, docs in bins.items():
                for doc in docs:
                    level = wds_level(doc.wds)
                    assert key == (level if level >= 5 else UNBINNED)

    def test_unscored_rejected(self):
        corpus = Corpus([Document(id="a", lang="l", text="t")], "l")
        with pytest.raises(PackagingError, match="no wds score"):
            assign_bins(corpus)


class TestSortBin:
    def test_tie_broken_by_collection_then_id(self):
        docs = [
            _scored_doc(2, 7.0, collection="b"),
            _scored_doc(1, 7.0, collection="a"),
            _scored_doc(3, 7.0, collection="a"),
        ]
        ordered = sort_bin(docs)
        assert [(d.collection, d.id) for d in ordered] == [
            ("a", "d0001"),
            ("a", "d0003"),
            ("b", "d0002"),
        ]

    def test_single_document(self):
        doc = _scored_doc(0, 6.0)
        assert sort_bin([doc]) == [doc]

    def test_matches_reference_sort(self, rng):
        for _ in range(20):
            docs = [
                _scored_doc(i, rng.choice([5.0, 5.5, 6.0]), collection=rng.choice("ab"))
                for i in range(rng.randint(1, 50))
            ]
            rng.shuffle(docs)
            ordered = sort_bin(docs)
            assert sorted(ordered, key=lambda d: d.id) == sorted(
                docs, key=lambda d: d.id
            )  # permutation
            reference = sorted(
                sorted(docs, key=lambda d: (d.collection, d.id)),
                key=lambda d: d.wds,
                reverse=True,
            )  # stable two-pass reference sort
            assert ordered == reference


class TestWriteShards:
    def test_greedy_fill(self, tmp_path):
        docs = [_scored_doc(i, 7.0, text="tok") for i in range(3)]
        size = len(serialize_document(docs[0]).encode()) + 1
        config = PackagingConfig(max_uncompressed_bytes=2 * size + size // 2)
        manifests = write_shards(docs, tmp_path, "eng_Latn", 7, config)
        assert [m.document_count for m in manifests] == [2, 1]
        assert [m.shard_index for m in manifests] == [0, 1]

    def test_single_shard_when_limit_large(self, tmp_path):
        docs = [_scored_doc(i, 7.0) for i in range(10)]
        manifests = write_shards(docs, tmp_path, "eng_Latn", 7)
        assert len(manifests) == 1
        assert manifests[0].document_count == 10

    def test_oversized_document_named(self, tmp_path):
        doc = _scored_doc(0, 7.0, text="x " * 100)
        config = PackagingConfig(max_uncompressed_bytes=16)
        with pytest.raises(PackagingError, match="d0000"):
            write_shards([doc], tmp_path, "eng_Latn", 7, config)

    def test_manifest_bounds_and_bytes(self, tmp_path, rng):
        docs = sort_bin([_scored_doc(i, 7.0, text=random_text(rng)) for i in range(40)])
        config = PackagingConfig(max_uncompressed_bytes=600)
        manifests = write_shards(docs, tmp_path, "eng_Latn", 7, config)
        assert sum(m.document_count for m in manifests) == len(docs)
        assert [m.shard_index for m in manifests] == list(range(len(manifests)))
        for m in manifests:
            assert 1 <= m.document_count
            assert m.uncompressed_bytes <= config.max_uncompressed_bytes
            path = tmp_path / "eng_Latn" / "7" / f"{m.shard_index}.jsonl.zst"
            assert path.stat().st_size == m.compressed_bytes
        ids = [d.id for d in docs]
        assert manifests[0].first_id == ids[0]
        assert manifests[-1].last_id == ids[-1]


class TestRoundTrip:
    def test_read_back_equals_input_order(self, tmp_path, rng):
        docs = sort_bin(
            [_scored_doc(i, 8.0, text=random_text(rng)) for i in range(100)]
        )
        config = PackagingConfig(max_uncompressed_bytes=900)
        manifests = write_shards(docs, tmp_path, "eng_Latn", 8, config)
        assert len(manifests) > 1
        assert _read_shards(tmp_path, manifests) == docs

    def test_empty_set(self, tmp_path):
        assert package_corpus(Corpus([], "eng_Latn"), tmp_path) == []
        assert json.loads((tmp_path / "eng_Latn" / "manifest.json").read_text()) == []

    def test_packaged_corpus_round_trip(self, tmp_path, rng):
        corpus = _scored_corpus(rng, 150)
        config = PackagingConfig(max_uncompressed_bytes=2000)
        manifests = package_corpus(corpus, tmp_path, config)
        stored = json.loads((tmp_path / "eng_Latn" / "manifest.json").read_text())
        assert stored == [m.to_json() for m in manifests]
        read_back = _read_shards(tmp_path, manifests)
        assert sorted(d.id for d in read_back) == sorted(d.id for d in corpus)
        # within each bin the concatenated shard order equals sort_bin order
        bins = assign_bins(corpus)
        for key, docs in bins.items():
            bin_manifests = [m for m in manifests if m.wds_bin == key]
            assert _read_shards(tmp_path, bin_manifests) == sort_bin(docs)

    def test_manifest_file_written(self, tmp_path, rng):
        corpus = _scored_corpus(rng, 30)
        manifests = package_corpus(corpus, tmp_path)
        stored = json.loads((tmp_path / "eng_Latn" / "manifest.json").read_text())
        assert [m.to_json() for m in manifests] == stored


class TestCorruption:
    def test_bad_record_names_shard_and_line(self, tmp_path):
        path = tmp_path / "0.jsonl.zst"
        path.write_bytes(zstdio.compress(
            b'{"id":"a","lang":"l","text":"x","wds":7.0}\n{"id":"b","lang":"l"}\n'
        ))
        with pytest.raises(DocumentError) as info:
            read_documents(path)
        assert str(info.value) == f"{path}:2: missing required field 'text'"
