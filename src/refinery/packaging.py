"""Quality-binned, sorted, sharded corpus packaging.

Retained documents are binned by quality level (5-10; anything lower goes
to "unbinned"), each bin is sorted globally, and bins are written as
size-bounded Zstandard-compressed JSON Lines shards with a per-language
manifest. Layout: <out>/<lang>/<bin>/<shard_index>.jsonl.zst.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import zstdio
from .config import PackagingConfig
from .documents import Corpus, Document, serialize_document, write_atomic
from .wds import wds_level

UNBINNED = "unbinned"


class PackagingError(ValueError):
    pass


@dataclass(frozen=True)
class ShardManifest:
    language: str
    wds_bin: int | str
    shard_index: int
    document_count: int
    uncompressed_bytes: int
    compressed_bytes: int
    first_id: str
    last_id: str

    def to_json(self) -> dict:
        return asdict(self)


def assign_bins(corpus: Corpus) -> dict[int | str, list[Document]]:
    """Group scored documents by quality level; levels below 5 are unbinned."""
    bins: dict[int | str, list[Document]] = {}
    for doc in corpus:
        if doc.wds is None:
            raise PackagingError(f"document {doc.id!r} has no wds score")
        level = wds_level(doc.wds)
        key: int | str = level if level >= 5 else UNBINNED
        bins.setdefault(key, []).append(doc)
    return bins


def sort_bin(documents: Sequence[Document]) -> list[Document]:
    """Total deterministic order: highest score first, ties ascending by (collection, id)."""
    def key(doc: Document):
        score = doc.wds if doc.wds is not None else 0.0
        return (-score, doc.collection, doc.id)

    return sorted(documents, key=key)


def _bin_sort_order(bins: Iterable[int | str]) -> list[int | str]:
    numeric = sorted((b for b in bins if isinstance(b, int)), reverse=True)
    ordered: list[int | str] = list(numeric)
    if any(b == UNBINNED for b in bins):
        ordered.append(UNBINNED)
    return ordered


def write_shards(
    documents: Sequence[Document],
    out_dir: str | Path,
    language: str,
    wds_bin: int | str,
    config: PackagingConfig | None = None,
) -> list[ShardManifest]:
    """Greedy-fill one bin's sorted documents into size-bounded shards.

    A document starts a new shard when adding it would exceed the
    uncompressed limit; a single document larger than the limit is an error.
    """
    config = config or PackagingConfig()
    bin_dir = Path(out_dir) / language / str(wds_bin)

    manifests: list[ShardManifest] = []
    shard_docs: list[tuple[Document, bytes]] = []
    shard_bytes = 0

    def flush():
        nonlocal shard_docs, shard_bytes
        if not shard_docs:
            return
        payload = b"".join(line for _, line in shard_docs)
        compressed = zstdio.compress(payload, level=config.compression_level)
        index = len(manifests)
        write_atomic(bin_dir / f"{index}.jsonl.zst", compressed)
        manifests.append(
            ShardManifest(
                language=language,
                wds_bin=wds_bin,
                shard_index=index,
                document_count=len(shard_docs),
                uncompressed_bytes=shard_bytes,
                compressed_bytes=len(compressed),
                first_id=shard_docs[0][0].id,
                last_id=shard_docs[-1][0].id,
            )
        )
        shard_docs = []
        shard_bytes = 0

    for doc in documents:
        line = (serialize_document(doc) + "\n").encode("utf-8")
        if len(line) > config.max_uncompressed_bytes:
            raise PackagingError(
                f"document {doc.id!r} is {len(line)} bytes serialized, larger "
                f"than the shard limit {config.max_uncompressed_bytes}"
            )
        if shard_docs and shard_bytes + len(line) > config.max_uncompressed_bytes:
            flush()
        shard_docs.append((doc, line))
        shard_bytes += len(line)
    flush()
    return manifests


def package_corpus(
    corpus: Corpus, out_dir: str | Path, config: PackagingConfig | None = None
) -> list[ShardManifest]:
    """Bin, sort, and shard a scored corpus; write the language manifest."""
    config = config or PackagingConfig()
    bins = assign_bins(corpus)
    manifests: list[ShardManifest] = []
    for key in _bin_sort_order(bins.keys()):
        manifests.extend(
            write_shards(sort_bin(bins[key]), out_dir, corpus.language, key, config)
        )
    write_atomic(
        Path(out_dir) / corpus.language / "manifest.json",
        (json.dumps([m.to_json() for m in manifests], indent=2) + "\n").encode("utf-8"),
    )
    return manifests

