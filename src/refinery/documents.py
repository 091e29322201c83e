"""Document data model, JSON Lines ingestion, and text segmentation.

Every pipeline stage reads and writes the same record shape: one JSON
object per line with required keys ``id``, ``lang``, ``text`` and optional
keys ``url``, ``collection``, ``seg_langs``, ``wds``, ``register``. Unknown
keys are kept verbatim in ``extras`` so richer upstream schemas round-trip
losslessly. Files ending in ``.zst`` are Zstandard-compressed.

A segment is a trimmed, non-empty line of the text. ``Document.segments``
is the one place that segments a text: it does so once per document, and
``Document.replace`` hands the result on while the text stays the same.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import zstdio

REMOVED_REASONS = ("duplicate", "below_wds", "lid_rejected")

# Known keys in serialization order; everything else lands in extras.
_KNOWN_KEYS = (
    "id",
    "url",
    "collection",
    "lang",
    "text",
    "seg_langs",
    "wds",
    "register",
    "removed_reason",
)


class DocumentError(ValueError):
    """Malformed or schema-violating document record."""


@dataclass(frozen=True, slots=True)
class Segment:
    """One non-empty trimmed line of a document's text."""

    index: int
    text: str
    token_count: int


@dataclass(frozen=True)
class Document:
    id: str
    lang: str
    text: str
    url: str | None = None
    collection: str = ""
    seg_langs: tuple[str, ...] | None = None
    wds: float | None = None
    register: str | None = None
    removed_reason: str | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise DocumentError("id must be a non-empty string")
        if not isinstance(self.lang, str) or not self.lang:
            raise DocumentError("lang must be a non-empty string")
        if not isinstance(self.text, str):
            raise DocumentError("text must be a string")
        if self.wds is not None and not 0.0 <= self.wds <= 10.0:
            raise DocumentError(f"wds score {self.wds} outside [0, 10]")
        if self.removed_reason is not None and self.removed_reason not in REMOVED_REASONS:
            raise DocumentError(f"unknown removed_reason {self.removed_reason!r}")
        if self.seg_langs is not None and len(self.seg_langs) != len(self.segments):
            raise DocumentError(
                f"seg_langs has {len(self.seg_langs)} labels for "
                f"{len(self.segments)} segments"
            )

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The text's segments, computed on first use and then kept."""
        return tuple(segment_text(self.text))

    def replace(self, **changes: Any) -> "Document":
        """A validated copy with ``changes`` applied; it keeps the computed
        segments unless the text changes."""
        unknown = changes.keys() - _FIELD_NAMES
        if unknown:
            raise TypeError(f"Document has no field {sorted(unknown)[0]!r}")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        if new.text != self.text:
            new.__dict__.pop("segments", None)
        new.__post_init__()
        return new

    def sort_key(self) -> tuple[str, str]:
        return (self.collection, self.id)


_FIELD_NAMES = frozenset(f.name for f in fields(Document))


def segment_text(text: str) -> list[Segment]:
    """Split into trimmed non-empty lines with consecutive indices."""
    segments = []
    for raw in text.split("\n"):
        line = raw.strip()
        if line:
            segments.append(Segment(len(segments), line, len(line.split())))
    return segments


def parse_document_line(line: str) -> Document:
    """Parse one JSONL record into a validated Document.

    Raises DocumentError with the byte offset for malformed JSON, or naming
    the missing/ill-typed field for schema violations.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        byte_offset = len(line[: exc.pos].encode("utf-8"))
        raise DocumentError(
            f"malformed JSON at byte offset {byte_offset}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise DocumentError("record is not a JSON object")
    for required in ("id", "lang", "text"):
        if required not in raw:
            raise DocumentError(f"missing required field {required!r}")

    extras = {k: v for k, v in raw.items() if k not in _KNOWN_KEYS}
    seg_langs = raw.get("seg_langs")
    if seg_langs is not None:
        if not isinstance(seg_langs, list) or not all(
            isinstance(s, str) for s in seg_langs
        ):
            raise DocumentError("field 'seg_langs' must be a list of strings")
        seg_langs = tuple(seg_langs)
    for name in ("url", "register"):
        if not isinstance(raw.get(name), (str, type(None))):
            raise DocumentError(f"field {name!r} must be a string or null")
    collection = "" if raw.get("collection") is None else raw["collection"]
    if not isinstance(collection, str):
        raise DocumentError("field 'collection' must be a string")
    wds = raw.get("wds")
    if wds is not None:
        if not isinstance(wds, (int, float)) or isinstance(wds, bool):
            raise DocumentError("field 'wds' must be a number")
        wds = float(wds)
    try:
        return Document(
            id=raw["id"],
            lang=raw["lang"],
            text=raw["text"],
            url=raw.get("url"),
            collection=collection,
            seg_langs=seg_langs,
            wds=wds,
            register=raw.get("register"),
            removed_reason=raw.get("removed_reason"),
            extras=extras,
        )
    except DocumentError:
        raise
    except TypeError as exc:
        raise DocumentError(str(exc)) from exc


def serialize_document(doc: Document) -> str:
    """Serialize to a single JSON line (no trailing newline).

    Key order is fixed so identical documents yield identical bytes.
    """
    record: dict[str, Any] = {"id": doc.id}
    if doc.url is not None:
        record["url"] = doc.url
    if doc.collection:
        record["collection"] = doc.collection
    record["lang"] = doc.lang
    record["text"] = doc.text
    if doc.seg_langs is not None:
        record["seg_langs"] = list(doc.seg_langs)
    if doc.wds is not None:
        record["wds"] = doc.wds
    if doc.register is not None:
        record["register"] = doc.register
    if doc.removed_reason is not None:
        record["removed_reason"] = doc.removed_reason
    for key in sorted(doc.extras):
        record[key] = doc.extras[key]
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


@dataclass
class Corpus:
    """Ordered document collection for one language–script code."""

    documents: list[Document]
    language: str

    def __post_init__(self):
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise DocumentError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            if doc.lang != self.language and doc.removed_reason != "lid_rejected":
                raise DocumentError(
                    f"document {doc.id!r} has lang {doc.lang!r}, corpus is "
                    f"{self.language!r} (only lid_rejected documents may differ)"
                )

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)


def _parse_jsonl(data: bytes, path: Path) -> list[Document]:
    """Decode and parse JSONL bytes; every error names ``path`` and the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DocumentError(
            f"{path}:{lineno}: not valid UTF-8 (byte offset {exc.start}: {exc.reason})"
        ) from exc
    docs = []
    # Split on \n only: JSON strings may contain U+2028/U+2029, which
    # str.splitlines would treat as record separators.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            docs.append(parse_document_line(line))
        except DocumentError as exc:
            raise DocumentError(f"{path}:{lineno}: {exc}") from exc
    return docs


def read_documents(path: str | Path) -> list[Document]:
    """Read a (possibly .zst-compressed) JSONL document file."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".zst":
        try:
            data = zstdio.decompress(data)
        except zstdio.ZstdError as exc:
            raise DocumentError(f"{path}: corrupt zstd data: {exc}") from exc
    return _parse_jsonl(data, path)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the new one.

    The bytes go to a sibling temp file with a per-process unique name,
    opened exclusively (so its mode follows the umask), which then replaces
    the target; the temp file is removed if any step fails.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_documents(
    docs: Iterable[Document], path: str | Path, compression_level: int = 9
) -> None:
    """Write documents atomically as JSONL, zstd-compressed when path ends in .zst."""
    path = Path(path)
    payload = "".join(serialize_document(d) + "\n" for d in docs).encode("utf-8")
    if path.suffix == ".zst":
        payload = zstdio.compress(payload, level=compression_level)
    write_atomic(path, payload)
