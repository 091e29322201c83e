import json
import os
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import refinery.documents
from refinery import zstdio
from refinery.documents import (
    Corpus,
    Document,
    DocumentError,
    parse_document_line,
    read_documents,
    segment_text,
    serialize_document,
    write_atomic,
    write_documents,
)


def test_minimal_record():
    doc = parse_document_line('{"id":"a","lang":"eng_Latn","text":"hi"}')
    assert doc.id == "a"
    assert doc.lang == "eng_Latn"
    assert doc.text == "hi"


def test_missing_required_field_named():
    with pytest.raises(DocumentError, match="text"):
        parse_document_line('{"id":"a","lang":"eng_Latn"}')
    with pytest.raises(DocumentError, match="id"):
        parse_document_line('{"lang":"eng_Latn","text":"x"}')


def test_malformed_json_reports_byte_offset():
    with pytest.raises(DocumentError, match="byte offset"):
        parse_document_line('{"id": %}')


def test_unknown_fields_round_trip():
    line = '{"id":"a","lang":"eng_Latn","text":"hi","custom":{"k":[1,2]}}'
    doc = parse_document_line(line)
    assert doc.extras == {"custom": {"k": [1, 2]}}
    again = parse_document_line(serialize_document(doc))
    assert again == doc


def test_invalid_wds_rejected():
    with pytest.raises(DocumentError, match="wds"):
        parse_document_line('{"id":"a","lang":"l","text":"t","wds":11}')


def test_null_optional_strings_read_as_defaults():
    doc = parse_document_line(
        '{"id":"a","lang":"l","text":"t","url":null,"register":null,"collection":null}'
    )
    assert (doc.url, doc.register, doc.collection) == (None, None, "")
    assert serialize_document(doc) == '{"id":"a","lang":"l","text":"t"}'


def test_seg_langs_must_match_segment_count():
    with pytest.raises(DocumentError, match="seg_langs"):
        Document(id="a", lang="l", text="one\ntwo", seg_langs=("l",))


def _random_record(rng: random.Random) -> dict:
    record = {
        "id": f"id{rng.randrange(10**9)}",
        "lang": rng.choice(["eng_Latn", "spa_Latn", "ukr_Cyrl"]),
        "text": "\n".join(
            "".join(rng.choice("abc漢字 áé\t") for _ in range(rng.randint(0, 30)))
            for _ in range(rng.randint(0, 5))
        ),
    }
    if rng.random() < 0.5:
        record["url"] = f"https://example.com/{rng.randrange(100)}"
    if rng.random() < 0.5:
        record["collection"] = rng.choice(["wide-1", "cc-2014"])
    if rng.random() < 0.3:
        record["wds"] = round(rng.uniform(0, 10), 3)
    if rng.random() < 0.3:
        record["register"] = rng.choice(["News Report", "Opinion Blog"])
    if rng.random() < 0.4:
        record["extra_meta"] = {"n": rng.randrange(5), "tags": ["x", "y"]}
    if rng.random() < 0.2:
        record["seg_langs"] = [
            "eng_Latn" for _ in segment_text(record["text"])
        ]
    return record


def test_fuzzed_round_trip_identity(rng):
    for _ in range(1000):
        line = json.dumps(_random_record(rng), ensure_ascii=False)
        doc = parse_document_line(line)
        again = parse_document_line(serialize_document(doc))
        assert again == doc


def _oracle_segments(text: str) -> list[str]:
    # Index-walking reference splitter, kept independent of segment_text.
    out = []
    start = 0
    for i in range(len(text) + 1):
        if i == len(text) or text[i] == "\n":
            piece = text[start:i].strip()
            if piece:
                out.append(piece)
            start = i + 1
    return out


@given(st.text(max_size=300))
def test_segmentation_matches_oracle(text):
    segments = segment_text(text)
    assert segments == tuple(_oracle_segments(text))


@given(st.text(max_size=300))
def test_segment_token_counts(text):
    segments = segment_text(text)
    for seg in segments:
        assert seg == seg.strip()
        assert "\n" not in seg
        assert len(seg.split()) >= 1
    total = sum(len(line.split()) for line in text.split("\n"))
    assert sum(len(s.split()) for s in segments) == total


def test_spec_segmentation_examples():
    segments = segment_text("a\n\n b \n")
    assert [(i, s, len(s.split())) for i, s in enumerate(segments)] == [
        (0, "a", 1),
        (1, "b", 1),
    ]
    assert segment_text("") == ()


def test_segments_cost_what_their_lines_cost():
    # A document's segments are its lines as strings in one tuple: tracing
    # their construction finds little beyond those objects' own sizes. With
    # a frozen object per segment holding a second copy of each line, the
    # same corpus traced about 1.6 times these sizes.
    seeded = random.Random(16)
    words = [f"w{i:04d}" for i in range(5000)]
    docs = []
    for i in range(2000):
        lines = [" ".join(seeded.choices(words, k=seeded.randint(0, 12)))
                 for _ in range(seeded.randint(0, 30))]
        docs.append(Document(id=f"d{i}", lang="l", text="\n ".join(lines)))
    tracemalloc.start()
    try:
        for doc in docs:
            doc.segments
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    lines = sum(sys.getsizeof(seg) for doc in docs for seg in doc.segments)
    tuples = sum(sys.getsizeof(doc.segments) for doc in docs)
    assert sum(len(doc.segments) for doc in docs) > 25_000
    assert traced <= 1.1 * (lines + tuples), traced / (lines + tuples)


def test_replace_keeps_segments_until_the_text_changes():
    doc = Document(id="a", lang="l", text="one\ntwo")
    segments = doc.segments
    labelled = doc.replace(lang="m", seg_langs=("m", "m"))
    assert labelled.segments is segments
    changed = doc.replace(text="one\ntwo\nthree")
    assert changed.segments == ("one", "two", "three")
    with pytest.raises(DocumentError, match="seg_langs"):
        labelled.replace(text="one")  # two labels, now one segment
    with pytest.raises(DocumentError, match="seg_langs"):
        doc.replace(seg_langs=("l",))
    with pytest.raises(TypeError, match="colour"):
        doc.replace(colour="red")


def test_replace_counts_carried_segments_without_recounting_lines(monkeypatch):
    doc = Document(id="a", lang="l", text="one\n\n two \n")
    assert len(doc.segments) == 2

    def recount(text):
        raise AssertionError("the lines were counted again")

    monkeypatch.setattr(refinery.documents, "_segment_lines", recount)
    labelled = doc.replace(lang="m", seg_langs=("m", "m"))
    assert labelled.seg_langs == ("m", "m")
    with pytest.raises(DocumentError, match="seg_langs has 1 labels for 2 segments"):
        doc.replace(seg_langs=("l",))
    with pytest.raises(DocumentError, match="seg_langs has 3 labels for 2 segments"):
        labelled.replace(seg_langs=("m", "m", "m"))


@pytest.mark.parametrize(
    "line, field",
    [(r'{"id":"a","lang":"l","text":"ab\ud800c"}', "text"),
     (r'{"id":"a","lang":"l","text":"x\uDC00"}', "text"),
     (r'{"id":"a\udfff","lang":"l","text":"x"}', "id"),
     (r'{"id":"a","lang":"l","text":"x","meta":{"tags":["\ud83d"]}}', "meta"),
     (r'{"id":"a","lang":"l","text":"x","k\ud800":1}', "k\ud800")],
    ids=["text", "text-low-half", "id", "nested-extra", "key"],
)
def test_unpaired_surrogate_names_its_field(line, field):
    with pytest.raises(DocumentError) as raised:
        parse_document_line(line)
    assert str(raised.value).startswith(f"field {field!r} holds an unpaired surrogate '\\ud")


def test_paired_surrogates_and_escaped_backslashes_parse():
    doc = parse_document_line(r'{"id":"a","lang":"l","text":"\ud83d\ude00 \\ud800"}')
    assert doc.text == "\U0001f600 \\ud800"


def test_corpus_rejects_duplicate_ids():
    doc = Document(id="a", lang="l", text="x")
    with pytest.raises(DocumentError, match="duplicate"):
        Corpus([doc, doc], "l")


def test_corpus_language_invariant():
    good = Document(id="a", lang="l", text="x")
    stray = Document(id="b", lang="other", text="x")
    with pytest.raises(DocumentError, match="lang"):
        Corpus([good, stray], "l")
    rejected = stray.replace(removed_reason="lid_rejected")
    Corpus([good, rejected], "l")  # allowed


def test_file_round_trip_plain_and_zst(tmp_path, rng):
    docs = [parse_document_line(json.dumps(_random_record(rng))) for _ in range(50)]
    docs = [d.replace(id=f"u{i}") for i, d in enumerate(docs)]
    plain = tmp_path / "docs.jsonl"
    write_documents(docs, plain)
    assert read_documents(plain) == docs
    compressed = tmp_path / "docs.jsonl.zst"
    compressed.write_bytes(zstdio.compress(plain.read_bytes()))
    assert read_documents(compressed) == docs


def test_line_separator_characters_survive(tmp_path):
    doc = Document(id="a", lang="l", text="u2028 here: and there")
    path = tmp_path / "docs.jsonl"
    write_documents([doc], path)
    assert read_documents(path) == [doc]


def test_failed_atomic_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "docs.jsonl"
    target.write_bytes(b"old bytes\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, b"new bytes\n")
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]
    monkeypatch.undo()
    # A write that fails mid-stream: UTF-8 cannot encode the last document's
    # unpaired surrogate, after the lines before it have reached the temp file.
    docs = [Document(id=f"d{i}", lang="l", text="x" * 1000) for i in range(100)]
    docs.append(Document(id="bad", lang="l", text="\ud800"))
    with pytest.raises(UnicodeEncodeError):
        write_documents(docs, target)
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]


def test_writing_documents_holds_no_copy_of_the_file(tmp_path):
    # Lines go to the temp file one at a time. Joining the file into one str
    # and encoding it held at least twice the file's size.
    seeded = random.Random(22)
    docs = [Document(id=f"d{i}", lang="l", text=" ".join(
                seeded.choices(["alpha", "beta", "gamma", "δέλτα"], k=200)))
            for i in range(1200)]
    path = tmp_path / "docs.jsonl"
    tracemalloc.start()
    try:
        write_documents(docs, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000
    assert peak < 0.25 * size, (peak, size)
    assert read_documents(path) == docs


def test_atomic_write_creates_parents_and_follows_umask(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    target = tmp_path / "a" / "b" / "out.bin"
    write_atomic(target, b"payload")
    write_atomic(target, b"second")
    assert target.read_bytes() == b"second"
    assert (target.stat().st_mode & 0o777) == 0o666 & ~umask
    assert [p.name for p in target.parent.iterdir()] == ["out.bin"]


def test_unpaired_surrogate_names_the_file_and_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id":"a","lang":"l","text":"x"}\n{"id":"b","lang":"l","text":"\\ud800"}\n')
    with pytest.raises(DocumentError, match=f"^{re.escape(str(path))}:2: field 'text' holds"):
        read_documents(path)


def test_unreadable_files_name_the_file(tmp_path):
    bad_utf8 = tmp_path / "latin1.jsonl"
    bad_utf8.write_bytes(b'{"id":"a","lang":"l","text":"x"}\n{"id":"b","lang":"l","text":"caf\xe9"}\n')
    with pytest.raises(DocumentError, match=f"^{re.escape(str(bad_utf8))}:2: not valid UTF-8"):
        read_documents(bad_utf8)
    bad_zstd = tmp_path / "docs.jsonl.zst"
    bad_zstd.write_bytes(b"\x28\xb5\x2f\xfd truncated")
    with pytest.raises(DocumentError, match=f"^{re.escape(str(bad_zstd))}: corrupt zstd data"):
        read_documents(bad_zstd)
