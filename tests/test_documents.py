import json
import os
import random
import re

import pytest
from hypothesis import given, strategies as st

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
    assert [s.text for s in segments] == _oracle_segments(text)
    assert [s.index for s in segments] == list(range(len(segments)))


@given(st.text(max_size=300))
def test_segment_token_counts(text):
    segments = segment_text(text)
    for seg in segments:
        assert seg.text == seg.text.strip()
        assert "\n" not in seg.text
        assert seg.token_count == len(seg.text.split()) >= 1
    total = sum(len(line.split()) for line in text.split("\n"))
    assert sum(s.token_count for s in segments) == total


def test_spec_segmentation_examples():
    segments = segment_text("a\n\n b \n")
    assert [(s.index, s.text, s.token_count) for s in segments] == [
        (0, "a", 1),
        (1, "b", 1),
    ]
    assert segment_text("") == []


def test_replace_keeps_segments_until_the_text_changes():
    doc = Document(id="a", lang="l", text="one\ntwo")
    segments = doc.segments
    labelled = doc.replace(lang="m", seg_langs=("m", "m"))
    assert labelled.segments is segments
    changed = doc.replace(text="one\ntwo\nthree")
    assert [s.text for s in changed.segments] == ["one", "two", "three"]
    with pytest.raises(DocumentError, match="seg_langs"):
        labelled.replace(text="one")  # two labels, now one segment
    with pytest.raises(DocumentError, match="seg_langs"):
        doc.replace(seg_langs=("l",))
    with pytest.raises(TypeError, match="colour"):
        doc.replace(colour="red")


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
    for name in ("docs.jsonl", "docs.jsonl.zst"):
        path = tmp_path / name
        write_documents(docs, path)
        assert read_documents(path) == docs


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


def test_atomic_write_creates_parents_and_follows_umask(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    target = tmp_path / "a" / "b" / "out.bin"
    write_atomic(target, b"payload")
    write_atomic(target, b"second")
    assert target.read_bytes() == b"second"
    assert (target.stat().st_mode & 0o777) == 0o666 & ~umask
    assert [p.name for p in target.parent.iterdir()] == ["out.bin"]


def test_unreadable_files_name_the_file(tmp_path):
    bad_utf8 = tmp_path / "latin1.jsonl"
    bad_utf8.write_bytes(b'{"id":"a","lang":"l","text":"x"}\n{"id":"b","lang":"l","text":"caf\xe9"}\n')
    with pytest.raises(DocumentError, match=f"^{re.escape(str(bad_utf8))}:2: not valid UTF-8"):
        read_documents(bad_utf8)
    bad_zstd = tmp_path / "docs.jsonl.zst"
    bad_zstd.write_bytes(b"\x28\xb5\x2f\xfd truncated")
    with pytest.raises(DocumentError, match=f"^{re.escape(str(bad_zstd))}: corrupt zstd data"):
        read_documents(bad_zstd)
