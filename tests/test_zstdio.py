import pytest

from refinery import zstdio


def test_round_trip():
    data = b'{"id":"a"}\n' * 1000
    comp = zstdio.compress(data, level=9)
    assert comp[:4] == zstdio.ZSTD_MAGIC
    assert zstdio.decompress(comp) == data


def test_empty_payload():
    assert zstdio.decompress(zstdio.compress(b"")) == b""
    assert zstdio.decompress(b"") == b""


def test_multi_frame_concatenation():
    a = zstdio.compress(b"hello ")
    b = zstdio.compress(b"world")
    assert zstdio.decompress(a + b) == b"hello world"


def test_incompressible_round_trip(rng):
    data = bytes(rng.getrandbits(8) for _ in range(200_000))
    assert zstdio.decompress(zstdio.compress(data, level=3)) == data


def test_corrupt_frame_raises():
    with pytest.raises(zstdio.ZstdError):
        zstdio.decompress(b"not a zstd frame at all")


def test_truncated_frame_reports_offset():
    good = zstdio.compress(b"payload " * 100)
    broken = zstdio.compress(b"x" * 1000)[:10]
    with pytest.raises(zstdio.ZstdError) as info:
        zstdio.decompress(good + broken)
    assert info.value.frame_offset == len(good)


def test_fixed_sonames_are_tried_before_find_library(monkeypatch):
    import ctypes.util

    tried = []

    def cdll(name):
        tried.append(name)
        raise OSError(f"no {name}")

    monkeypatch.setattr(zstdio.ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library",
                        lambda name: tried.append(f"find {name}") or "libzstd.so.found")
    with pytest.raises(zstdio.ZstdError, match="^could not locate a libzstd shared library: "
                                              "no libzstd.so.found$"):
        zstdio._load_libzstd()
    assert tried == ["libzstd.so.1", "libzstd.so", "libzstd.1.dylib", "libzstd.dylib",
                     "find zstd", "libzstd.so.found"]
