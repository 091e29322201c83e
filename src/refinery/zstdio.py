"""Minimal Zstandard codec bound to the system libzstd via ctypes.

Shard files are single-frame zstd streams produced by the one-shot
compressor (which embeds the content size in the frame header), but the
decoder below is streaming and frame-aware so it also accepts multi-frame
files and frames without a recorded content size.
"""

from __future__ import annotations

import ctypes

ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"


class ZstdError(Exception):
    """Compression or decompression failure reported by libzstd."""

    def __init__(self, message: str, frame_offset: int | None = None):
        super().__init__(message)
        self.frame_offset = frame_offset


class _InBuffer(ctypes.Structure):
    _fields_ = [
        ("src", ctypes.c_void_p),
        ("size", ctypes.c_size_t),
        ("pos", ctypes.c_size_t),
    ]


class _OutBuffer(ctypes.Structure):
    _fields_ = [
        ("dst", ctypes.c_void_p),
        ("size", ctypes.c_size_t),
        ("pos", ctypes.c_size_t),
    ]


def _load_libzstd() -> ctypes.CDLL:
    """The system libzstd: the fixed sonames first, then ``find_library``,
    which on Linux runs ``ldconfig -p`` in a child process, only if none
    of them loads."""
    last_error: OSError | None = None
    for name in ("libzstd.so.1", "libzstd.so", "libzstd.1.dylib", "libzstd.dylib"):
        try:
            return ctypes.CDLL(name)
        except OSError as exc:
            last_error = exc
    from ctypes.util import find_library

    found = find_library("zstd")
    if found:
        try:
            return ctypes.CDLL(found)
        except OSError as exc:
            last_error = exc
    raise ZstdError(f"could not locate a libzstd shared library: {last_error}")


_lib = _load_libzstd()

_lib.ZSTD_isError.restype = ctypes.c_uint
_lib.ZSTD_isError.argtypes = [ctypes.c_size_t]
_lib.ZSTD_getErrorName.restype = ctypes.c_char_p
_lib.ZSTD_getErrorName.argtypes = [ctypes.c_size_t]
_lib.ZSTD_compressBound.restype = ctypes.c_size_t
_lib.ZSTD_compressBound.argtypes = [ctypes.c_size_t]
_lib.ZSTD_compress.restype = ctypes.c_size_t
_lib.ZSTD_compress.argtypes = [
    ctypes.c_void_p,
    ctypes.c_size_t,
    ctypes.c_void_p,
    ctypes.c_size_t,
    ctypes.c_int,
]
_lib.ZSTD_createDStream.restype = ctypes.c_void_p
_lib.ZSTD_freeDStream.restype = ctypes.c_size_t
_lib.ZSTD_freeDStream.argtypes = [ctypes.c_void_p]
_lib.ZSTD_initDStream.restype = ctypes.c_size_t
_lib.ZSTD_initDStream.argtypes = [ctypes.c_void_p]
_lib.ZSTD_decompressStream.restype = ctypes.c_size_t
_lib.ZSTD_decompressStream.argtypes = [
    ctypes.c_void_p,
    ctypes.POINTER(_OutBuffer),
    ctypes.POINTER(_InBuffer),
]
_lib.ZSTD_DStreamOutSize.restype = ctypes.c_size_t

_OUT_CHUNK = _lib.ZSTD_DStreamOutSize()


def _check(code: int, frame_offset: int | None = None) -> int:
    if _lib.ZSTD_isError(code):
        name = _lib.ZSTD_getErrorName(code).decode("ascii", "replace")
        raise ZstdError(name, frame_offset=frame_offset)
    return code


def compress(data: bytes, level: int = 9) -> bytes:
    """Compress ``data`` into a single zstd frame."""
    bound = _lib.ZSTD_compressBound(len(data))
    dst = ctypes.create_string_buffer(bound)
    written = _check(_lib.ZSTD_compress(dst, bound, data, len(data), level))
    return ctypes.string_at(dst, written)


def decompress(data: bytes) -> bytes:
    """Decompress one or more concatenated zstd frames.

    Raises ZstdError carrying the byte offset of the frame in which the
    failure occurred.
    """
    if not data:
        return b""
    stream = _lib.ZSTD_createDStream()
    if not stream:
        raise ZstdError("ZSTD_createDStream failed")
    try:
        out_parts: list[bytes] = []
        # The decoder reads the bytes object's own buffer, which a local
        # name keeps alive for the whole call.
        in_buf = _InBuffer(ctypes.cast(data, ctypes.c_void_p), len(data), 0)
        dst = ctypes.create_string_buffer(_OUT_CHUNK)
        frame_offset = 0
        _check(_lib.ZSTD_initDStream(stream))
        while True:
            out_buf = _OutBuffer(ctypes.cast(dst, ctypes.c_void_p), _OUT_CHUNK, 0)
            ret = _check(
                _lib.ZSTD_decompressStream(
                    stream, ctypes.byref(out_buf), ctypes.byref(in_buf)
                ),
                frame_offset=frame_offset,
            )
            if out_buf.pos:
                out_parts.append(ctypes.string_at(dst, out_buf.pos))
            if ret == 0:
                if in_buf.pos == in_buf.size:
                    break
                # Frame complete with input left over: the next frame starts here.
                frame_offset = in_buf.pos
                _check(_lib.ZSTD_initDStream(stream))
                continue
            if out_buf.pos == out_buf.size:
                continue  # decoder has more to flush
            if in_buf.pos == in_buf.size:
                raise ZstdError(
                    "truncated zstd frame: input ended mid-frame",
                    frame_offset=frame_offset,
                )
        return b"".join(out_parts)
    finally:
        _lib.ZSTD_freeDStream(stream)
