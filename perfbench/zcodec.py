"""One-shot zstd frames through the system libzstd, for the benchmark alone.

The generator compresses inputs and the checker decompresses shards with
this binding rather than with the program's codec, so a change to the
program cannot change the inputs or hide a fault from the checker.
"""

from __future__ import annotations

import ctypes
import ctypes.util

_lib = ctypes.CDLL(ctypes.util.find_library("zstd") or "libzstd.so.1")
_lib.ZSTD_isError.restype = ctypes.c_uint
_lib.ZSTD_isError.argtypes = [ctypes.c_size_t]
_lib.ZSTD_getErrorName.restype = ctypes.c_char_p
_lib.ZSTD_getErrorName.argtypes = [ctypes.c_size_t]
_lib.ZSTD_compressBound.restype = ctypes.c_size_t
_lib.ZSTD_compressBound.argtypes = [ctypes.c_size_t]
_lib.ZSTD_compress.restype = ctypes.c_size_t
_lib.ZSTD_compress.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t, ctypes.c_int]
_lib.ZSTD_decompress.restype = ctypes.c_size_t
_lib.ZSTD_decompress.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t]
_lib.ZSTD_getFrameContentSize.restype = ctypes.c_ulonglong
_lib.ZSTD_getFrameContentSize.argtypes = [ctypes.c_char_p, ctypes.c_size_t]
_lib.ZSTD_versionString.restype = ctypes.c_char_p

# ZSTD_CONTENTSIZE_UNKNOWN and ZSTD_CONTENTSIZE_ERROR.
_NO_SIZE = (2**64 - 1, 2**64 - 2)


class ZstdError(ValueError):
    pass


def _check(code: int) -> int:
    if _lib.ZSTD_isError(code):
        raise ZstdError(_lib.ZSTD_getErrorName(code).decode("ascii", "replace"))
    return code


def version() -> str:
    return _lib.ZSTD_versionString().decode("ascii")


def compress(data: bytes, level: int) -> bytes:
    bound = _lib.ZSTD_compressBound(len(data))
    dst = ctypes.create_string_buffer(bound)
    written = _check(_lib.ZSTD_compress(dst, bound, data, len(data), level))
    return dst.raw[:written]


def decompress(frame: bytes) -> bytes:
    """Decompress one frame that records its content size, and nothing after it."""
    size = _lib.ZSTD_getFrameContentSize(frame, len(frame))
    if size in _NO_SIZE:
        raise ZstdError("not a single zstd frame with a recorded content size")
    dst = ctypes.create_string_buffer(max(size, 1))
    written = _check(_lib.ZSTD_decompress(dst, size, frame, len(frame)))
    if written != size:
        raise ZstdError(f"frame holds {written} bytes, header says {size}")
    return dst.raw[:written]
