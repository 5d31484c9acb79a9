"""
The binary container of feature packs and checkpoints: a 4-byte magic, a
u16 version, then little-endian fields in the order each format fixes:
u32 and i64 integers, u32-length-prefixed UTF-8 strings, zero padding up
to an ALIGN-byte file offset, and typed arrays whose shapes the format
already knows. `Reader` checks every length before it slices and rejects
trailing bytes; `create` and the field encoders below it are the only code
that writes the container.
"""

import math
import struct

import numpy as np

ALIGN = 8  # `pad` brings the file offset to a multiple of this


class FormatError(ValueError):
    """Bad magic or version, truncated file, trailing bytes or bad content."""


class Reader:
    """Parses one file in order; arrays are read-only views of its bytes."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as f:
            self._buf = np.fromfile(f, np.uint8)  # numpy allocates aligned
        self._buf.flags.writeable = False
        self._off = 0
        self._what = what
        got = bytes(self._slice(len(magic), "magic"))
        if got != magic:
            raise FormatError(f"bad {what} magic {got!r}, expected {magic!r}")
        (got,) = struct.unpack("<H", self._slice(2, "version"))
        if got != version:
            raise FormatError(f"unsupported {what} version {got}")

    def _slice(self, n: int, field: str) -> np.ndarray:
        end = self._off + n
        if end > len(self._buf):
            raise FormatError(f"truncated {self._what}: need {end} bytes for "
                              f"{field}, file has {len(self._buf)}")
        chunk, self._off = self._buf[self._off:end], end
        return chunk

    def u32(self, field: str) -> int:
        return struct.unpack("<I", self._slice(4, field))[0]

    def i64(self, field: str) -> int:
        return struct.unpack("<q", self._slice(8, field))[0]

    def string(self, field: str) -> str:
        try:
            return str(self._slice(self.u32(field), field), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self._what}: {field} is not UTF-8") from e

    def array(self, dtype: str, shape: tuple, field: str) -> np.ndarray:
        n = math.prod(shape) * np.dtype(dtype).itemsize
        return np.frombuffer(self._slice(n, field), dtype).reshape(shape)

    def pad(self) -> None:
        """Skip the zero bytes that `pad` wrote; any other byte is an error."""
        if self._slice(-self._off % ALIGN, "padding").any():
            raise FormatError(f"nonzero padding in the {self._what}")

    def end(self) -> None:
        """Raise unless every byte of the file has been read."""
        extra = len(self._buf) - self._off
        if extra:
            raise FormatError(f"{extra} trailing bytes after the {self._what}")


def create(path, magic: bytes, version: int):
    """Open `path` for writing and write the header; fields follow."""
    f = open(path, "wb")
    f.write(magic + struct.pack("<H", version))
    return f


def pad(f) -> None:
    """Write zero bytes up to the next ALIGN-byte offset of file `f`."""
    f.write(bytes(-f.tell() % ALIGN))


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def i64(value: int) -> bytes:
    return struct.pack("<q", value)


def string(value: str) -> bytes:
    raw = value.encode("utf-8")
    return u32(len(raw)) + raw


def array(arr: np.ndarray, dtype: str) -> memoryview:
    return np.ascontiguousarray(arr, dtype=dtype).data
