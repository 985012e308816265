"""Low-level helpers for the little-endian binary model/feature formats."""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import MalformedInput


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ByteReader:
    """Sequential reader that turns short reads into MalformedInput."""

    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise MalformedInput(f"{self.label}: truncated (needed {n} bytes at offset {self.pos})")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def expect_magic(self, magic: bytes) -> None:
        if self.take(len(magic)) != magic:
            raise MalformedInput(f"{self.label}: bad magic, expected {magic!r}")

    def read_str(self) -> str:
        (n,) = self.unpack("<I")
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(
                f"{self.label}: string at offset {self.pos - n} is not UTF-8"
            ) from exc

    def read_str_list(self) -> list[str]:
        (n,) = self.unpack("<I")
        return [self.read_str() for _ in range(n)]

    def read_f64_array(self, shape: tuple[int, ...]) -> np.ndarray:
        count = 1
        for s in shape:
            count *= s
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise MalformedInput(f"{self.label}: {len(self.data) - self.pos} trailing bytes")


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def pack_str_list(items: list[str]) -> bytes:
    out = bytearray(struct.pack("<I", len(items)))
    for item in items:
        out += pack_str(item)
    return bytes(out)


def pack_f64_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()
