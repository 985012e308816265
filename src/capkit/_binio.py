"""File I/O shared by every format: the one input reader, the atomic writer,
and the little-endian binary model/feature helpers."""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import MalformedInput


def read_file(path, what: str, parse=None, *, binary: bool = False):
    """The UTF-8 text of ``path`` (its bytes if ``binary``), through ``parse`` if given.

    Every input file is read here. Text has universal newlines, so its
    lines split on ``"\\n"`` as ``readlines()`` would. An ``OSError``, a
    ``ValueError`` (bad UTF-8, a JSON error, a NUL in the path) or a
    ``RecursionError`` raises ``MalformedInput("cannot read <what> <path>: ...")``.
    """
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as fh:
            data = fh.read()
        return data if parse is None else parse(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"cannot read {what} {path}: {exc}") from exc


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

    def _advance(self, n: int) -> int:
        """Offset of the next ``n`` bytes, which the reader then moves past."""
        start = self.pos
        if start + n > len(self.data):
            raise MalformedInput(f"{self.label}: truncated (needed {n} bytes at offset {start})")
        self.pos = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.data[start:self.pos]

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
        """The next ``shape`` float64 block, copied once out of the data; a
        NaN or infinite value in it raises MalformedInput."""
        count = math.prod(shape)
        start = self._advance(8 * count)
        block = np.frombuffer(self.data, "<f8", count, start)
        finite = np.isfinite(block)
        if not finite.all():
            offset = start + 8 * int(np.argmin(finite))
            raise MalformedInput(f"{self.label}: non-finite weight at offset {offset}")
        return block.reshape(shape).astype(np.float64)

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
