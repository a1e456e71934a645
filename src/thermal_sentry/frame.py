"""Thermal frame primitives and PGM file I/O.

A frame is an immutable row-major grid of unsigned 16-bit intensity counts
(raw sensor units, deliberately uninterpreted). The movement detector
differences frames with `abs_diff`; the quadrant detector splits them 2x2 in
`QuadrantId` order.

PGM support covers P2 (ASCII) and P5 (binary) with maxval <= 65535. Binary
16-bit payloads are big-endian, most significant byte first, per the PGM
convention. Header fields and P2 samples are ASCII decimal digits only, as
Netpbm specifies. Files are always written as 16-bit P5 with maxval 65535;
8-bit inputs are widened on load without rescaling.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

MAX_COUNT = 65535


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM files."""


class QuadrantId(IntEnum):
    """Fixed row-major quadrant order, top-left first."""

    Q0 = 0  # top-left
    Q1 = 1  # top-right
    Q2 = 2  # bottom-left
    Q3 = 3  # bottom-right


# iterating a tuple is far cheaper than iterating the enum class, which the
# per-frame code does several times
QUADRANTS = tuple(QuadrantId)


class CheckedRecord:
    """Put first among the bases of a namedtuple subclass whose `__new__`
    checks the fields: `_replace` copies through `_make`, and this `_make`
    builds through `__new__`, so a copy cannot skip the checks."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class ThermalFrame(CheckedRecord, namedtuple("ThermalFrame", "width height pixels frame_index")):
    """One radiometric image.

    `pixels` is a read-only (height, width) uint16 array. Dimensions must be
    even and at least 2 so the quadrant split is exact. Frames compare and
    hash by identity: as tuples they would compare their pixel arrays.
    """

    __slots__ = ()
    __ne__, __hash__ = object.__ne__, object.__hash__

    def __new__(cls, width: int, height: int, pixels: np.ndarray, frame_index: int = 0):
        if width < 2 or height < 2 or width % 2 or height % 2:
            raise ValueError(f"frame dimensions must be even and >= 2, got {width}x{height}")
        arr = np.asarray(pixels)
        if arr.ndim == 2 and arr.shape != (height, width):
            raise ValueError(f"pixel grid shape {arr.shape} does not match {height}x{width}")
        if arr.size != width * height:
            raise ValueError(f"expected {width * height} pixels, got {arr.size}")
        # unsigned values of up to 16 bits, in either byte order, are all in
        # range; a dtype test costs far less than a scan of the values
        if not (arr.dtype.kind == "u" and arr.dtype.itemsize <= 2):
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > MAX_COUNT):
                raise ValueError(f"pixel values must be within 0..{MAX_COUNT}")
        # the one copy: the frame never shares its pixels with the caller
        arr = arr.astype(np.uint16, order="C").reshape(height, width)
        arr.setflags(write=False)
        return super().__new__(cls, width, height, arr, frame_index)

    def __eq__(self, other: object) -> bool:
        return self is other


def abs_diff(a: ThermalFrame, b: ThermalFrame) -> np.ndarray:
    """Per-pixel |a - b|, as a fresh (height, width) uint16 array."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    # max - min never wraps, so the difference is exact without widening
    diff = np.maximum(a.pixels, b.pixels)
    diff -= np.minimum(a.pixels, b.pixels)
    return diff


# (header bytes, parsed header) of the last file that decoded. The header
# bytes run to the byte after maxval, which `_NUMBER`'s lookahead reads and
# P5 requires to be whitespace.
_last_header: tuple[bytes, tuple[bytes, int, int, int, int]] | None = None
# how much each read asks for once a file has turned out longer than fstat said
_READ_CHUNK = 1 << 16


def _read_file(path: str | Path) -> bytes:
    """The whole content of a file, read with raw `os` calls, which cost
    about half of what a Python file object does. The first read asks for
    one byte more than fstat reports and the reads go on to the end of the
    file, so a file that grows, or a pipe, is still read whole."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, os.fstat(fd).st_size + 1)
        # a short read ends a regular file but not a pipe, so one more read
        # must come back empty; asking it for a single byte allocates no
        # large buffer
        tail = os.read(fd, 1)
        if tail:
            chunks = [data, tail]
            while chunks[-1]:
                chunks.append(os.read(fd, _READ_CHUNK))
            data = b"".join(chunks)
    except OSError as exc:
        # os.read's error names no file; open()'s error does
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return data


def load_pgm(path: str | Path, *, frame_index: int = 0) -> ThermalFrame:
    """Load a P2 or P5 PGM file as the frame numbered `frame_index`.

    8-bit files (maxval < 256) are widened to 16-bit storage without
    rescaling: a stored 255 stays 255.

    A stream's frames share one header, so it is parsed and checked once: a
    file whose leading bytes equal the header of the last file that decoded
    reuses that parse and skips the header checks, because equal bytes parse
    the same and pass the same checks. The header is kept only after its
    file has decoded, and the checks on the payload run on every file.
    """
    global _last_header
    data = _read_file(path)
    last = _last_header
    if last is not None and data.startswith(last[0]):
        magic, width, height, maxval, pos = last[1]
    else:
        magic, width, height, maxval, pos = header = _parse_header(path, data)
        if not 0 < maxval <= MAX_COUNT:
            raise PgmError(f"{path}: unsupported maxval {maxval}")
        if width < 2 or height < 2 or width % 2 or height % 2:
            raise PgmError(
                f"{path}: dimensions must be even and >= 2, got {width}x{height}"
            )
        if magic == b"P5" and not data[pos : pos + 1].isspace():
            raise PgmError(f"{path}: missing whitespace after maxval")
        last = None  # a new header, kept once its payload has decoded
    count = width * height
    if magic == b"P5":
        itemsize = 2 if maxval > 255 else 1
        if len(data) - pos - 1 != count * itemsize:
            raise PgmError(
                f"{path}: expected {count * itemsize} payload bytes, "
                f"got {len(data) - pos - 1}"
            )
        # The payload starts right after the header, at an odd offset for
        # the usual `P5\nW H\n65535\n`. numpy's byte-swapping cast from an
        # unaligned buffer is several times slower than from an aligned one,
        # and at 640x480 it made `detect` take ten times the minor page
        # faults per frame. A fresh bytes object's data is aligned, so the
        # payload is sliced off. It is left unconverted: ThermalFrame's
        # conversion to uint16 is the copy the frame keeps.
        values = np.frombuffer(data[pos + 1 :], dtype=">u2" if itemsize == 2 else np.uint8)
    else:
        text = re.sub(rb"#[^\n]*", b"", data[pos:])
        if not _P2_SAMPLES.fullmatch(text):
            raise PgmError(f"{path}: non-numeric sample in P2 payload")
        try:
            parsed = [int(t) for t in text.split()]
        except ValueError:  # more digits than int() converts
            raise PgmError(f"{path}: sample out of range") from None
        if len(parsed) != count:
            raise PgmError(f"{path}: expected {count} samples, got {len(parsed)}")
        if max(parsed) > MAX_COUNT:
            raise PgmError(f"{path}: sample out of range")
        values = np.asarray(parsed, dtype=np.uint16)
    # a full-range 16-bit maxval admits every stored value
    if maxval < MAX_COUNT and int(values.max()) > maxval:
        raise PgmError(f"{path}: sample {int(values.max())} exceeds maxval {maxval}")
    if last is None:
        _last_header = (data[: pos + 1], header)
    return ThermalFrame(width, height, values, frame_index)


def write_pgm(frame: ThermalFrame, path: str | Path) -> None:
    """Write a frame as binary 16-bit P5 with maxval 65535 (big-endian)."""
    header = f"P5\n{frame.width} {frame.height}\n{MAX_COUNT}\n".encode("ascii")
    with open(path, "wb") as out:
        out.write(header)
        # the byte-swapped copy is written through the buffer protocol,
        # without a bytes copy of it or of header + payload
        out.write(frame.pixels.astype(">u2"))


def replay_dir(path: str | Path) -> Iterator[ThermalFrame]:
    """Yield the `*.pgm` frames of a directory in lexicographic filename
    order, as `replay_files` does. A missing directory is an error."""
    directory = Path(path)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory}: no such directory")
    # the names pathlib's "*.pgm" glob matches on POSIX, where it is
    # case-sensitive and matches hidden files too
    prefix = os.path.join(str(directory), "")
    names = sorted(name for name in os.listdir(prefix) if name.endswith(".pgm"))
    yield from replay_files([prefix + name for name in names])


def replay_files(paths: Iterable[str | Path]) -> Iterator[ThermalFrame]:
    """Yield frames from files in the given order.

    Frame indices are (re)assigned in the given order from 0, which makes the
    file order the stream order. A dimension change mid-stream is an error.
    """
    dims: tuple[int, int] | None = None
    for index, file in enumerate(paths):
        # by keyword: tracers that wrap load_pgm see the path as its only
        # positional argument
        frame = load_pgm(file, frame_index=index)
        if dims is None:
            dims = (frame.width, frame.height)
        elif (frame.width, frame.height) != dims:
            raise PgmError(
                f"{file}: dimension change mid-stream, "
                f"{frame.width}x{frame.height} after {dims[0]}x{dims[1]}"
            )
        yield frame


# Header grammar: tokens separated by whitespace and `#` comments (which run
# to the end of their line). A comment must consume its whole line, so every
# separator splits into whitespace and comments one way only and matching
# stays linear on hostile input. A token ends at whitespace, '#' or the end
# of the data.
_SEPARATOR = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*")
_MAGIC = re.compile(rb"P[25](?![^\s#])")
_NUMBER = re.compile(rb"\d+(?![^\s#])")  # bytes patterns: \d is ASCII 0-9 only
_P2_SAMPLES = re.compile(rb"[\d\s]*")


def _parse_header(path: str | Path, data: bytes) -> tuple[bytes, int, int, int, int]:
    """Magic, width, height and maxval, plus the byte offset just past maxval.

    The magic must be exactly `P2` or `P5` and the numbers ASCII decimal
    digits; `+255`, `1_2` and `P22` are rejected.
    """
    if not _MAGIC.match(data):
        raise PgmError(f"{path}: not a P2/P5 PGM file")
    pos = 2
    numbers = []
    for _ in range(3):
        pos = _SEPARATOR.match(data, pos).end()
        token = _NUMBER.match(data, pos)
        if token is None:
            fault = "truncated" if pos == len(data) else "malformed"
            raise PgmError(f"{path}: {fault} header")
        try:
            numbers.append(int(token[0]))
        except ValueError:  # more digits than int() converts
            raise PgmError(f"{path}: malformed header") from None
        pos = token.end()
    width, height, maxval = numbers
    return data[:2], width, height, maxval, pos
