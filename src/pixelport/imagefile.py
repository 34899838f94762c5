"""Plain-text complex image files.

The format is a CSV payload under a three-line header:

    pixelport-image-v1
    <width> <height>
    <encoding>

with encoding either ``re_im`` (each pixel as real,imag) or ``amp_phase``
(each pixel as amplitude,phase with amplitude >= 0).  Both are read; only
``re_im`` is written.  Every data row holds one image row as 2*width
comma-separated numbers.  Lines starting with ``#`` after the header carry
run parameters and are ignored on read.  Values are written with shortest
round-trip formatting, so write -> read -> write is byte-stable.  Reading and
writing hold one row of text at a time: each row is written as soon as it is
formatted, and read rows go straight into numpy's text reader.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

__all__ = ["MAGIC", "ENCODINGS", "ImageFormatError", "read_image", "write_image"]

MAGIC = "pixelport-image-v1"
ENCODINGS = ("re_im", "amp_phase")


class ImageFormatError(Exception):
    """Unreadable or malformed image file."""


def _fmt(x: float) -> str:
    return repr(float(x))


def write_image(path, samples: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    """Write a 2D complex array as ``re_im``; comments go right below the header."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2:
        raise ValueError("image must be a 2D array")
    height, width = samples.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC}\n{width} {height}\nre_im\n")
        fh.writelines(f"# {c}\n" for c in comments)
        for row in np.ascontiguousarray(samples).view(float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _data_rows(lines, path, width: int, height: int, comments: list[str], linenos: list[int]):
    """Yield the payload's data rows; collect comments and line numbers; check each row's and the rows' count."""
    for lineno, line in enumerate(lines, start=4):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped.lstrip("#").strip())
            continue
        count = stripped.count(",") + 1
        if count != 2 * width:
            raise ImageFormatError(f"{path}:{lineno}: expected {2 * width} values per row, got {count}")
        linenos.append(lineno)
        yield stripped
    # raised before numpy's reader sees the end, so an empty payload never reaches it
    if len(linenos) != height:
        raise ImageFormatError(f"{path}: expected {height} data rows, found {len(linenos)}")


def _cannot_read(path, exc: Exception) -> ImageFormatError:
    if isinstance(exc, UnicodeDecodeError):
        try:  # a streamed decode error counts from its buffer; decoding the whole file names the file offset
            Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as whole:
            exc = whole
    return ImageFormatError(f"cannot read {path}: {exc}")


def read_image(path) -> tuple[np.ndarray, str, list[str]]:
    """Read an image file; returns (samples, encoding, comments).

    The file must be UTF-8.  A cell must be a number that numpy's text reader
    parses: ASCII decimal, ``inf`` or ``nan``, with optional surrounding
    whitespace.  Underscore separators and non-ASCII digits are non-numeric
    cells.  Non-finite values are rejected after parsing.  Lines are numbered
    as ``str.splitlines`` numbers them, and the first fault in file order is
    reported.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # str.splitlines also breaks at \x0c, \u2028 and the like: rows and line numbers follow it
            lines = (part for line in fh for part in line.splitlines())
            header = list(itertools.islice(lines, 3))
            if len(header) < 3:
                raise ImageFormatError(f"{path}: truncated header")
            if header[0].strip() != MAGIC:
                raise ImageFormatError(f"{path}: bad magic line {header[0]!r}")
            dims = header[1].split()
            try:
                width, height = int(dims[0]), int(dims[1])
            except (IndexError, ValueError) as exc:
                raise ImageFormatError(f"{path}: bad dimension line {header[1]!r}") from exc
            if width < 1 or height < 1:
                raise ImageFormatError(f"{path}: non-positive dimensions {width}x{height}")
            encoding = header[2].strip()
            if encoding not in ENCODINGS:
                raise ImageFormatError(f"{path}: unknown encoding {encoding!r}")
            comments: list[str] = []
            linenos: list[int] = []
            rows = _data_rows(lines, path, width, height, comments, linenos)
            try:
                data = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
            except UnicodeDecodeError:  # a ValueError too, but of the file, not of a cell
                raise
            except ValueError as exc:
                # numpy's C text reader pulls one row at a time, so the bad cell is on the last row pulled
                raise ImageFormatError(f"{path}:{linenos[-1]}: non-numeric cell") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(path, exc) from exc
    data = data.reshape(height, width, 2)
    if not np.all(np.isfinite(data)):
        raise ImageFormatError(f"{path}: non-finite values")
    if encoding == "re_im":
        # reinterpret the (re, im) pairs in place: arithmetic would lose a -0.0 sign
        samples = np.ascontiguousarray(data).view(complex).reshape(height, width)
    else:
        amp, ph = data[..., 0], data[..., 1]
        if np.any(amp < 0):
            raise ImageFormatError(f"{path}: negative amplitude in amp_phase payload")
        samples = amp * np.exp(1j * ph)
    return samples, encoding, comments
