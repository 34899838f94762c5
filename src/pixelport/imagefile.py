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
round-trip formatting, so write -> read -> write is byte-stable.
"""

from __future__ import annotations

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
    lines = [MAGIC, f"{width} {height}", "re_im"]
    lines += [f"# {c}" for c in comments]
    # one row of (re, im) pairs at a time, so no whole-image list is built
    lines += [",".join(map(repr, row.tolist())) for row in np.ascontiguousarray(samples).view(float)]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_rows(rows: list[str]) -> np.ndarray:
    """Parse comma-separated rows of numbers with numpy's C text reader."""
    return np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)


def read_image(path) -> tuple[np.ndarray, str, list[str]]:
    """Read an image file; returns (samples, encoding, comments).

    The file must be UTF-8.  A cell must be a number that numpy's text reader
    parses: ASCII decimal, ``inf`` or ``nan``, with optional surrounding
    whitespace.  Underscore separators and non-ASCII digits are non-numeric
    cells.  Non-finite values are rejected after parsing.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc

    lines = text.splitlines()
    if len(lines) < 3:
        raise ImageFormatError(f"{path}: truncated header")
    if lines[0].strip() != MAGIC:
        raise ImageFormatError(f"{path}: bad magic line {lines[0]!r}")
    dims = lines[1].split()
    try:
        width, height = int(dims[0]), int(dims[1])
    except (IndexError, ValueError) as exc:
        raise ImageFormatError(f"{path}: bad dimension line {lines[1]!r}") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: non-positive dimensions {width}x{height}")
    encoding = lines[2].strip()
    if encoding not in ENCODINGS:
        raise ImageFormatError(f"{path}: unknown encoding {encoding!r}")

    comments: list[str] = []
    rows: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines[3:], start=4):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped.lstrip("#").strip())
            continue
        count = stripped.count(",") + 1
        if count != 2 * width:
            raise ImageFormatError(f"{path}:{lineno}: expected {2 * width} values per row, got {count}")
        rows.append(stripped)
        linenos.append(lineno)
    if len(rows) != height:
        raise ImageFormatError(f"{path}: expected {height} data rows, found {len(rows)}")

    try:
        data = _parse_rows(rows)
    except ValueError:
        # parse row by row only to name the first bad line
        for lineno, row in zip(linenos, rows):
            try:
                _parse_rows([row])
            except ValueError as exc:
                raise ImageFormatError(f"{path}:{lineno}: non-numeric cell") from exc
        raise
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
