"""Plain-text complex image files.

The format is a CSV payload under a three-line header:

    pixelport-image-v1
    <width> <height>
    <encoding>

with encoding either ``re_im`` (each pixel as real,imag) or ``amp_phase``
(each pixel as amplitude,phase with amplitude >= 0).  Both are read; only
``re_im`` is written.  Every data row holds one image row as 2*width
comma-separated numbers.  Lines starting with ``#`` after the header carry
run parameters and are ignored on read.  Reading and writing hold one block
of text at a time: each block is written as soon as it is formatted, and read
rows go straight into numpy's text reader.

Each value's text is ``repr``'s: the shortest digits that round-trip, laid
out as ``repr`` lays them out, so write -> read -> write is byte-stable.
:func:`_format_rows` computes it in numpy, a block of values at a time.  It
scales each |x| by 10**(16 - e), e its decade, with a double-double power of
ten and Dekker's exact product, which gives the 17-digit integer D and a
residual.  It keeps the nearest multiple of 100, else of 10, else D itself,
the first that lies strictly inside x's +-1/2-ulp interval, and reads the
digits and their count from it.  ``repr`` formats every value this cannot
certify: non-finite values, subnormals, values outside the table's decades,
exact power-of-two significands (their interval is lopsided), and any
rounding decision within a fixed margin of a tie or an interval edge.  A
block of ``_BLOCK`` values holds about 100 bytes of temporaries per value,
whatever the row length, and the tables take about 25 kB, so writing a
256x256 image peaks under a quarter of its array's bytes.
"""

from __future__ import annotations

import functools
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


_BLOCK = 2048  # values formatted per block
_E_MIN, _E_MAX = -280, 280  # decades the kernel formats; the splits and 10**(16 - e) stay normal and finite
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_MARGIN = 2.0**-20  # in units of D; the scaled value and the interval are good to about 2**-45
_WIDTH = 30  # byte rows per value: sign, "0.000" prefix, 17 digits with a dot, exponent, separator
_POSITIONS = np.arange(18, dtype=np.int8)[:, None]  # a row's place in the digit area
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**(16 - e) per decade e, the digits of 0..999 and the exponent suffixes.

    The power of ten is a double-double hi + lo, with hi split into 26-bit
    halves for Dekker's product.  Built on first use, from Python integers,
    so importing the module builds nothing.
    """
    pows = np.empty((4, _E_MAX - _E_MIN + 3))  # decades _E_MIN - 1 .. _E_MAX + 1, for the one-decade fix-up
    for i, k in enumerate(range(17 - _E_MIN, 14 - _E_MAX, -1)):
        if k >= 0:
            hi = float(10**k)
            pows[:2, i] = hi, float(10**k - int(hi))
        else:
            hi = 1 / 10**-k  # int / int is correctly rounded
            num, den = hi.as_integer_ratio()
            pows[:2, i] = hi, (den - num * 10**-k) / (den * 10**-k)
    split = pows[0] * _SPLIT
    pows[2] = split - (split - pows[0])
    pows[3] = pows[0] - pows[2]
    triples = np.arange(1000)
    digits = np.array([triples // 100, triples // 10 % 10, triples % 10], np.uint8) + np.uint8(48)
    # column x + 330: "e", the sign, then the exponent's digits right-aligned; 0 bytes are dropped
    suffixes = np.zeros((5, 660), np.uint8)
    for x in range(-330, 330):
        text = f"e{x:+03d}".encode()
        suffixes[[0, 1, *range(7 - len(text), 5)], x + 330] = list(text)
    return pows, digits, suffixes


def _scaled(ax: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D + r = ax * 10**(16 - e) with D an integer and |r| <= 1/2, and h, half of ax's ulp on that scale."""
    pows = _tables()[0]
    ph = np.take(pows[0], idx)
    p = ax * ph
    h = np.spacing(ax)
    h *= ph
    h *= 0.5
    # Dekker's exact product: ax * hi = p + err, from the 26-bit halves of each factor
    xh = np.multiply(ax, _SPLIT, out=ph)
    xh -= xh - ax
    xl = ax - xh
    hh = np.take(pows[2], idx)
    hl = np.take(pows[3], idx)
    err = xh * hh
    err -= p
    xh *= hl
    err += xh
    hh *= xl
    err += hh
    hl *= xl
    err += hl
    err += np.multiply(ax, np.take(pows[1], idx, out=xl), out=xl)
    whole = np.rint(p, out=hh)
    p -= whole
    p += err
    D = whole.astype(np.int64)
    np.rint(p, out=whole)
    p -= whole
    D += whole.astype(np.int64)
    return D, p, h


def _format_block(v: np.ndarray, row_end: int, ncols: int) -> bytes:
    """The text of the values v, each followed by "," or, from index row_end on every ncols-th, by a newline."""
    _, digits, suffixes = _tables()
    size = v.size
    bits = v.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    zero = (bits & 0x7FFFFFFFFFFFFFFF) == 0
    # a normal value whose significand is not a power of two; zeros are laid out as such below
    ok = (biased != 0) & (biased != 0x7FF) & ((bits & 0xFFFFFFFFFFFFF) != 0)
    del biased
    ax = np.abs(v)
    ax[~ok] = 1.5
    e = np.floor(np.log10(ax)).astype(np.int16)
    ok &= (e >= _E_MIN) & (e <= _E_MAX)
    e[~ok] = 0
    ax[~ok] = 1.5
    idx = (e - (_E_MIN - 1)).astype(np.intp)
    D, r, h = _scaled(ax, idx)
    # log10 can miss the decade next to a power of ten; D then has 16 or 18 digits
    off = (D < 10**16).astype(np.int16)
    off -= D >= 10**17
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] -= off[redo]
        D[redo], r[redo], h[redo] = _scaled(ax[redo], idx[redo] - off[redo])
    del ax, idx, off
    ok &= (D >= 10**16) & (D < 10**17)  # holds, as log10 is good to an ulp; the layout needs it
    # The shortest digits: the multiple of 100 nearest D + r if it lies inside +-h (there is
    # at most one, as h < 12), else the nearest multiple of 10, else D, which always does.
    fallback = ~(ok | zero)
    del ok
    fallback |= np.abs(r) >= 0.5 - _MARGIN  # D + 1/2: two 17-digit candidates
    shift = np.zeros_like(D)  # D minus the digits kept
    for step in (10, 100):
        rem = D // step
        rem *= -step
        rem += D  # D mod step; numpy divides by a constant faster than it takes a remainder
        below = rem + r  # how far D + r lies above the multiple below it; below 0 only when D is one
        if step == 10:  # D + r halfway between two multiples of 100 lies 50 from each, outside h
            fallback |= np.abs(below - step / 2) <= _MARGIN
        up = below > step / 2
        dist = np.minimum(np.abs(below), step - below)
        fallback |= np.abs(dist - h) <= _MARGIN  # an interval edge
        rem -= step * up
        rem -= shift
        rem *= dist < h
        shift += rem
    del r, h, rem, below, up, dist
    M = D - shift
    del D, shift
    top = M >= 10**17  # 10**(e + 1) itself
    M[top] = 10**16
    M[zero] = 0
    decpt = e + 1  # repr's decimal point: the digits read 0.d1d2... times 10**decpt
    decpt += top
    decpt[zero] = 1
    del e, top

    # rows 1..17 the 17 digits of M; rows 0 and 18 pad the views shifted by one digit
    pad = np.empty((19, size), np.uint8)
    high = (M // 10**9).astype(np.int32)  # digits 0..7, three at a time from row 0's leading "0"
    low = (M - high * np.int64(10**9)).astype(np.int32)  # digits 8..16
    del M
    # mode="clip": a value left to repr may carry any M, and its digits are overwritten below
    for row, part, scale in ((0, high, 10**6), (3, high, 10**3), (6, high, 1), (9, low, 10**6), (12, low, 10**3)):
        chunk = part // scale
        part -= chunk * scale
        np.take(digits, chunk, axis=1, out=pad[row : row + 3], mode="clip")
    np.take(digits, low, axis=1, out=pad[15:18], mode="clip")
    pad[0] = pad[18] = 0
    del high, low, part, chunk
    n = np.max((pad[1:18] != 48).view(np.int8) * _POSITIONS[:17], axis=0)
    n += 1  # significant digits; 1 for zero
    fixed = (decpt >= 1) & (decpt <= 16)
    small = (decpt >= -3) & (decpt <= 0)
    # the digit area: digits 0..dot, ".", the rest up to end; dot = 16 puts it past every digit
    point = np.clip(decpt, 1, 16).astype(np.int8)
    dot = fixed * (point - 17)
    dot -= np.int8(16) * (~(fixed | small) & (n > 1))  # the exponent form's dot after its first digit
    dot += 16
    end = np.maximum(n, fixed * (point + 1))
    end += dot < 16
    del point
    buf = np.empty((_WIDTH, size), np.uint8)
    area = buf[6:24]
    # uint8 arithmetic selects without branches: a + (b - a) * mask is b where mask, a elsewhere
    np.subtract(pad[1:19], pad[0:18], out=area)
    area *= (_POSITIONS <= dot).view(np.uint8)
    area += pad[0:18]
    np.subtract(np.uint8(46), area, out=pad[0:18])
    pad[0:18] *= (_POSITIONS == dot + 1).view(np.uint8)
    area += pad[0:18]
    area *= (_POSITIONS < end).view(np.uint8)
    del pad, dot, end, n
    buf[0] = (bits < 0).view(np.uint8) * np.uint8(45)
    zeros = small * (2 - np.clip(decpt, -3, 0)).astype(np.int8)  # "0." and -decpt zeros
    np.multiply((_POSITIONS[:5] < zeros).view(np.uint8), _PREFIX, out=buf[1:6])
    buf[24:29] = 0
    at = np.flatnonzero(~(fixed | small))
    if at.size:
        buf[24:29, at] = suffixes[:, decpt[at] + 329]
    buf[29] = 44
    buf[29, row_end::ncols] = 10
    at = np.flatnonzero(fallback)
    if at.size:
        text = np.array([repr(x).encode() for x in v[at].tolist()], dtype="S24")
        buf[:29, at] = 0
        buf[:24, at] = text.view(np.uint8).reshape(-1, 24).T
    return buf.T.tobytes().translate(None, b"\0")


def _format_rows(values: np.ndarray):
    """Yield the text ``",".join(map(repr, row.tolist()))`` and a newline gives each row of a 2D array, as bytes.

    The values are cut into blocks of ``_BLOCK`` in row-major order, whatever
    the row length, and each block's text is yielded as soon as it is made.
    """
    height, width = values.shape
    if width == 0:
        yield b"\n" * height
        return
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        yield _format_block(flat[start : start + _BLOCK], (width - 1 - start) % width, width)


def write_image(path, samples: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    """Write a 2D complex array as ``re_im``; comments go right below the header."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2:
        raise ValueError("image must be a 2D array")
    height, width = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\n{width} {height}\nre_im\n".encode())
        fh.writelines(f"# {c}\n".encode() for c in comments)
        for text in _format_rows(np.ascontiguousarray(samples).view(float)):
            fh.write(text)
            del text  # so one block's text is gone while the next is formatted


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
        try:  # a streamed error counts from its buffer; the whole file, BOM included, gives the file offset
            Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as whole:
            exc = whole
    return ImageFormatError(f"cannot read {path}: {exc}")


def read_image(path) -> tuple[np.ndarray, str, list[str]]:
    """Read an image file; returns (samples, encoding, comments).

    The file must be UTF-8; a leading byte order mark is skipped.  The
    dimension line holds exactly two fields of ASCII digits.  A cell must be
    a number that numpy's text reader parses: ASCII decimal, ``inf`` or
    ``nan``, with optional surrounding whitespace.  Underscore separators
    and non-ASCII digits are non-numeric cells.  Non-finite values are
    rejected after parsing.  Lines are numbered as ``str.splitlines``
    numbers them, and the first fault in file order is reported.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            # str.splitlines also breaks at \x0c, \u2028 and the like: rows and line numbers follow it
            lines = (part for line in fh for part in line.splitlines())
            header = list(itertools.islice(lines, 3))
            if len(header) < 3:
                raise ImageFormatError(f"{path}: truncated header")
            if header[0].strip() != MAGIC:
                raise ImageFormatError(f"{path}: bad magic line {header[0]!r}")
            dims = header[1].split()
            bad_dims = f"{path}: bad dimension line {header[1]!r}"
            # two fields of ASCII digits only: int() would also take 1_0, +1 and non-ASCII digits
            if len(dims) != 2 or not all(d.isascii() and d.isdigit() for d in dims):
                raise ImageFormatError(bad_dims)
            try:
                width, height = int(dims[0]), int(dims[1])
            except ValueError as exc:  # more digits than int() converts
                raise ImageFormatError(bad_dims) from exc
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
