"""Plain-text complex image files, and the CSV files the commands write.

The format is a CSV payload under a three-line header:

    pixelport-image-v1
    <width> <height>
    <encoding>

with encoding either ``re_im`` (each pixel as real,imag) or ``amp_phase``
(each pixel as amplitude,phase with amplitude >= 0).  Both are read; only
``re_im`` is written.  Every data row holds one image row as 2*width
comma-separated numbers.  Lines starting with ``#`` after the header carry
run parameters and are ignored on read.  Reading and writing hold one block
of text at a time: each block is written as soon as it is formatted, and
read as soon as a block of whole lines is in.  A block is a fixed floor or a
fixed share of the data, whichever is more (:func:`_block_size`).

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
block is ``_BLOCK`` values, or a 64th of the array's if that is more,
whatever the row length, copied from the array's ``reshape(-1)``: a view
for C order and for its point reflection ``[::-1, ::-1]``, and a whole copy
only for other layouts.  A block holds about 100 bytes of temporaries per
value, so about 0.2 of the array's bytes from 256x256 on, and the tables
take about 25 kB: writing a 256x256 or larger image in either of those two
layouts peaks under a quarter of its array's bytes.

Reading is the inverse, and gives the bits ``np.loadtxt`` gives.  One loop
reads the file once, past a byte order mark, in blocks of whole lines, into
a buffer of ``_READ_BLOCK`` bytes, or a 32nd of the file if that is more.  A
block ends after its last line end: the last newline, or a later ``\\r``
before the buffer's last byte, which no newline follows and so ends a line
as ``str.splitlines`` ends it; at the end of the file, after its last byte.
A full buffer with no line end doubles.  The header's three lines and a run
of ``#`` or blank lines under them are one block.  Every later block goes to
the kernel first: :func:`_parse_block` takes rows of canonical cells,
``-?\\d+\\.\\d+`` as ``repr`` writes them, that all end in a newline, in
``\\r`` and a newline, or all in a bare ``\\r``.  It reads each cell's
digits as one integer D, eight per unaligned 8-byte word (SWAR), and rounds
D * 10**-k once, with the writer's double-double powers of ten and Dekker's
product.  ``np.loadtxt`` reads every cell the kernel cannot certify: a cell
outside that grammar (an exponent, a ``+``, a missing digit), over 24 digits
or with D of 10**19 or more, a power of two, and any value within ``_TIE``
of half an ulp from its rounding.  Every other block (the header, ``#`` or
blank lines, mixed line ends, ``\\x0c``, whitespace, a non-ASCII byte, a
wrong cell count, a cell numpy does not take, a last line with no line end)
goes with its file offset to the one text route, :meth:`_Payload.text`.  It
decodes the block as UTF-8, numbers lines as ``str.splitlines`` does, takes
the file's first three as the header and reads the block's rows in one
``np.loadtxt`` call, which pulls them a row at a time, so it names each
fault's line.  A byte that is not UTF-8 is a fault of its line: the lines
before it are read first, so the first fault in file order is the one
reported, and the error counts the byte's position from the file's start.  A
block holds about 7 bytes of temporaries per byte of text, so a 32nd of the
file holds about 0.22 of the file's bytes, and the values go into one array:
reading a 256x256 or larger image peaks under twice its values' bytes.
"""

from __future__ import annotations

import codecs
import functools
import itertools
import os

import numpy as np

__all__ = ["MAGIC", "ENCODINGS", "ImageFormatError", "read_image", "write_image"]

MAGIC = "pixelport-image-v1"
ENCODINGS = ("re_im", "amp_phase")


class ImageFormatError(Exception):
    """Unreadable or malformed image file."""


def _fmt(x: float) -> str:
    return repr(float(x))


_BLOCK = 2048  # values formatted per block, at least
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


def _block_size(floor: int, total: int, share: int) -> int:
    """Units a kernel takes per block of data of total units: floor, or total // share if that is more.

    A kernel pays a fixed time per block whatever its size; a block that
    grows with the data spreads it over more values, while the block's
    temporaries stay a fixed share of the data.
    """
    return max(floor, total // share)


def _times_pow10(x: np.ndarray, idx: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p + err = x * 10**(16 - e), e the decade of table column idx, to about 2**-104 of it; y *= hi in place.

    p is x * hi rounded, and err Dekker's exact x * hi - p plus x * lo, for
    the double-double power hi + lo.
    """
    pows = _tables()[0]
    ph = pows[0].take(idx)
    p = x * ph
    y *= ph
    # Dekker's exact product: x * hi = p + err, from the 26-bit halves of each factor
    xh = np.multiply(x, _SPLIT, out=ph)
    xh -= xh - x
    xl = x - xh
    hh = pows[2].take(idx)
    hl = pows[3].take(idx)
    err = xh * hh
    err -= p
    xh *= hl
    err += xh
    hh *= xl
    err += hh
    hl *= xl
    err += hl
    err += np.multiply(x, pows[1].take(idx, out=xl), out=xl)
    return p, err


def _scaled(ax: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D + r = ax * 10**(16 - e) with D an integer and |r| <= 1/2, and h, half of ax's ulp on that scale."""
    h = np.spacing(ax)
    p, err = _times_pow10(ax, idx, h)
    h *= 0.5
    whole = np.rint(p)
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
    redo = off.nonzero()[0]
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
        digits.take(chunk, axis=1, out=pad[row : row + 3], mode="clip")
    digits.take(low, axis=1, out=pad[15:18], mode="clip")
    pad[0] = pad[18] = 0
    del high, low, part, chunk
    n = ((pad[1:18] != 48).view(np.int8) * _POSITIONS[:17]).max(axis=0)
    n += 1  # significant digits; 1 for zero
    fixed = (decpt >= 1) & (decpt <= 16)
    small = (decpt >= -3) & (decpt <= 0)
    # the digit area: digits 0..dot, ".", the rest up to end; dot = 16 puts it past every digit
    point = np.minimum(np.maximum(decpt, 1), 16).astype(np.int8)
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
    zeros = small * (2 - np.maximum(np.minimum(decpt, 0), -3)).astype(np.int8)  # "0." and -decpt zeros
    np.multiply((_POSITIONS[:5] < zeros).view(np.uint8), _PREFIX, out=buf[1:6])
    buf[24:29] = 0
    at = (~(fixed | small)).nonzero()[0]
    if at.size:
        buf[24:29, at] = suffixes[:, decpt[at] + 329]
    buf[29] = 44
    buf[29, row_end::ncols] = 10
    at = fallback.nonzero()[0]
    if at.size:
        text = np.array([repr(x).encode() for x in v[at].tolist()], dtype="S24")
        buf[:29, at] = 0
        buf[:24, at] = text.view(np.uint8).reshape(-1, 24).T
    return buf.T.tobytes().translate(None, b"\0")


def _format_rows(values: np.ndarray):
    """Yield the text ``",".join(map(repr, row.tolist()))`` and a newline gives each row of a 2D array, as bytes.

    A complex array gives its (re, im) pairs.  The values are cut into
    blocks in row-major order, whatever the row length: ``_BLOCK`` values,
    or a 64th of them if that is more, each copied from ``reshape(-1)``
    (a view for C order and ``[::-1, ::-1]``) and its text yielded at once.
    """
    dtype, pair = (complex, 2) if values.dtype.kind == "c" else (float, 1)  # values per item
    height, width = values.shape[0], values.shape[1] * pair
    if width == 0:
        yield b"\n" * height
        return
    flat = values.reshape(-1)
    block = _block_size(_BLOCK, flat.size * pair, 64)
    for start in range(0, flat.size * pair, block):
        items = np.ascontiguousarray(flat[start // pair : -(-(start + block) // pair)], dtype)
        yield _format_block(items.view(float)[start % pair :][:block], (width - 1 - start) % width, width)


def write_image(path, samples: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    """Write a 2D complex array as ``re_im``; comments go right below the header."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2:
        raise ValueError("image must be a 2D array")
    height, width = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\n{width} {height}\nre_im\n".encode())
        fh.writelines(f"# {c}\n".encode() for c in comments)
        fh.writelines(_format_rows(samples))


def _write_csv(path, comments: list[str], header: str, rows: np.ndarray) -> None:
    # A fidelity map repeats most of its values, so each distinct bit pattern
    # is formatted once; bit patterns, not values, keep -0.0 apart from 0.0.
    # When more than a quarter of the cells are distinct (shot maps, curve
    # columns), the rows are formatted as they are written instead: the table
    # holds a string per distinct value, and from about a third distinct on it
    # is the slower path too.  On 512x512 maps (2 vCPUs, numpy 2.4.6), CPU time
    # of rows over table: 1.8 at 8% distinct (a ring's map), 1.2-1.3 at 20-25%,
    # 0.9-1.1 at 30-35%, 0.8 at 50% and 0.6 at 80%.
    rows = np.asarray(rows, dtype=float)
    bits = rows.view(np.int64).reshape(-1)  # a view of a C-order map or its point reflection
    order = np.argsort(bits)  # groups equal patterns; each map-sized array is dropped once used
    bits = bits[order]
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    if 4 * np.count_nonzero(first) > first.size:
        del bits, order, first
        lines = _format_rows(rows)
    else:
        patterns = bits[first].view(float)
        del bits
        first[0] = False  # a cell's index into patterns is then the running count of first-of-runs
        inverse = np.empty(first.size, dtype=np.int32 if first.size < 2**31 else np.intp)
        inverse[order] = np.cumsum(first, dtype=inverse.dtype)
        del order, first
        text = np.array(b"".join(_format_rows(patterns[:, None])).decode().split("\n")[:-1], dtype=object)
        lines = ((",".join(text[row].tolist()) + "\n").encode() for row in inverse.reshape(rows.shape))
    with open(path, "wb") as fh:
        fh.writelines(f"# {c}\n".encode() for c in comments)
        fh.write(f"{header}\n".encode())
        fh.writelines(lines)


_READ_BLOCK = 1 << 16  # bytes of whole lines parsed per block, at least
_MAX_DIGITS = 24  # digits a cell may have, three words of them; D itself must stay under 10**19 < 2**64
_PAD = _MAX_DIGITS  # zero bytes the kernel puts before a block, where the words of its first cell may start
_TIE = 2.0**-20  # in half-ulps of the value; the kernel's value is good to about 2**-49 of one
_MANTISSA = np.uint64(0xFFFFFFFFFFFFF)
_EXPONENT = np.uint64(0x7FF0000000000000)
_HANDOFF_BYTES = b"0123456789.+-eE"  # a cell of other bytes sends its block to the text route
# multiply-shift steps that combine adjacent digits of a word: pairs, then quads, then the eight
_COMBINE = tuple(
    (np.uint64(mask), np.uint64(factor), np.uint64(shift))
    for mask, factor, shift in (
        (0x0F0F0F0F0F0F0F0F, 10 * 2**8 + 1, 8),  # the mask also turns "0".."9" into 0..9
        (0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
        (0x0000FFFF0000FFFF, 10000 * 2**32 + 1, 32),
    )
)


def _digit_value(words: np.ndarray, end: np.ndarray, n: np.ndarray):
    """The value of the 1 <= n <= 24 ASCII digits before each buffer index end, and where it is under 10**19.

    Each chunk of eight digits is one unaligned little-endian word.  Where a
    cell's digits do not fill it, its bytes before them are shifted out; then
    its digits are combined in three multiply-shift steps (Lemire, Number
    parsing at a gigabyte per second).  A value of 10**19 or more wraps.
    """
    shortest = int(n.min())
    fits = True
    for c in range(-(-int(n.max()) // 8)):
        w = words[end - 8 * (c + 1)]
        if shortest < 8 * (c + 1):
            # 64 would be undefined in C; 63 leaves bit 63, which the first mask clears
            drop = np.subtract(64 * (c + 1), 8 * n)
            np.maximum(drop, 0, out=drop)
            np.minimum(drop, 63, out=drop)
            drop = drop.view(np.uint64)
            w >>= drop
            w <<= drop
        for mask, factor, shift in _COMBINE:
            w &= mask
            w *= factor
            w >>= shift
        if c == 0:
            value = w
            continue
        if c == 2:
            fits = w < 1000
        w *= np.uint64(10 ** (8 * c))
        value += w
    return value, fits


def _parse_block(buf, end: int, ncols: int) -> np.ndarray | None:
    """The values of the block buf[:end] of rows of ncols canonical cells, or None if it is anything else.

    Its last byte ends its last row: a bare ``\\r`` ends every row in a bare
    ``\\r``, a newline every row in a newline or in ``\\r`` and a newline.  A
    cell is canonical when it reads ``-?\\d+\\.\\d+`` with at most _MAX_DIGITS
    digits, and its digits read as one integer D are under 10**19.  With k
    fraction digits, its value is D * 10**-k, computed with a double-double
    power of ten and Dekker's exact product, rounded once.  A cell that is not
    canonical, or whose value lies within _TIE of a tie between two doubles,
    or is a power of two, is read by np.loadtxt.  The block is None if that
    fails, or if such a cell holds a byte other than the _HANDOFF_BYTES.
    """
    text = np.frombuffer(buf, np.uint8, end)
    eol = text[-1]  # the byte that ends each row
    if eol != 10 and eol != 13:
        return None
    nd = ((text - np.uint8(48)) > 9).nonzero()[0]  # every byte that is not a digit
    kinds = text[nd]
    ends_at = ((kinds == 44) | (kinds == eol)).nonzero()[0]  # index in nd of each cell's "," or row end
    if ends_at.size % ncols:
        return None
    seps = kinds[ends_at].reshape(-1, ncols)
    if not ((seps[:, -1] == eol).all() and (seps[:, :-1] == 44).all()):
        return None
    del seps
    stops = nd[ends_at]
    starts = np.empty_like(stops)
    starts[0] = 0
    np.add(stops[:-1], 1, out=starts[1:])
    # a "\r" right before a row's newline ends its last cell; any other "\r" or newline is in a
    # cell, which then holds a byte outside _HANDOFF_BYTES and sends the block to the text route
    cr = np.zeros(stops.size, bool)
    cr[ncols - 1 :: ncols] = text[stops[ncols - 1 :: ncols] - 1] == 13
    ends = stops - cr
    del stops
    count = np.empty_like(ends_at)  # non-digits per cell, its separator and "\r" included
    count[0] = ends_at[0] + 1
    np.subtract(ends_at[1:], ends_at[:-1], out=count[1:])
    ends_at -= cr
    ends_at -= 1  # index in nd of each cell's last non-digit before its "\r" or separator
    dots = nd[ends_at]
    # a canonical cell's non-digits are an optional "-" at its start, one ".", then its separator
    neg = text[starts] == 45
    ok = kinds[ends_at] == 46
    count -= cr
    ok &= count == neg + 2
    del nd, kinds, ends_at, count, cr
    m = dots - starts  # integer digits, and the sign
    m -= neg
    k = ends - dots  # fraction digits, and the dot
    k -= 1
    n = m + k  # the digits of D
    ok &= (m >= 1) & (k >= 1) & (n <= _MAX_DIGITS)
    m *= ok
    k *= ok
    n = np.where(ok, n, 16)  # two full words: a cell left to np.loadtxt adds no word and no mask
    # A copy with each integer digit moved one byte right, over the dot, so that D's digits are
    # the n bytes before the separator.  A cell moves only bytes after the separator before it.
    moved = np.concatenate((np.zeros(_PAD, np.uint8), text))
    at = dots + _PAD
    moved[at] = moved[at - 1]
    for j in range(1, int(m.max())):
        at = dots[m > j] + (_PAD - j)
        moved[at] = moved[at - 1]
    del m, at
    words = np.ndarray((_PAD + end - 7,), "<u8", moved, 0, (1,))  # words[i] holds bytes i..i+7
    D, fits = _digit_value(words, ends + _PAD, n)
    ok &= fits
    del words, moved, n, fits
    # D = dh + dl exactly: dh the nearest double, from D's two exact 32-bit halves (Fast2Sum)
    a = (D >> np.uint64(32)).astype(float)
    a *= 2.0**32
    b = (D & np.uint64(0xFFFFFFFF)).astype(float)
    dh = a + b
    dl = dh - a
    np.subtract(b, dl, out=dl)
    del a, b
    # x = p + (err + dl * hi), with p + err = dh * (hi + lo)
    idx = k + (16 - _E_MIN + 1)  # the table's column of 10**-k
    del k
    p, err = _times_pow10(dh, idx, dl)
    err += dl
    del dh, dl, idx
    x = p + err
    # r = what rounding to x dropped; a value within _TIE of a half-ulp may round either way
    r = np.subtract(p, x, out=p)
    r += err
    np.abs(r, out=r)
    bits = x.view(np.uint64)
    half = ((bits & _EXPONENT) - np.uint64(53 << 52)).view(float)  # half an ulp of x
    r -= half
    np.abs(r, out=r)
    half *= _TIE
    sure = r > half
    sure &= (bits & _MANTISSA) != 0  # a power of two has a narrower ulp below it
    sure |= D == 0
    ok &= sure
    del r, half, err, D, sure
    bits |= neg.view(np.uint8).astype(np.uint64) << np.uint64(63)
    todo = (~ok).nonzero()[0]
    if todo.size:
        cells = [bytes(buf[s:e]) for s, e in zip(starts[todo].tolist(), ends[todo].tolist())]
        if not all(cell and not cell.translate(None, _HANDOFF_BYTES) for cell in cells):
            return None
        try:
            x[todo] = np.loadtxt([cell.decode() for cell in cells], delimiter=",", comments=None, dtype=float, ndmin=1)
        except ValueError:
            return None
    return x


class _Payload:
    """An image file's text as it is read: its header, its rows' values and comments, and the lines read.

    The first three lines are the header.  Values go into one array of the
    header's cell count, capped by the cells the file's bytes can hold (a cell
    takes at least two), so a header that claims more rows than the file has
    sizes nothing; cells past it are read and counted but not kept.
    """

    def __init__(self, path, size: int):
        self.path, self.size = path, size
        self.header: list[str] = []
        self.ncols = 0  # cells per row, from the header once it is read
        self.lineno = 0  # lines read
        self.cells = 0
        self.comments: list[str] = []

    def _start(self) -> None:
        """Check the three header lines; size the values from them and the file."""
        magic, dims, encoding = self.header
        if magic.strip() != MAGIC:
            raise ImageFormatError(f"{self.path}: bad magic line {magic!r}")
        fields = dims.split()
        bad_dims = f"{self.path}: bad dimension line {dims!r}"
        # two fields of ASCII digits only: int() would also take 1_0, +1 and non-ASCII digits
        if len(fields) != 2 or not all(d.isascii() and d.isdigit() for d in fields):
            raise ImageFormatError(bad_dims)
        try:
            self.width, self.height = int(fields[0]), int(fields[1])
        except ValueError as exc:  # more digits than int() converts
            raise ImageFormatError(bad_dims) from exc
        if self.width < 1 or self.height < 1:
            raise ImageFormatError(f"{self.path}: non-positive dimensions {self.width}x{self.height}")
        self.encoding = encoding.strip()
        if self.encoding not in ENCODINGS:
            raise ImageFormatError(f"{self.path}: unknown encoding {self.encoding!r}")
        self.ncols = 2 * self.width
        self.values = np.empty(min(self.ncols * self.height, (self.size + 1) // 2))

    def keep(self, values: np.ndarray) -> None:
        room = self.values.size - self.cells
        if room > 0:
            self.values[self.cells : self.cells + values.size] = values.ravel()[:room]
        self.cells += values.size

    def _rows(self, lines):
        """Yield the data rows of text lines, stripped; read the header, collect comments, check each row's count."""
        for line in lines:
            self.lineno += 1
            if not self.ncols:
                self.header.append(line)
                if len(self.header) == 3:
                    self._start()
                continue
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                self.comments.append(stripped.lstrip("#").strip())
                continue
            count = stripped.count(",") + 1
            if count != self.ncols:
                raise ImageFormatError(f"{self.path}:{self.lineno}: expected {self.ncols} values per row, got {count}")
            yield stripped

    def text(self, data, at: int) -> None:
        """Read a block of UTF-8 text whose first byte is at file offset at, the way numpy's text reader reads it.

        A byte that is not UTF-8 is a fault of its line: the lines before it
        are read first, then its error is raised with the position counted
        from the file's start.  np.loadtxt takes the block's rows in one call,
        pulled as it parses them, so a fault is still the first in line order.
        """
        try:
            lines, fault = codecs.utf_8_decode(data, "strict", True)[0].splitlines(), None
        except UnicodeDecodeError as exc:
            # with the bad bytes replaced, the last line is the one that holds them
            lines, fault = codecs.utf_8_decode(data[: exc.end], "replace", True)[0].splitlines()[:-1], exc
        rows = self._rows(lines)
        first = next(rows, None)  # pulled before np.loadtxt runs, which warns on an empty input
        if first is not None:
            try:
                values = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None, dtype=float, ndmin=2)
            except ValueError as exc:
                # numpy's C text reader pulls one row at a time, so the bad cell is on the last line pulled
                raise ImageFormatError(f"{self.path}:{self.lineno}: non-numeric cell") from exc
            self.keep(values)
        if fault:
            # UnicodeDecodeError's own text, with the positions counted from the file's start
            start, last = at + fault.start, at + fault.end - 1
            byte = f"byte 0x{data[fault.start]:02x}"
            where = f"{byte} in position {start}" if last == start else f"bytes in position {start}-{last}"
            raise ImageFormatError(
                f"cannot read {self.path}: '{fault.encoding}' codec can't decode {where}: {fault.reason}"
            ) from fault


def _line_end(buf, start: int, end: int) -> int:
    """The index after the first line end in buf[start:end], or 0; a \\r at buf[end - 1] may start a CRLF."""
    lf = buf.find(b"\n", start, end)
    cr = buf.find(b"\r", start, end - 1 if lf < 0 else lf)
    return (cr if cr >= 0 and cr != lf - 1 else lf) + 1


def _read_payload(fh, payload: _Payload) -> None:
    """Read a file from its start, past a byte order mark, into payload, in the blocks the module docstring says.

    After the header, the kernel reads each block it takes, and the text route each other one.
    """
    start = len(codecs.BOM_UTF8) if fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0
    fh.seek(start)  # the file offset of the first byte not yet read into payload
    buf = bytearray(_block_size(_READ_BLOCK, payload.size, 32))
    end = 0  # the end of the bytes read but not yet parsed
    while True:  # a cut or a larger buffer leaves room to read into
        with memoryview(buf) as view:
            got = fh.readinto(view[end:])
        end += got
        if not end:  # the end of the file, every byte read
            return
        # the header's lines of bytes and a run of "#" or blank lines under them go to the text route as one block
        cut, lines = 0, 0 if payload.ncols else 3
        while cut < end and (lines > 0 or buf[cut] in b"#\r\n") and (nl := _line_end(buf, cut, end)):
            cut, lines = nl, lines - 1
        values = None
        if not cut:
            # after the last line end: a \r before the buffer's last byte starts no CRLF
            cut = max(lf := buf.rfind(b"\n", 0, end), buf.rfind(b"\r", lf + 1, end - 1)) + 1 if got else end
            if cut and payload.ncols:
                values = _parse_block(buf, cut, payload.ncols)
        if cut:
            if values is None:
                payload.text(buf[:cut], start)
            else:
                payload.keep(values)
                payload.lineno += values.size // payload.ncols
            start += cut
            buf[: end - cut] = buf[cut:end]
            end -= cut
        elif end == len(buf):  # no line ends in the buffer
            buf.extend(bytes(len(buf)))


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
        with open(path, "rb") as fh:
            payload = _Payload(path, os.fstat(fh.fileno()).st_size)
            _read_payload(fh, payload)
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc
    if not payload.ncols:
        raise ImageFormatError(f"{path}: truncated header")
    height, width = payload.height, payload.width
    rows = payload.cells // payload.ncols
    if rows != height:
        raise ImageFormatError(f"{path}: expected {height} data rows, found {rows}")
    data = payload.values.reshape(height, width, 2)
    if not np.all(np.isfinite(data)):
        raise ImageFormatError(f"{path}: non-finite values")
    if payload.encoding == "re_im":
        # reinterpret the (re, im) pairs in place: arithmetic would lose a -0.0 sign
        samples = data.view(complex).reshape(height, width)
    else:
        amp, ph = data[..., 0], data[..., 1]
        if np.any(amp < 0):
            raise ImageFormatError(f"{path}: negative amplitude in amp_phase payload")
        samples = amp * np.exp(1j * ph)
    return samples, payload.encoding, payload.comments
