import builtins
import cmath
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from memprobe import traced_peak
from pixelport import imagefile
from pixelport.imagefile import ImageFormatError, MAGIC, _format_rows, read_image, write_image
from runs import complex_image


def test_re_im_round_trip(tmp_path):
    img = complex_image((5, 7), seed=11)
    path = tmp_path / "img.csv"
    write_image(path, img)
    got, encoding, comments = read_image(path)
    assert encoding == "re_im"
    assert comments == []
    assert np.array_equal(got, img)


def test_re_im_write_is_byte_fixpoint(tmp_path):
    img = complex_image((4, 4), seed=12)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_image(first, img, comments=("seed = 12",))
    got, _, comments = read_image(first)
    write_image(second, got, comments=tuple(comments))
    assert first.read_bytes() == second.read_bytes()


def test_signed_zero_write_read_write_fixpoint(tmp_path):
    # every sign pattern of zero in the real and the imaginary part
    parts = np.array([[-0.0, 1.0, 1.0, -0.0, -0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, -0.0, 2.5, -0.0, -0.0, -1.5]])
    img = parts.view(complex)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_image(first, img)
    assert first.read_text().splitlines()[3] == "-0.0,1.0,1.0,-0.0,-0.0,-0.0,0.0,0.0"
    got, _, _ = read_image(first)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(parts))
    write_image(second, got)
    assert first.read_bytes() == second.read_bytes()


def test_amp_phase_round_trip_values(tmp_path):
    img = complex_image((3, 6), seed=13)
    path = tmp_path / "img.csv"
    # the package writes only re_im, so the amp_phase payload is made here
    rows = [",".join(f"{abs(v)!r},{cmath.phase(v)!r}" for v in row) for row in img.tolist()]
    path.write_text("\n".join([MAGIC, "6 3", "amp_phase", *rows]) + "\n")
    got, encoding, _ = read_image(path)
    assert encoding == "amp_phase"
    assert np.allclose(got, img, rtol=0, atol=1e-15)


def test_amp_phase_zero_pixel_and_phase_range(tmp_path):
    img = np.array([[0.0, -1.0, 1j, -2j]])
    path = tmp_path / "img.csv"
    # zero amplitude with phase 0; -1 at phase -pi, the low end of the range
    path.write_text(f"{MAGIC}\n4 1\namp_phase\n0.0,0.0,1.0,{-math.pi!r},1.0,{math.pi / 2!r},2.0,{-math.pi / 2!r}\n")
    got, _, _ = read_image(path)
    assert got[0, 0] == 0.0
    assert np.allclose(got, img, atol=1e-15)


def test_comments_round_trip(tmp_path):
    path = tmp_path / "img.csv"
    write_image(path, np.ones((2, 2)), comments=("mode = ideal", "r = 2.0"))
    _, _, comments = read_image(path)
    assert comments == ["mode = ideal", "r = 2.0"]


def test_header_layout(tmp_path):
    path = tmp_path / "img.csv"
    write_image(path, np.zeros((2, 3)), comments=("note",))
    lines = path.read_text().splitlines()
    assert lines[0] == MAGIC
    assert lines[1] == "3 2"
    assert lines[2] == "re_im"
    assert lines[3] == "# note"
    assert len(lines) == 6


def test_blank_lines_and_late_comments_ignored(tmp_path):
    path = tmp_path / "img.csv"
    body = "\n".join(
        [MAGIC, "2 2", "re_im", "1.0,0.0,0.0,0.0", "", "# stray", "0.0,0.0,0.5,0.5", ""]
    )
    path.write_text(body)
    got, _, comments = read_image(path)
    assert got.shape == (2, 2)
    assert got[1, 1] == 0.5 + 0.5j
    assert comments == ["stray"]


def test_write_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_image(tmp_path / "x.csv", np.zeros(4))


def test_read_missing_file(tmp_path):
    with pytest.raises(ImageFormatError, match="cannot read"):
        read_image(tmp_path / "nope.csv")


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("pixelport-image-v2\n2 2\nre_im\n", "bad magic"),
        (f"{MAGIC}\n2\nre_im\n", "bad dimension"),
        (f"{MAGIC}\ntwo two\nre_im\n", "bad dimension"),
        # the dimension line is held to ASCII digits like the cells, with exactly two fields
        *(
            (f"{MAGIC}\n{dims}\nre_im\n0.0,0.0\n", "bad dimension line")
            for dims in (
                "1_0 1",  # int() reads 10
                "\u0661 1",  # an Arabic-Indic digit, int() reads 1
                "1 \uff11",  # a fullwidth digit
                "1 1 junk",  # a third field
                "1 1 1",
                "+1 1",
                "-1 2",
                "1.0 1",
                "0x1 1",
                "1 \u00b2",  # a superscript two, a digit to str.isdigit but not to int()
                "9" * 5000 + " 1",  # past int()'s digit limit
                "",
            )
        ),
        (f"{MAGIC}\n0 2\nre_im\n", "non-positive"),
        (f"{MAGIC}\n2 2\npolar\n", "unknown encoding"),
        (f"{MAGIC}\n2 2\n", "truncated header"),
        (f"{MAGIC}\n2 1\nre_im\n1.0,0.0,abc,0.0\n", "non-numeric"),
        (f"{MAGIC}\n2 1\nre_im\n1.0,0.0\n", "expected 4 values"),
        (f"{MAGIC}\n2 2\nre_im\n1.0,0.0,0.0,0.0\n", "expected 2 data rows"),
        (f"{MAGIC}\n1 1\nre_im\nnan,0.0\n", "non-finite"),
        (f"{MAGIC}\n1 1\nre_im\ninf,0.0\n", "non-finite"),
        (f"{MAGIC}\n1 1\namp_phase\n-1.0,0.0\n", "negative amplitude"),
    ],
)
def test_read_rejects_malformed(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ImageFormatError, match=fragment):
        read_image(path)


@pytest.mark.parametrize("dims", ["1 1", " 1\t1 ", "01 001"])
def test_read_accepts_two_ascii_digit_fields(tmp_path, dims):
    path = tmp_path / "ok.csv"
    path.write_text(f"{MAGIC}\n{dims}\nre_im\n0.5,-0.25\n", encoding="utf-8")
    assert read_image(path)[0].tolist() == [[0.5 - 0.25j]]


def test_single_pixel(tmp_path):
    path = tmp_path / "one.csv"
    write_image(path, np.array([[2.5 - 1.25j]]))
    got, _, _ = read_image(path)
    assert got.shape == (1, 1)
    assert got[0, 0] == 2.5 - 1.25j


def test_read_undecodable_file(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(ImageFormatError, match="cannot read"):
        read_image(path)


def test_read_matches_float_reference(tmp_path):
    # numpy's text reader must give the bits float() gives, cell by cell
    rng = np.random.default_rng(21)
    values = rng.integers(0, 2**63, size=200, dtype=np.int64).view(float)
    values = values[np.isfinite(values)][:120]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    cells = [repr(v) for v in values.tolist() + special]
    cells += ["1E5", "+.5", "-.5e-3", "1e-400", "007", "  2.5", "-1.25  ", " \t3e2 "]
    cells += ["0.1"] * (-len(cells) % 8)
    rows = [",".join(cells[i : i + 8]) for i in range(0, len(cells), 8)]
    path = tmp_path / "img.csv"
    path.write_text("\n".join([MAGIC, f"4 {len(rows)}", "re_im", *rows]) + "\n")
    got, _, _ = read_image(path)
    ref = np.array([float(c) for c in cells]).reshape(len(rows), 8)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_read_names_the_first_bad_line(tmp_path):
    path = tmp_path / "img.csv"
    body = [MAGIC, "2 3", "re_im", "# note", "1.0,0.0,0.0,0.0", "", "0.5,0.5,0.5,0.5", "0.0,0.0,x,0.0"]
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(ImageFormatError, match=r"img\.csv:8: non-numeric cell"):
        read_image(path)


BOM = b"\xef\xbb\xbf"


def test_read_skips_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_image(plain, np.array([[0.5 - 0.25j, -0.0 + 1.0j]]), comments=("note",))
    assert not plain.read_bytes().startswith(BOM)
    marked.write_bytes(BOM + plain.read_bytes())
    got, want = read_image(marked), read_image(plain)
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert got[1:] == want[1:] == ("re_im", ["note"])


def test_read_names_the_same_bad_line_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "img.csv"
    body = [MAGIC, "2 3", "re_im", "# note", "1.0,0.0,0.0,0.0", "", "0.5,0.5,0.5,0.5", "0.0,0.0,x,0.0"]
    path.write_bytes(BOM + ("\n".join(body) + "\n").encode())
    with pytest.raises(ImageFormatError, match=r"img\.csv:8: non-numeric cell"):
        read_image(path)


def test_read_names_the_file_offset_of_a_bad_byte_after_a_byte_order_mark(tmp_path):
    # the offset counts the mark's three bytes, as a hex dump of the file does
    data = BOM + f"{MAGIC}\n1 1\nre_im\n".encode()
    path = tmp_path / "bad.csv"
    path.write_bytes(data + b"\xff,0.0\n")
    with pytest.raises(ImageFormatError, match=f"byte 0xff in position {len(data)}: "):
        read_image(path)


def floor_blocks(floor, total, share):
    """imagefile._block_size with its rule off: every kernel block is its floor, _BLOCK or _READ_BLOCK."""
    return floor


def _payload(rng, height, width):
    return [",".join(map(repr, row)) for row in rng.normal(size=(height, 2 * width)).tolist()]


def test_read_late_invalid_utf8_is_unreadable_not_a_bad_cell(tmp_path):
    # the reader decodes as it goes: a bad byte far past its first buffer is still a file it cannot read
    rows = _payload(np.random.default_rng(31), 2000, 2)
    text = "\n".join([MAGIC, "2 2000", "re_im", *rows]) + "\n"
    data = text.encode()
    at = data.index(rows[1800].encode())
    assert len(data) > 64 * 1024 and at > 64 * 1024
    path = tmp_path / "late.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    with pytest.raises(ImageFormatError, match=f"^cannot read .*late.csv: .* byte 0xff in position {at}: "):
        read_image(path)


def _decode_fault(data, fault):
    """data with a sequence that is not UTF-8 in its last rows, or at its end."""
    at = data.index(b"\n", len(data) * 3 // 4) - 3  # three bytes before a row's newline
    if fault == "lone-continuation":
        return data[:at] + b"\x80" + data[at + 1 :]
    if fault == "truncated-before-newline":
        return data[:at] + b"\xe2\x82" + data[at + 3 :]
    if fault == "overlong":
        return data[:at] + b"\xc0\xaf" + data[at + 2 :]
    if fault == "surrogate":
        return data[:at] + b"\xed\xa0\x80" + data[at + 3 :]
    if fault == "last-byte":
        return data + b"\xff"
    return data + b"\xe2\x82"  # truncated-at-end


@pytest.mark.parametrize("lines", ["lf", "cr"], ids=["lf", "bare-cr"])
@pytest.mark.parametrize("bom", [b"", BOM], ids=["no-bom", "bom"])
@pytest.mark.parametrize(
    "fault,reason",
    [("lone-continuation", "byte 0x80 in position {at}: invalid start byte"),
     ("truncated-before-newline", "bytes in position {at}-{next}: invalid continuation byte"),
     ("overlong", "byte 0xc0 in position {at}: invalid start byte"),
     ("surrogate", "byte 0xed in position {at}: invalid continuation byte"),
     ("last-byte", "byte 0xff in position {at}: invalid start byte"),
     ("truncated-at-end", "bytes in position {at}-{next}: unexpected end of data")],
)
def test_read_names_a_bad_sequence_as_decoding_the_whole_file_does(tmp_path, lines, bom, fault, reason):
    # the text of the error that decoding the whole file raises, with its offset counted from the file's
    # start, a byte order mark included; a file over 64 KiB whose lines end in a bare \r is cut at them
    rows = _payload(np.random.default_rng(42), 2000, 2)
    data = ("\n".join([MAGIC, "2 2000", "re_im", *rows]) + "\n").encode()
    assert len(data) > 2 * 64 * 1024
    data = _decode_fault(bom + data, fault)
    if lines == "cr":
        data = data.replace(b"\n", b"\r")
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    at = whole.value.start
    assert at > 64 * 1024 and str(whole.value) == f"'utf-8' codec can't decode {reason.format(at=at, next=at + 1)}"
    with pytest.raises(ImageFormatError) as info:
        read_image(path)
    assert str(info.value) == f"cannot read {path}: {whole.value}"


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("read_block", [1, 2, 3, 4, 5, 7])
def test_read_names_a_bad_sequence_at_any_block_size(monkeypatch, tmp_path, read_block, eol):
    # sequences of two, three and four bytes, and bad ones, in a comment line, with blocks cut
    # after any line end the buffer holds
    monkeypatch.setattr(imagefile, "_READ_BLOCK", read_block)
    monkeypatch.setattr(imagefile, "_block_size", floor_blocks)
    path = tmp_path / "bad.csv"
    good = "a\u00e9b\u20acc\U0001f600d".encode()
    head, row = eol.join([MAGIC, "1 1", "re_im", "# "]).encode(), f"{eol}0.5,0.25{eol}".encode()
    path.write_bytes(head + good + row)
    assert read_image(path)[2] == [good.decode()]
    for bad in (b"\x80", b"\xe2\x82\n", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xf0\x9f\x98", b"\xff"):
        for data in (head + good + bad + good + row, head + good + bad):
            path.write_bytes(data)
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            with pytest.raises(ImageFormatError) as info:
                read_image(path)
            assert str(info.value) == f"cannot read {path}: {whole.value}"


@pytest.mark.parametrize("sep", [b"\n", b"\r"], ids=["lf", "bare-cr"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "late-0xff"])
def test_read_image_opens_the_file_once(monkeypatch, tmp_path, sep, bad):
    # one pass over the file: a bad byte's offset comes from the block that holds it
    img = complex_image((256, 256), seed=34)[:64]
    path = tmp_path / "img.csv"
    write_image(path, img)
    data = path.read_bytes().replace(b"\n", sep)
    assert len(data) > 4 * 64 * 1024
    at = len(data) - 100
    if bad:
        data = data[:at] + b"\xff" + data[at + 1 :]
    path.write_bytes(data)
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kw: opened.append(file) or real_open(file, *args, **kw))
    if bad:
        with pytest.raises(ImageFormatError, match=f"byte 0xff in position {at}: invalid start byte$"):
            read_image(path)
    else:
        assert np.array_equal(read_image(path)[0], img)
    assert opened == [path]


def test_read_a_late_bad_byte_holds_one_block_of_text(tmp_path):
    # the error's offset is found a block at a time, not by decoding the whole file again
    img = complex_image((256, 256), seed=34)
    path = tmp_path / "img.csv"
    write_image(path, img)
    data = path.read_bytes()
    at = len(data) - 100
    path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])

    def read():
        with pytest.raises(ImageFormatError, match=f"byte 0xff in position {at}: invalid start byte$"):
            read_image(path)

    assert traced_peak(read) <= 2 * img.nbytes


def test_read_header_only_payload_warns_nothing(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(f"{MAGIC}\n2 2\nre_im\n# just a comment\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImageFormatError, match=r"empty\.csv: expected 2 data rows, found 0$"):
            read_image(path)


def test_read_names_a_bad_cell_deep_in_a_large_file(tmp_path):
    rows = _payload(np.random.default_rng(32), 5000, 2)
    rows[2999] = "0.5,0.5,x,0.5"
    path = tmp_path / "big.csv"
    path.write_text("\n".join([MAGIC, "2 5000", "re_im", *rows]) + "\n")
    # data row 3000 is line 3003, under the three header lines
    with pytest.raises(ImageFormatError, match=r"big\.csv:3003: non-numeric cell$"):
        read_image(path)


def test_read_sizes_nothing_from_the_header(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"{MAGIC}\n2 1000000000\nre_im\n1.0,0.0,0.0,0.0\n")

    def read():
        with pytest.raises(ImageFormatError, match="expected 1000000000 data rows, found 1$"):
            read_image(path)

    assert traced_peak(read) < 1 << 20


# separators that str.splitlines breaks at, and the line numbers it gives
@pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c", "\u2028"], ids=["crlf", "cr", "form-feed", "line-separator"])
def test_read_numbers_lines_as_splitlines_does(tmp_path, sep):
    rows = _payload(np.random.default_rng(33), 3, 2)
    lines = [MAGIC, "2 3", "re_im", "# a = 1", rows[0], "", "#b", rows[1], rows[2]]
    reference = tmp_path / "lf.csv"
    reference.write_text("\n".join(lines) + "\n")
    path = tmp_path / "sep.csv"
    path.write_bytes((sep.join(lines) + sep).encode())
    want, _, _ = read_image(reference)
    got, encoding, comments = read_image(path)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (encoding, comments) == ("re_im", ["a = 1", "b"])
    # a bad cell on line 8 and a short row on line 8, as str.splitlines counts them
    for bad, fragment in (("0.5,x,0.5,0.5", "non-numeric cell"), ("0.5,0.5", "expected 4 values per row, got 2")):
        path.write_bytes(sep.join(lines[:7] + [bad] + lines[8:]).encode())
        with pytest.raises(ImageFormatError, match=rf"sep\.csv:8: {fragment}$"):
            read_image(path)


# the seeded complex image of each side the memory tests write and read
SEEDS = {256: 34, 512: 35}


@pytest.mark.parametrize("side", [256, 512])
def test_read_image_holds_one_row_of_text(tmp_path, side):
    # at 512 the file is over 32 floors, so each block is a 32nd of it, above _READ_BLOCK
    img = complex_image((side, side), seed=SEEDS[side])
    path = tmp_path / "img.csv"
    write_image(path, img)
    assert path.stat().st_size > 2 * img.nbytes  # the whole text would not fit under the bound
    assert side < 512 or path.stat().st_size > 32 * imagefile._READ_BLOCK
    assert traced_peak(lambda: read_image(path)) <= 2 * img.nbytes


@pytest.mark.parametrize("reflect", [False, True], ids=["upright", "reflected"])
@pytest.mark.parametrize("side", [256, 512])
def test_write_image_holds_one_row_of_text(tmp_path, side, reflect):
    # a point-reflected view is written a block at a time too, never copied whole;
    # at 512 a block holds a 64th of the values, above _BLOCK
    img = complex_image((side, side), seed=SEEDS[side])
    assert side < 512 or 2 * img.size // 64 > imagefile._BLOCK
    if reflect:
        img = img[::-1, ::-1]
    imagefile._tables.cache_clear()  # the first call builds the formatter's tables under the bound too
    assert traced_peak(lambda: write_image(tmp_path / "img.csv", img)) <= 0.25 * img.nbytes


def test_blocks_above_the_floors_change_no_byte_and_no_bit(monkeypatch, tmp_path):
    img = complex_image((512, 512), seed=35)
    path = tmp_path / "img.csv"
    write_image(path, img)
    scaled_text, scaled_values = formatted(img.view(float)), read_image(path)[0]
    monkeypatch.setattr(imagefile, "_block_size", floor_blocks)
    assert formatted(img.view(float)) == scaled_text
    assert np.array_equal(read_image(path)[0].view(np.int64), scaled_values.view(np.int64))


def repr_rows(values):
    """The reference text of _format_rows: repr per value, commas, a newline per row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()).encode()


def formatted(values):
    return b"".join(_format_rows(values))


def _sweep():
    """Edge values of float64: signed zeros, extremes, non-finite values, powers of two and ten, decade edges."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max, math.inf, math.nan]
    values += [2.0**k for k in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [1e-5, 1e-4, 1e15, 1e16]  # where repr switches between the fixed and the exponent form
    rng = np.random.default_rng(36)
    # values of 1 to 17 significant digits at every decimal point position repr's fixed form has, and around it
    for digits in range(1, 18):
        for x in rng.uniform(1.0, 10.0, size=8).tolist():
            values += [float(f"{x:.{digits - 1}f}e{k}") for k in range(-7, 19)]
    values = np.array(values)
    finite = values[np.isfinite(values)]
    with np.errstate(over="ignore"):  # the neighbour above the largest double is inf
        values = np.concatenate((values, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf)))
    return np.concatenate((values, -values))


def test_format_rows_is_repr_on_the_sweep():
    values = _sweep()
    assert values.size > 10_000
    for shape in ((1, -1), (-1, 1), (-1, 4)):
        rows = values[: values.size // 4 * 4].reshape(shape)
        assert formatted(rows) == repr_rows(rows)


def test_format_rows_is_repr_on_workload_shaped_values():
    # a million seeded values of the benchmark's kinds: an analytic ring run's
    # teleported image and fidelity map on 512x512, and one-shot outputs
    rng = np.random.default_rng(37)
    alpha = (rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))) / math.sqrt(2.0)
    c = np.arange(512) + 0.5 - 256
    t = np.tanh(1.5 * np.abs(np.sinc(((c[None, :] ** 2 + c[:, None] ** 2) - 128.0**2) / (32.0**2 * math.pi))))
    shots = alpha + (1.0 - t) * (rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
    for rows in ((t * alpha).view(float), (1.0 + t) / 2.0, shots.real):
        assert formatted(rows) == repr_rows(rows)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, 5e-324, 1e300, 1e-300, 0.5, 1e15 + 0.25, 1e15 + 0.5, 18014398509481988.0],
    ids=["nan", "inf", "subnormal", "above-decades", "below-decades", "power-of-two", "tie-of-17-digits",
         "tie-of-16-digits", "interval-edge"],
)
def test_format_rows_hands_each_uncertified_class_to_repr(monkeypatch, value):
    # On the scaled grid 1e15 + 0.25 is 10000000000000002.5, halfway between
    # two 17-digit integers, and 1e15 + 0.5 is 10000000000000005, halfway
    # between two multiples of 10; 18014398509481988's interval ends exactly on one
    calls = []
    monkeypatch.setattr(imagefile, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    rows = np.array([[1.5, value, -0.0], [0.1, -value, 0.0]])
    assert formatted(rows) == repr_rows(rows)
    assert len(calls) == 2  # the kernel certifies 1.5, 0.1 and both zeros


LAYOUTS = {
    "c-order": lambda a: np.ascontiguousarray(a[:, 1:-1]),
    "reflected": lambda a: np.ascontiguousarray(a[:, 1:-1])[::-1, ::-1],  # reshape(-1) gives a view
    "column-slice": lambda a: a[:, 1:-1],  # reshape(-1) copies
}


@pytest.mark.parametrize("block", [1, 5, 2048])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (7, 9), (2, 11)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_format_rows_blocks_cut_anywhere(monkeypatch, block, shape, dtype, layout):
    # a complex array is written as its (re, im) pairs, so an odd block cuts a pair too
    monkeypatch.setattr(imagefile, "_BLOCK", block)
    height, width = shape
    wide = np.random.default_rng(38).normal(size=(height, (width + 2) * (2 if dtype is complex else 1)))
    rows = LAYOUTS[layout](wide.view(dtype))
    assert formatted(rows) == repr_rows(np.ascontiguousarray(rows).view(float))


def test_power_table_holds_every_decade_as_a_double_double():
    # column i is 10**(16 - e) for e = _E_MIN - 1 + i: hi + lo to 2**-104 relative, hi split exactly in halves
    pows = imagefile._tables()[0]
    assert pows.shape == (4, imagefile._E_MAX - imagefile._E_MIN + 3)
    for i, (hi, lo, high_half, low_half) in enumerate(pows.T.tolist()):
        exact = Fraction(10) ** (16 - (imagefile._E_MIN - 1 + i))
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(1, 2**104)
        assert high_half + low_half == hi
        assert math.frexp(high_half)[0] * 2**26 % 1 == 0  # at most 26 significant bits


def loadtxt_cells(cells):
    """The reference values of the reader: numpy's text reader, one cell per line."""
    return np.loadtxt(cells, delimiter=",", comments=None, dtype=float, ndmin=1)


def kernel_cells(cells, ncols):
    """The reader's values of rows of ncols cells, from the kernel and its hand-offs."""
    text = "".join(",".join(cells[i : i + ncols]) + "\n" for i in range(0, len(cells), ncols))
    buf = text.encode()
    return imagefile._parse_block(buf, len(buf), ncols)


def test_read_kernel_is_loadtxt_on_the_sweep():
    values = _sweep()
    cells = [repr(x) for x in values[np.isfinite(values)].tolist()]
    cells = cells[: len(cells) // 8 * 8]
    assert len(cells) > 10_000
    got = kernel_cells(cells, 8)
    assert got is not None
    assert np.array_equal(got.view(np.int64), loadtxt_cells(cells).view(np.int64))


@pytest.mark.parametrize("eol", ["\n", "\r"], ids=["lf", "bare-cr"])
def test_read_kernel_is_loadtxt_on_workload_shaped_text(monkeypatch, tmp_path, eol):
    # the benchmark's inputs: repr of complex normals over sqrt(2), nearly all certified, in rows
    # that end in a newline or in a bare \r
    rng = np.random.default_rng(39)
    img = (rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))) / math.sqrt(2.0)
    path = tmp_path / "img.csv"
    rows = [",".join(map(repr, row)) for row in img.view(float).tolist()]
    path.write_bytes((eol.join([MAGIC, "256 256", "re_im", *rows]) + eol).encode())
    want = np.loadtxt(rows, delimiter=",", comments=None, dtype=float)
    handed = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: handed.extend(lines := list(lines)) or loadtxt(lines, **kw))
    assert np.array_equal(read_image(path)[0].view(np.int64), want.view(np.int64).reshape(256, 512))
    assert len(handed) < 1e-3 * want.size  # exponent forms such as 1.2e-05, no text-route rows


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_read_last_line_without_a_line_end_after_kernel_rows(tmp_path, eol):
    # the end of the file cuts its last block after its last byte; the kernel refuses a block
    # whose last byte ends no row, so the text route collects a comment there and names a bad cell
    rows = _payload(np.random.default_rng(43), 8, 2)
    head = eol.join([MAGIC, "2 8", "re_im", *rows[:-1]]) + eol
    path = tmp_path / "img.csv"
    path.write_bytes((head + rows[-1] + eol + "# note").encode())
    samples, _, comments = read_image(path)
    assert comments == ["note"]
    assert np.array_equal(samples.view(float), np.loadtxt(rows, delimiter=","))
    path.write_bytes((head + rows[-1].rsplit(",", 1)[0] + ",x").encode())
    with pytest.raises(ImageFormatError, match=r"img\.csv:11: non-numeric cell$"):
        read_image(path)


@pytest.mark.parametrize(
    "cell",
    ["1.5e-05", "1e+16", "+1.5", "5.", ".5", "12345678901234567890.5", "0.0000000000000000000000001",
     "9007199254740993.0", "4503599627370496.5", "0.5", "1024.0"],
    ids=["exponent", "exponent-plus", "plus-sign", "no-fraction", "no-integer", "D-over-19-digits",
         "over-24-digits", "tie", "tie-with-fraction", "power-of-two", "power-of-two-integer"],
)
def test_read_kernel_hands_each_uncertified_class_to_loadtxt(monkeypatch, cell):
    # 2**53 + 1 and 2**52 + 1/2 lie halfway between two doubles; a power of
    # two has a narrower ulp below it
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: calls.append(list(lines)) or loadtxt(calls[-1], **kw))
    negated = cell if cell.startswith("+") else "-" + cell
    cells = ["1.5", cell, "-0.0", "0.1", negated, "0.0"]
    got = kernel_cells(cells, 3)
    assert calls == [[cell, negated]]  # the kernel certifies 1.5, 0.1 and both zeros
    assert np.array_equal(got.view(np.int64), loadtxt_cells(cells).view(np.int64))


def _fixed_rows(n):
    """n rows of four cells, every row the same number of bytes."""
    rng = np.random.default_rng(40)
    return [",".join(f"{x:.15f}" for x in row) for row in rng.uniform(0.0, 1.0, size=(n, 4)).tolist()]


def _bad_cell(row):
    return row.rsplit(",", 1)[0] + ",x"


FAULTS = {
    # fault: (the row's text, lines it adds, the error it raises on its own)
    "bad-cell": (_bad_cell, 0, "{lineno}: non-numeric cell"),
    "short-row": (lambda row: row.rsplit(",", 1)[0], 0, "{lineno}: expected 4 values per row, got 3"),
    "comment": (lambda row: "# mid\n" + row, 1, None),
    "blank-line": (lambda row: "\n" + row, 1, None),
    "crlf": (lambda row: row + "\r", 0, None),
    # a line separator for the second comma: a row of two cells, then one of two more
    "line-separator": (lambda row: row.replace(",", "\u2028", 2).replace("\u2028", ",", 1), 0,
                       "{lineno}: expected 4 values per row, got 2"),
}


@pytest.mark.parametrize("eol", ["lf", "crlf"])
@pytest.mark.parametrize("block", ["one-line", "few-lines", "default", "long-lines", "long-header"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", [*FAULTS, "late-0xff"])
def test_read_faults_at_block_boundaries(monkeypatch, tmp_path, block, where, fault, eol):
    # a CRLF file is the LF file through _to_crlf, and reads as the LF file does:
    # the same values and comments, or the same error on the same line
    rows = _fixed_rows(3000 if block == "default" else 30)
    line = len(rows[0]) + (2 if eol == "crlf" else 1)
    # bytes per block: whole lines, one or three per block; rows longer than a block, which
    # grows to hold them; a header line longer than a block
    read_block = {"one-line": line, "few-lines": 3 * line, "long-lines": 64, "long-header": 16}.get(block)
    if read_block:
        monkeypatch.setattr(imagefile, "_READ_BLOCK", read_block)
        monkeypatch.setattr(imagefile, "_block_size", floor_blocks)
    at = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
    head = f"{MAGIC}\n2 {len(rows)}\nre_im\n# note\n"
    path = tmp_path / "img.csv"

    def write(rows):
        data = (head + "".join(row + "\n" for row in rows)).encode("utf-8", "surrogateescape")
        path.write_bytes(_to_crlf(data) if eol == "crlf" else data)

    if fault == "late-0xff":
        write(rows[:at] + [rows[at][:5] + "\udcff" + rows[at][6:]] + rows[at + 1 :])
        offset = path.read_bytes().index(0xFF)
        with pytest.raises(ImageFormatError, match=rf"^cannot read .*img\.csv: .* byte 0xff in position {offset}: "):
            read_image(path)
        return
    change, extra, error = FAULTS[fault]
    write(rows[:at] + [change(rows[at])] + rows[at + 1 :])
    if error:
        lineno = at + 5  # under the header and the comment
        with pytest.raises(ImageFormatError, match=rf"img\.csv:{error.format(lineno=lineno)}$"):
            read_image(path)
        return
    got, _, comments = read_image(path)
    want = np.loadtxt(rows, delimiter=",", comments=None, dtype=float)
    assert np.array_equal(got.view(float).view(np.int64), want.view(np.int64))
    assert comments == (["note", "mid"] if fault == "comment" else ["note"])
    # a bad cell on the last row is numbered after the lines the fault adds
    rows[-1] = _bad_cell(rows[-1])
    write(rows[:at] + [change(rows[at])] + rows[at + 1 :])
    with pytest.raises(ImageFormatError, match=rf"img\.csv:{len(rows) + 4 + extra}: non-numeric cell$"):
        read_image(path)


def _to_crlf(data):
    """data with each newline that does not follow a \\r as CRLF."""
    return re.sub(rb"(?<!\r)\n", b"\r\n", data)


def test_read_kernel_reads_crlf_rows(monkeypatch, tmp_path):
    # values repr writes in the fixed form, so that the kernel certifies every cell
    rng = np.random.default_rng(43)
    parts = rng.uniform(1e-3, 1e3, size=(64, 128)) * rng.choice([-1.0, 1.0], size=(64, 128))
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_image(lf, parts.view(complex), comments=("mode = ideal", "r = 2.0"))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: calls.append(list(lines)) or loadtxt(calls[-1], **kw))
    want, got = read_image(lf), read_image(crlf)
    assert calls == []
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert got[1:] == want[1:] == ("re_im", ["mode = ideal", "r = 2.0"])


def _splitlines_fault(text, ncols):
    """The first fault in the rows of an image file's text, as ``str.splitlines`` numbers its lines."""
    for lineno, line in enumerate(text.splitlines()[3:], 4):
        cells = line.strip()
        if not cells or cells.startswith("#"):
            continue
        count = cells.count(",") + 1
        if count != ncols:
            return f"{lineno}: expected {ncols} values per row, got {count}"
        try:
            [float(cell) for cell in cells.split(",")]
        except ValueError:
            return f"{lineno}: non-numeric cell"
    return None


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize(
    "cr", ["before-a-comma", "after-a-comma", "inside-a-cell", "row-start", "before-the-row-end"]
)
def test_read_names_the_line_of_a_bare_carriage_return_in_a_row(tmp_path, eol, cr):
    rows = _fixed_rows(6)
    row = rows[2]
    comma = row.index(",")
    rows[2] = {
        "before-a-comma": row[:comma] + "\r" + row[comma:],
        "after-a-comma": row[: comma + 1] + "\r" + row[comma + 1 :],
        "inside-a-cell": row[:5] + "\r" + row[5:],
        "row-start": "\r" + row,
        "before-the-row-end": row + "\r",  # CRLF in an LF file; a bare \r and a CRLF blank line in a CRLF file
    }[cr]
    rows[-1] = _bad_cell(rows[-1])
    text = "".join(line + eol for line in [MAGIC, "2 6", "re_im", *rows])
    path = tmp_path / "img.csv"
    path.write_bytes(text.encode())
    want = _splitlines_fault(text, 4)
    assert want is not None
    with pytest.raises(ImageFormatError, match=rf"img\.csv:{re.escape(want)}$"):
        read_image(path)


def test_read_image_split_at_carriage_returns_holds_one_row_of_text(tmp_path):
    # a file whose lines end in \r alone is cut at them, and the kernel reads its rows
    img = complex_image((256, 256), seed=34)
    path = tmp_path / "img.csv"
    write_image(path, img)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    got, _, _ = read_image(path)
    assert np.array_equal(got, img)
    assert traced_peak(lambda: read_image(path)) <= 2 * img.nbytes


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("height,bad_line", [(20, 7), (4000, 7), (4000, 3004)], ids=["small", "large", "large-late"])
def test_read_reports_the_first_fault_for_every_line_ending(tmp_path, sep, height, bad_line):
    # a bad cell on line 5, then a byte that is not UTF-8 on line 7, in the same 8 KiB of the
    # file, or on line 3004; a file whose lines end in a bare \r is cut at them
    rows = _payload(np.random.default_rng(41), height, 4)
    lines = [MAGIC, f"4 {height}", "re_im", *rows]
    lines[bad_line - 1] = "\udcff" + lines[bad_line - 1][1:]  # the byte 0xff, by surrogateescape
    good = (sep.join(lines) + sep).encode("utf-8", "surrogateescape")
    lines[4] = "x" + lines[4][lines[4].index(",") :]
    bad = (sep.join(lines) + sep).encode("utf-8", "surrogateescape")
    assert (len(bad) > 64 * 1024) == (height > 20)
    path = tmp_path / "img.csv"
    path.write_bytes(bad)
    with pytest.raises(ImageFormatError, match=r"img\.csv:5: non-numeric cell$"):
        read_image(path)
    # without the bad cell, the byte is the first fault
    path.write_bytes(good)
    with pytest.raises(ImageFormatError, match=rf"^cannot read .*img\.csv: .* byte 0xff in position {good.index(0xFF)}: "):
        read_image(path)
