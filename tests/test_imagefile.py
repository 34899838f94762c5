import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pixelport.imagefile import ImageFormatError, MAGIC, read_image, write_image


def random_image(rng, shape=(5, 7)):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_re_im_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    img = random_image(rng)
    path = tmp_path / "img.csv"
    write_image(path, img)
    got, encoding, comments = read_image(path)
    assert encoding == "re_im"
    assert comments == []
    assert np.array_equal(got, img)


def test_re_im_write_is_byte_fixpoint(tmp_path):
    rng = np.random.default_rng(12)
    img = random_image(rng, (4, 4))
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
    rng = np.random.default_rng(13)
    img = random_image(rng, (3, 6))
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
    path.write_text(body)
    with pytest.raises(ImageFormatError, match=fragment):
        read_image(path)


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


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    assert _traced_peak(read) < 1 << 20


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


def _image_256():
    rng = np.random.default_rng(34)
    return rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))


def test_read_image_holds_one_row_of_text(tmp_path):
    img = _image_256()
    path = tmp_path / "img.csv"
    write_image(path, img)
    assert path.stat().st_size > 2 * img.nbytes  # the whole text would not fit under the bound
    assert _traced_peak(read_image, path) <= 2 * img.nbytes


def test_write_image_holds_one_row_of_text(tmp_path):
    img = _image_256()
    assert _traced_peak(write_image, tmp_path / "img.csv", img) <= 0.25 * img.nbytes
