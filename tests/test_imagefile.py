import math

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
    write_image(path, img, encoding="amp_phase")
    got, encoding, _ = read_image(path)
    assert encoding == "amp_phase"
    assert np.allclose(got, img, rtol=0, atol=1e-15)


def test_amp_phase_zero_pixel_and_phase_range(tmp_path):
    img = np.array([[0.0, -1.0, 1j, -2j]])
    path = tmp_path / "img.csv"
    write_image(path, img, encoding="amp_phase")
    lines = path.read_text().splitlines()
    cells = [float(c) for c in lines[3].split(",")]
    # zero amplitude writes phase 0; phase pi folds to -pi
    assert cells[0] == 0.0 and cells[1] == 0.0
    assert cells[2] == 1.0 and cells[3] == -math.pi
    got, _, _ = read_image(path)
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
        write_image(tmp_path / "x.csv", np.zeros((2, 2)), encoding="polar")
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
