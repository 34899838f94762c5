"""Output contracts of whole runs: each command runs on files in tmp_path.

Most runs go through ``cli.main`` in process (``runs.run``).  A check that
needs a fresh interpreter (default warning filters) or its own environment
(``OPENBLAS_NUM_THREADS=1``) runs ``pixelport.cli`` in a child process
(``runs.run_module``).  A run that should succeed is asserted to exit 0 with
nothing on stderr.
"""

import json

import numpy as np
import pytest

from pixelport.imagefile import read_image, write_image
from reprrows import rows_are_repr
from runs import BASE, config_text, run, run_module, teleport, write_run

BOM = b"\xef\xbb\xbf"
# rings on the 32x32 and 384x384 images below
RING32 = {**BASE["ring"], "ring_r0": 8.0, "ring_width": 2.0}
RING384 = {**BASE["ring"], "ring_r0": 96.0, "ring_width": 24.0, "n_shots": 0}


def ring_image(tmp_path_factory, side, r0, spread):
    """The bytes write_image gives the real ring exp(-(rho - r0)^2 / spread) on a side x side centred grid."""
    c = np.arange(side) - (side - 1) / 2
    path = tmp_path_factory.mktemp("ring") / "in.csv"
    write_image(path, np.exp(-((np.hypot(c[None, :], c[:, None]) - r0) ** 2) / spread) + 0j)
    return path.read_bytes()


@pytest.fixture(scope="module")
def ring32(tmp_path_factory):
    return ring_image(tmp_path_factory, 32, 8.0, 8.0)


@pytest.fixture(scope="module")
def ring384(tmp_path_factory):
    # 294,912 values: the writer formats a 64th of them, 4,608, per block, and the
    # file is over 2 MiB, so the reader parses a 32nd of it, over 64 KiB, per block
    data = ring_image(tmp_path_factory, 384, 96.0, 128.0)
    assert len(data) > 2 * 1024 * 1024
    return data


def succeeds(result):
    """Whether a run exited 0 with nothing on stderr."""
    code, _, err = result
    return (code, err) == (0, "")


@pytest.mark.parametrize("flags", [[], ["--shots", "3", "--raw-plane", "--json"]], ids=["analytic", "shots-raw-json"])
def test_ring_32_rows_are_repr(tmp_path, ring32, flags):
    assert succeeds(teleport(tmp_path / "run", ring32, RING32, *flags)[0])
    assert rows_are_repr(tmp_path / "run" / "teleported.csv", 3, 32)
    assert rows_are_repr(tmp_path / "run" / "fidelity_map.csv", 1, 32)


def test_ring_384_rows_are_repr_and_write_read_write_is_byte_stable(tmp_path, ring384):
    result, (teleported, _, _) = teleport(tmp_path / "run", ring384, RING384)
    assert succeeds(result)
    assert rows_are_repr(tmp_path / "run" / "teleported.csv", 3, 384)
    assert rows_are_repr(tmp_path / "run" / "fidelity_map.csv", 1, 384)
    # the values read back and written again with the same comments give the same bytes
    samples, _, comments = read_image(tmp_path / "run" / "teleported.csv")
    write_image(tmp_path / "round_trip.csv", samples, comments=tuple(comments))
    assert (tmp_path / "round_trip.csv").read_bytes() == teleported


def test_ring_384_crlf_and_bare_cr_copies_give_the_same_outputs(tmp_path, ring384):
    lf = teleport(tmp_path / "lf", ring384, RING384)
    assert succeeds(lf[0])
    for name, eol in (("crlf", b"\r\n"), ("cr", b"\r")):
        assert teleport(tmp_path / name, ring384.replace(b"\n", eol), RING384) == lf, name


def _mixed(plain):
    """The values with exponent-form, +-signed and space-padded cells, mixed LF and CRLF lines and a comment among the rows.

    Cells and blocks that numpy's text reader reads instead of the kernel.
    """
    samples, _, _ = read_image(plain)
    lines = ["pixelport-image-v1", "32 32", "re_im"]
    for i, row in enumerate(samples.view(float).tolist()):
        cells = [repr(x) for x in row]
        cells[i % 8] = f"{row[i % 8]:.17e}"
        cells[8 + i % 8] = f"+{row[8 + i % 8]!r}".replace("+-", "-")
        cells[16 + i % 8] = f"  {cells[16 + i % 8]}\t"
        lines.append(",".join(cells))
    lines.insert(20, "# a comment among the rows")
    return "".join(line + ("\r\n" if i % 3 == 0 else "\n") for i, line in enumerate(lines)).encode()


def _bare_cr(plain):
    """The file with a byte order mark, bare \\r line ends and a 70,000-byte comment line under the header.

    The reader cuts its blocks at the \\r line ends and grows its buffer to
    hold the long line; the header and the comment go to the text route, and
    every block after them to the kernel, as in an LF file.
    """
    lines = plain.read_bytes().split(b"\n")
    lines.insert(3, b"# " + b"x" * 69998)
    return BOM + b"\r".join(lines)


def _crlf(plain):
    """The values with the comment lines write_image puts under the header, and CRLF lines, which the kernel reads."""
    commented = plain.with_name("commented.csv")
    write_image(commented, read_image(plain)[0], comments=("mode=spdc", "ring_r0=8.0", "ring_width=2.0", "n_shots=0"))
    return commented.read_bytes().replace(b"\n", b"\r\n")


@pytest.fixture
def plain(tmp_path):
    """A 32x32 image as write_image writes it: every block is read by the numpy kernel."""
    path = tmp_path / "plain.csv"
    write_image(path, (np.random.default_rng(5).standard_normal((32, 64)) / 2).view(complex))
    return path


@pytest.mark.parametrize("copy", [_mixed, _bare_cr, _crlf], ids=["mixed", "bare-cr", "crlf"])
def test_both_reader_routes_give_the_same_outputs(tmp_path, plain, copy):
    want = teleport(tmp_path / "plain", plain.read_bytes(), RING32)
    assert succeeds(want[0])
    assert teleport(tmp_path / "copy", copy(plain), RING32) == want


def test_late_bad_byte_reads_as_decoding_the_whole_file(tmp_path, plain):
    # 0xff in the last rows of the bare-\r copy: one error line, which names the
    # byte's file offset (the byte order mark counted) as decoding the whole file does
    data = bytearray(_bare_cr(plain))
    data[len(data) - 100] = 0xFF
    with pytest.raises(UnicodeDecodeError) as exc:
        bytes(data).decode("utf-8")
    (code, _, err), _ = teleport(tmp_path, bytes(data), RING32)
    assert code == 2
    assert err == f"error: cannot read in.csv: {exc.value}\n"


def _planes(run_dir):
    """The teleported image and the fidelity map that a run wrote to run_dir."""
    lines = (run_dir / "fidelity_map.csv").read_text(encoding="utf-8").splitlines()
    fidelity = np.array([line.split(",") for line in lines if not line.startswith("#")][1:], dtype=float)
    return read_image(run_dir / "teleported.csv")[0], fidelity


def test_raw_plane_is_the_off_centre_upright_plane_point_reflected(tmp_path, ring32):
    # an off-centre grid, so that neither plane is point-symmetric: the paper's k1 = -k2 pixel pairing
    settings = {**RING32, "origin_x": -12.0, "origin_y": -16.0}
    assert succeeds(teleport(tmp_path / "upright", ring32, settings, "--shots", "0")[0])
    assert succeeds(teleport(tmp_path / "raw", ring32, settings, "--shots", "0", "--raw-plane")[0])
    for name, up, raw in zip(("image", "fidelity map"), _planes(tmp_path / "upright"), _planes(tmp_path / "raw")):
        assert up.shape == (32, 32) and not np.array_equal(raw, up), name
        assert np.array_equal(raw, up[::-1, ::-1]), name


def test_byte_order_marks_on_config_and_image_change_no_output(tmp_path, ring32):
    config = config_text(BASE["ideal"])
    want = teleport(tmp_path / "plain", ring32, config)
    assert succeeds(want[0])
    assert teleport(tmp_path / "bom", BOM + ring32, "\ufeff" + config) == want


ORACLE_DIMS = (30, 31, 54, 90, 160)


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_oracle_reads_the_same_with_one_blas_thread(tmp_path, dim):
    # The matmul and SVD shapes, set by dim and the grid's block size, decide whether
    # OpenBLAS starts a second thread: the default dim, 31 (odd: the eigendecomposition's
    # zero mode), 54, 90 and the cap.
    code, out, _ = run(["oracle-verify", "--dim", str(dim), "--json"])
    proc = run_module(tmp_path, "oracle-verify", "--dim", str(dim), "--json", env={"OPENBLAS_NUM_THREADS": "1"})
    assert (code, proc.returncode, proc.stderr) == (0, 0, "")
    texts = (out, proc.stdout)
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    default, single = (json.loads(text) for text in texts)
    assert default["passed"] == single["passed"]
    assert [(c["name"], c["passed"]) for c in default["checks"]] == [(c["name"], c["passed"]) for c in single["checks"]]
    for c, d in zip(default["checks"], single["checks"]):
        assert abs(c["value"] - d["value"]) <= 1e-12, (c["name"], c["value"], d["value"])


def test_oracle_passes_at_the_truncation_caps():
    code, out, _ = run(["oracle-verify", "--dim", "160", "--photo-dim", "80", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["dim"], payload["photo_dim"], payload["passed"]) == (160, 80, True)


def test_console_prints_truncation_warnings_one_line_each(tmp_path):
    # an undersized oracle: truncation warnings, then the failing rows, and exit 3
    proc = run_module(tmp_path, "oracle-verify", "--dim", "4")
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("warning: ") and lines[-1].startswith("failing: ")
    assert all(line.startswith(("warning: ", "failing: ")) for line in lines)
    assert ".py:" not in proc.stderr


def test_console_prints_the_narrow_waist_warning_in_one_line(tmp_path):
    # an spdc_* config whose mode waist is not small against the pump waist: exit 0 and one warning line
    write_run(tmp_path, np.full((4, 4), 0.5 + 0j), {**BASE["spdc"], "spdc_mode_waist": 50.0})
    proc = run_module(tmp_path, "teleport", "--config", "run.cfg")
    assert proc.returncode == 0
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("warning: w_0/w_p = 0.25 is not small")
