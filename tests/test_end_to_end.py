"""Output contracts of whole runs: each command runs on files in tmp_path.

Most runs go through ``cli.main`` in process.  A check that needs a fresh
interpreter (default warning filters) or its own environment
(``OPENBLAS_NUM_THREADS=1``) runs ``sys.executable`` in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pixelport.cli import main
from pixelport.imagefile import read_image, write_image
from reprrows import rows_are_repr

SRC = Path(__file__).resolve().parents[1] / "src"
OUTPUTS = ("teleported.csv", "fidelity_map.csv")
BOM = b"\xef\xbb\xbf"
RING32_CFG = "mode = spdc\ninput = in.csv\nring_r0 = 8.0\nring_width = 2.0\nring_xi = 1.5\n"
RING384_CFG = "mode = spdc\ninput = in.csv\nring_r0 = 96.0\nring_width = 24.0\nring_xi = 1.5\nn_shots = 0\n"


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


def teleport(monkeypatch, capsys, run, image, config, *flags):
    """Teleport the image bytes as in.csv with the config text as run.cfg, in the new directory run.

    The run's bare file names leave the echoed parameters the same in every
    directory.  Returns the bytes of the teleported image and fidelity map.
    """
    run.mkdir()
    (run / "in.csv").write_bytes(image)
    (run / "run.cfg").write_text(config, encoding="utf-8")
    monkeypatch.chdir(run)
    assert main(["teleport", "--config", "run.cfg", *flags]) == 0
    assert capsys.readouterr().err == ""
    return tuple((run / name).read_bytes() for name in OUTPUTS)


@pytest.mark.parametrize("flags", [[], ["--shots", "3", "--raw-plane", "--json"]], ids=["analytic", "shots-raw-json"])
def test_ring_32_rows_are_repr(tmp_path, monkeypatch, capsys, ring32, flags):
    teleport(monkeypatch, capsys, tmp_path / "run", ring32, RING32_CFG, *flags)
    assert rows_are_repr(tmp_path / "run" / "teleported.csv", 3, 32)
    assert rows_are_repr(tmp_path / "run" / "fidelity_map.csv", 1, 32)


def test_ring_384_rows_are_repr_and_write_read_write_is_byte_stable(tmp_path, monkeypatch, capsys, ring384):
    teleported, _ = teleport(monkeypatch, capsys, tmp_path / "run", ring384, RING384_CFG)
    assert rows_are_repr(tmp_path / "run" / "teleported.csv", 3, 384)
    assert rows_are_repr(tmp_path / "run" / "fidelity_map.csv", 1, 384)
    # the values read back and written again with the same comments give the same bytes
    samples, _, comments = read_image(tmp_path / "run" / "teleported.csv")
    write_image(tmp_path / "round_trip.csv", samples, comments=tuple(comments))
    assert (tmp_path / "round_trip.csv").read_bytes() == teleported


def test_ring_384_crlf_and_bare_cr_copies_give_the_same_outputs(tmp_path, monkeypatch, capsys, ring384):
    lf = teleport(monkeypatch, capsys, tmp_path / "lf", ring384, RING384_CFG)
    for name, eol in (("crlf", b"\r\n"), ("cr", b"\r")):
        assert teleport(monkeypatch, capsys, tmp_path / name, ring384.replace(b"\n", eol), RING384_CFG) == lf, name


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
def test_both_reader_routes_give_the_same_outputs(tmp_path, monkeypatch, capsys, plain, copy):
    want = teleport(monkeypatch, capsys, tmp_path / "plain", plain.read_bytes(), RING32_CFG)
    assert teleport(monkeypatch, capsys, tmp_path / "copy", copy(plain), RING32_CFG) == want


def test_late_bad_byte_reads_as_decoding_the_whole_file(tmp_path, monkeypatch, capsys, plain):
    # 0xff in the last rows of the bare-\r copy: one error line, which names the
    # byte's file offset (the byte order mark counted) as decoding the whole file does
    data = bytearray(_bare_cr(plain))
    data[len(data) - 100] = 0xFF
    with pytest.raises(UnicodeDecodeError) as exc:
        bytes(data).decode("utf-8")
    (tmp_path / "bad.csv").write_bytes(data)
    (tmp_path / "run.cfg").write_text(RING32_CFG.replace("in.csv", "bad.csv"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["teleport", "--config", "run.cfg"]) == 2
    assert capsys.readouterr().err == f"error: cannot read bad.csv: {exc.value}\n"


def _planes(run):
    """The teleported image and the fidelity map that a run wrote to the directory run."""
    lines = (run / "fidelity_map.csv").read_text(encoding="utf-8").splitlines()
    fidelity = np.array([line.split(",") for line in lines if not line.startswith("#")][1:], dtype=float)
    return read_image(run / "teleported.csv")[0], fidelity


def test_raw_plane_is_the_off_centre_upright_plane_point_reflected(tmp_path, monkeypatch, capsys, ring32):
    # an off-centre grid, so that neither plane is point-symmetric: the paper's k1 = -k2 pixel pairing
    config = RING32_CFG + "origin_x = -12.0\norigin_y = -16.0\n"
    teleport(monkeypatch, capsys, tmp_path / "upright", ring32, config, "--shots", "0")
    teleport(monkeypatch, capsys, tmp_path / "raw", ring32, config, "--shots", "0", "--raw-plane")
    for name, up, raw in zip(("image", "fidelity map"), _planes(tmp_path / "upright"), _planes(tmp_path / "raw")):
        assert up.shape == (32, 32) and not np.array_equal(raw, up), name
        assert np.array_equal(raw, up[::-1, ::-1]), name


def test_byte_order_marks_on_config_and_image_change_no_output(tmp_path, monkeypatch, capsys, ring32):
    config = "mode = ideal\ninput = in.csv\nideal_r = 1.0\n"
    want = teleport(monkeypatch, capsys, tmp_path / "plain", ring32, config)
    assert teleport(monkeypatch, capsys, tmp_path / "bom", BOM + ring32, "\ufeff" + config) == want


ORACLE_DIMS = (30, 31, 54, 90, 160)


@pytest.fixture(scope="module")
def one_thread_oracle():
    """The text oracle-verify --json writes at each of ORACLE_DIMS, from one child process with one BLAS thread."""
    code = "import sys; from pixelport.cli import main; [main(['oracle-verify', '--dim', d, '--json']) for d in sys.argv[1:]]"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, ORACLE_DIMS)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    # each document ends in the only "}" that starts a line
    texts = [text + "\n}\n" for text in proc.stdout.split("\n}\n")[:-1]]
    assert "".join(texts) == proc.stdout
    return dict(zip(ORACLE_DIMS, texts, strict=True))


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_oracle_reads_the_same_with_one_blas_thread(capsys, one_thread_oracle, dim):
    # The matmul and SVD shapes, set by dim and the grid's block size, decide whether
    # OpenBLAS starts a second thread: the default dim, 31 (odd: the eigendecomposition's
    # zero mode), 54, 90 and the cap.
    main(["oracle-verify", "--dim", str(dim), "--json"])
    texts = (capsys.readouterr().out, one_thread_oracle[dim])
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    default, single = (json.loads(text) for text in texts)
    assert default["passed"] == single["passed"]
    assert [(c["name"], c["passed"]) for c in default["checks"]] == [(c["name"], c["passed"]) for c in single["checks"]]
    for c, d in zip(default["checks"], single["checks"]):
        assert abs(c["value"] - d["value"]) <= 1e-12, (c["name"], c["value"], d["value"])


def test_oracle_passes_at_the_truncation_caps(capsys):
    assert main(["oracle-verify", "--dim", "160", "--photo-dim", "80", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["dim"], payload["photo_dim"], payload["passed"]) == (160, 80, True)


def run_module(tmp_path, *argv):
    """pixelport.cli in a fresh interpreter with its default warning filters, in tmp_path."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-m", "pixelport.cli", *argv]
    return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)


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
    write_image(tmp_path / "in.csv", np.full((4, 4), 0.5 + 0j))
    spdc = {
        "pump_waist": 200.0,
        "mode_waist": 50.0,
        "length": 5.0,
        "pump_k": 10.0,
        "signal_k": 5.05,
        "angle": 0.1,
        "focal": 100.0,
        "xi": 1.0,
    }
    config = "mode = spdc\ninput = in.csv\n" + "".join(f"spdc_{k} = {v}\n" for k, v in spdc.items())
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    proc = run_module(tmp_path, "teleport", "--config", "run.cfg")
    assert proc.returncode == 0
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("warning: w_0/w_p = 0.25 is not small")
