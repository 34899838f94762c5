"""Property tests: any image file ends in a result or a one-line error."""

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pixelport.cli import main
from pixelport.imagefile import MAGIC, ImageFormatError, read_image

# the example files are rewritten on every example, so one tmp_path serves all
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

CELLS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f" {x!r}\t"),
    st.sampled_from(["", " ", "1_0", "+.5", "1E5", "inf", "-nan", "0x1p3", "\u0661", "\xa01", "1e999", "-0.0", "\x1f1"]),
    st.text(max_size=4),
)


@st.composite
def images(draw):
    """(width, height, payload): free text, or rows of cells near the header's shape."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        return width, height, draw(st.text(max_size=80))
    n_rows = draw(st.sampled_from([height, height, height, height - 1, height + 1]))
    n_cells = st.sampled_from([2 * width, 2 * width, 2 * width, 2 * width - 1, 2 * width + 1])
    rows = []
    for _ in range(n_rows):
        n = draw(n_cells)
        rows.append(",".join(draw(st.lists(CELLS, min_size=n, max_size=n))))
    separator = draw(st.sampled_from(["\n", "\n", "\n\n", "\n# note\n"]))
    return width, height, separator.join(rows)


def _header(width, height):
    return f"{MAGIC}\n{width} {height}\nre_im\n"


def _teleport(tmp_path, n_shots):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mode = ideal\nideal_r = 1.0\nn_shots = {n_shots}\ninput = {tmp_path / 'in.csv'}\n"
        f"output = {tmp_path / 'out.csv'}\nfidelity_map = {tmp_path / 'fmap.csv'}\n"
        f"summary = {tmp_path / 'summary.txt'}\n"
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["teleport", "--config", str(cfg)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1


@SETTINGS
@given(image=images())
def test_read_image_returns_finite_header_shape_or_format_error(tmp_path, image):
    width, height, payload = image
    path = tmp_path / "in.csv"
    path.write_text(_header(width, height) + payload, encoding="utf-8")
    try:
        samples, _, _ = read_image(path)
    except ImageFormatError:
        return
    assert samples.shape == (height, width)
    assert np.all(np.isfinite(samples.view(float)))


@SETTINGS
@given(image=images(), n_shots=st.integers(0, 2))
def test_teleport_any_payload_exits_cleanly(tmp_path, image, n_shots):
    width, height, payload = image
    (tmp_path / "in.csv").write_text(_header(width, height) + payload, encoding="utf-8")
    _teleport(tmp_path, n_shots)


@SETTINGS
@given(data=st.one_of(st.binary(max_size=120), st.binary(max_size=60).map(lambda b: _header(2, 1).encode() + b)))
def test_teleport_any_bytes_exit_cleanly(tmp_path, data):
    (tmp_path / "in.csv").write_bytes(data)
    _teleport(tmp_path, 0)
