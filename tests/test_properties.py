"""Property tests: any image file, config text or argv ends in a result or a one-line error."""

import contextlib
import io
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pixelport import fock
from pixelport.channel import MAX_SHOTS
from pixelport.cli import MAX_SAMPLES, main
from pixelport.config import parse_config
from pixelport.imagefile import MAGIC, ImageFormatError, read_image, write_image
from test_cli import HUGE_PITCH, ROW_IMAGE, replay_config

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


def _run(argv, outputs=()):
    """Run the CLI in process and check its exit contract; returns the exit code.

    An exception escaping main fails the test, which is how a traceback shows
    here.  Warnings are recorded instead of printed, so on exit 1 or 2 stderr
    holds nothing but the one error line, and nothing in outputs was written.
    """
    for path in outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code in (1, 2):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert [p.name for p in outputs if p.exists()] == []
    return code


def _teleport(tmp_path, n_shots):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mode = ideal\nideal_r = 1.0\nn_shots = {n_shots}\ninput = {tmp_path / 'in.csv'}\n"
        f"output = {tmp_path / 'out.csv'}\nfidelity_map = {tmp_path / 'fmap.csv'}\n"
        f"summary = {tmp_path / 'summary.txt'}\n"
    )
    _run(["teleport", "--config", str(cfg)])


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


BASE_CONFIGS = {
    "ideal": {"mode": "ideal", "ideal_r": "1.0"},
    "ring": {"mode": "spdc", "ring_r0": "1.0", "ring_width": "0.5", "ring_xi": "1.5"},
    "spdc": {
        "mode": "spdc",
        "spdc_pump_waist": "200",
        "spdc_mode_waist": "15",
        "spdc_length": "5",
        "spdc_pump_k": "10",
        "spdc_signal_k": "5.05",
        "spdc_angle": "0.1",
        "spdc_focal": "100",
        "spdc_xi": "1",
    },
}
NUMERIC_KEYS = sorted({"seed", "n_shots", "pitch", "origin_x", "origin_y"}.union(*BASE_CONFIGS.values()) - {"mode"})
# float64's edges and each cap, plus junk; shot counts stay small or go past the cap
EXTREMES = [
    "0", "-0.0", "-1", "1e-320", "1e-300", "1e-170", "1e160", "1e200", "1e300", "1.7976931348623157e308",
    "1.5707963267948", "700", "701", "nan", "-inf", "1_0", "x", str(MAX_SHOTS + 1), "100000000000000",
]  # fmt: skip
VALUES = st.one_of(st.sampled_from(EXTREMES), st.integers(0, 3).map(str), st.floats().map(repr))
FLAG_VALUES = st.one_of(st.integers(-1, 3), st.sampled_from([MAX_SHOTS + 1, 10**14])).map(str) | st.just("x")


@st.composite
def configs(draw):
    """Config settings: a valid base with up to four values replaced and maybe one key dropped."""
    settings = dict(BASE_CONFIGS[draw(st.sampled_from(sorted(BASE_CONFIGS)))])
    for key in draw(st.lists(st.sampled_from(NUMERIC_KEYS), max_size=4, unique=True)):
        settings[key] = draw(VALUES)
    if draw(st.integers(0, 4)) == 0:
        del settings[draw(st.sampled_from(sorted(settings)))]
    return settings


def _config(base, **changes):
    return {**BASE_CONFIGS[base], **changes}


def _complex_arrays(shape):
    n = 2 * shape[0] * shape[1]
    cells = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    return cells.map(lambda c: np.array(c).view(complex).reshape(shape))


SMALL_IMAGES = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(_complex_arrays)
OVERRIDES = st.tuples(st.sampled_from(["--seed", "--shots"]), FLAG_VALUES)
FLAGS = st.lists(st.one_of(st.just(("--raw-plane",)), st.just(("--json",)), OVERRIDES), max_size=3).map(
    lambda groups: [token for group in groups for token in group]
)
IMAGE = np.array([[1.0 + 0.5j, -0.25j], [2.0, 0.0]])


@SETTINGS
@given(settings=configs(), image=SMALL_IMAGES, flags=FLAGS)
@example(settings=_config("ring", ring_r0="1e160"), image=IMAGE, flags=[])
@example(settings=_config("ring", ring_width="1e-170"), image=IMAGE, flags=[])
@example(settings=_config("ring", origin_x="1e200", origin_y="1e200"), image=IMAGE, flags=[])
@example(settings=_config("ring", pitch="1e300"), image=IMAGE, flags=["--shots", "1"])
@example(settings=_config("spdc", spdc_focal="1e300", spdc_angle="1.5707963267948"), image=IMAGE, flags=[])
@example(settings=_config("spdc", spdc_length="1e-300", spdc_pump_k="1e-300"), image=IMAGE, flags=[])
@example(settings=_config("ideal", pitch="1e-320"), image=IMAGE, flags=[])
@example(settings=_config("ideal", pitch="1e-320"), image=IMAGE, flags=["--shots", "1"])
@example(settings=_config("ideal", n_shots=str(MAX_SHOTS + 1)), image=IMAGE, flags=[])
@example(settings=_config("ideal"), image=IMAGE, flags=["--shots", str(MAX_SHOTS + 1)])
@example(settings=_config("ideal", pitch=HUGE_PITCH), image=ROW_IMAGE, flags=[])
def test_teleport_any_config_exits_cleanly(tmp_path, settings, image, flags):
    write_image(tmp_path / "in.csv", image)
    outputs = [tmp_path / name for name in ("out.csv", "fmap.csv", "summary.txt")]
    paths = dict(zip(("output", "fidelity_map", "summary"), outputs), input=tmp_path / "in.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**settings, **paths}.items()))
    if _run(["teleport", "--config", str(cfg), *flags], outputs) == 0:
        # no run writes an image or map that its own reader refuses
        got, _, _ = read_image(outputs[0])
        assert got.shape == image.shape
        rows = [line for line in outputs[1].read_text().splitlines() if not line.startswith("#")][1:]
        assert np.all(np.isfinite(np.loadtxt(rows, delimiter=",", ndmin=2)))
        if "--json" not in flags:
            # the key=value summary configures the same run again
            parse_config(replay_config(outputs[2]))


CURVE_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-1", "1e-320", "1e-200", "1e160", "1e200", "1e308", "nan", "inf", "x"]),
    st.floats().map(repr),
)
CURVE_OPTIONS = {
    "--r0": CURVE_NUMBERS,
    "--ring-width": CURVE_NUMBERS,
    "--samples": st.one_of(st.integers(-1, 40), st.sampled_from([MAX_SAMPLES + 1, 10**14])).map(str),
}
DIMS = st.one_of(st.integers(-1, 12), st.sampled_from([fock.MAX_DIM + 1, fock.MAX_PHOTO_DIM + 1])).map(str)
ORACLE_OPTIONS = {"--dim": DIMS, "--photo-dim": DIMS}


@st.composite
def argvs(draw):
    """Argv for profile, fidelity-curve or oracle-verify: a few options, a switch, maybe a stray flag."""
    command = draw(st.sampled_from(["profile", "fidelity-curve", "oracle-verify"]))
    if command == "oracle-verify":
        options, switches = ORACLE_OPTIONS, [["--json"]]
    else:
        xi = CURVE_NUMBERS if command == "profile" else st.lists(CURVE_NUMBERS, min_size=1, max_size=3).map(",".join)
        options = {**CURVE_OPTIONS, "--xi": xi}
        switches = [["--preset", "fig3" if command == "profile" else "fig4"]]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=len(options), unique=True)):
        argv += [flag, draw(options[flag])]
    argv += draw(st.sampled_from([[], *switches, ["--tol", "average_fidelity=1"], ["--bogus"], ["--dim", "x"]]))
    return argv


@SETTINGS
@given(argv=argvs())
@example(argv=["profile", "--r0", "1e160", "--ring-width", "1"])
@example(argv=["profile", "--r0", "1", "--ring-width", "1e-200"])
@example(argv=["fidelity-curve", "--r0", "1e200", "--ring-width", "1"])
@example(argv=["profile", "--r0", "1", "--ring-width", "1", "--samples", "100000000000000"])
@example(argv=["profile", "--r0", "1", "--ring-width", "1", "--samples", str(MAX_SAMPLES + 1)])
@example(argv=["fidelity-curve", "--preset", "fig4", "--samples", str(MAX_SAMPLES + 1)])
@example(argv=["oracle-verify", "--dim", str(fock.MAX_DIM + 1)])
@example(argv=["oracle-verify", "--photo-dim", str(fock.MAX_PHOTO_DIM + 1)])
@example(argv=["oracle-verify", "--tol", "average_fidelity=1e-2"])
def test_any_argv_exits_cleanly(tmp_path, argv):
    out, out_dir = tmp_path / "curve.csv", tmp_path / "plots"
    for path in out_dir.glob("*.csv"):
        path.unlink()
    if argv[0] != "oracle-verify":
        argv = argv + ["--out", str(out), "--out-dir", str(out_dir)]
    code = _run(argv, [out])
    written = [path for path in [out, *out_dir.glob("*.csv")] if path.exists()]
    assert code == 0 or written == []
    for path in written:
        # four comment lines and the header precede the rows
        assert np.all(np.isfinite(np.loadtxt(path, delimiter=",", skiprows=5, ndmin=2)))
