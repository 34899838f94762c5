import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memprobe import traced_peak
from outcomes import numpy_fidelity
import pixelport
from pixelport import channel, fock, spdc
from pixelport.cli import FIG3_PAIRS, MAX_CELLS, MAX_SAMPLES, build_parser
from pixelport.config import parse_config
from pixelport.grid import GridGeometry
from pixelport.imagefile import _write_csv, read_image, write_image
from runs import BASE, complex_image, run, run_module, teleport, write_run


def test_teleport_ideal_analytic(tmp_path):
    # power-of-two pixel count: the mean of identical per-pixel
    # fidelities is then exact, so string equality below is safe
    img = complex_image((4, 8))
    (code, out, _), (_, fmap, summary) = teleport(tmp_path, img, {**BASE["ideal"], "ideal_r": 2.0})
    assert code == 0

    want_fid = numpy_fidelity(2.0)
    assert want_fid == pytest.approx((1 + math.tanh(2.0)) / 2, rel=1e-15)
    assert out.strip() == f"image_fidelity={want_fid!r}"

    got, encoding, comments = read_image(tmp_path / "teleported.csv")
    assert encoding == "re_im"
    assert np.array_equal(got, math.tanh(2.0) * img)
    assert "mode=ideal" in comments

    fmap_lines = fmap.decode().splitlines()
    assert any(line == f"# image_fidelity={want_fid!r}" for line in fmap_lines)
    data_rows = [l for l in fmap_lines if not l.startswith("#") and not l.startswith("col")]
    assert len(data_rows) == 4
    assert all(float(v) == want_fid for v in data_rows[0].split(","))

    summary = dict(line.split("=", 1) for line in summary.decode().splitlines())
    assert summary["mode"] == "ideal"
    assert summary["n_shots"] == "0"
    assert summary["image_fidelity"] == repr(want_fid)


def test_teleport_strong_squeezing_round_trip(tmp_path):
    img = complex_image((3, 3), seed=9)
    assert teleport(tmp_path, img, {**BASE["ideal"], "ideal_r": 20.0})[0][0] == 0
    got, _, _ = read_image(tmp_path / "teleported.csv")
    assert np.allclose(got, img, rtol=0, atol=1e-8)


# a ring run with 50 shots: bare file names in each run's directory keep the echoed parameters equal
SHOTS_RING = {**BASE["ring"], "n_shots": 50, "seed": 3}


def test_teleport_stochastic_reruns_are_byte_identical(tmp_path):
    first = teleport(tmp_path / "a", complex_image(), SHOTS_RING)
    assert first[0][0] == 0
    assert teleport(tmp_path / "b", complex_image(), SHOTS_RING) == first


def test_teleport_block_size_does_not_change_bytes(tmp_path, monkeypatch):
    default = teleport(tmp_path / "default", complex_image(), SHOTS_RING)
    assert default[0][0] == 0
    # blocks of one, three and five pixels over the 24-pixel image (n_shots = 50)
    for pixels in (1, 3, 5):
        monkeypatch.setattr(channel, "_BLOCK_NORMALS", 2 * 50 * pixels)
        assert teleport(tmp_path / f"block{pixels}", complex_image(), SHOTS_RING) == default


def test_teleport_seed_and_shots_overrides(tmp_path):
    assert teleport(tmp_path, complex_image(), BASE["ideal"], "--seed", "7", "--shots", "25")[0][0] == 0
    summary = dict(
        line.split("=", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
    )
    assert summary["seed"] == "7"
    assert summary["n_shots"] == "25"
    assert run(["teleport", "--config", "run.cfg", "--shots", "-1"], tmp_path)[0] == 1
    cap = channel.MAX_SHOTS
    code, _, err = run(["teleport", "--config", "run.cfg", "--shots", str(cap + 1)], tmp_path)
    assert code == 1
    assert err.endswith(f"error: n_shots must be at most {cap}, got {cap + 1}\n")


def test_parser_carries_no_flags_between_calls(tmp_path):
    settings = {**BASE["ideal"], "seed": 11, "n_shots": 2}
    flags = ["--seed", "5", "--shots", "3", "--raw-plane", "--json"]
    assert teleport(tmp_path, complex_image(), settings, *flags)[0][0] == 0
    first = json.loads((tmp_path / "summary.txt").read_text())
    assert (first["seed"], first["n_shots"], first["raw_plane"]) == ("5", "3", "true")
    # the same process and parser, no flags: the config's values, the upright plane, key=value lines
    assert run(["teleport", "--config", "run.cfg"], tmp_path)[0] == 0
    text = (tmp_path / "summary.txt").read_text()
    summary = dict(line.split("=", 1) for line in text.splitlines())
    assert (summary["seed"], summary["n_shots"], summary["raw_plane"]) == ("11", "2", "false")


def test_parser_is_built_once_and_behaves_as_fresh():
    assert build_parser() is build_parser()
    calls = (["oracle-verify", "--dim", "abc"], ["oracle-verify", "--json"], ["--help"])
    reused = [run(argv) for argv in calls]
    assert [code for code, _, _ in reused] == [1, 0, 0]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh


def test_teleport_rejects_negative_seed_flag(tmp_path):
    (code, _, err), _ = teleport(tmp_path, complex_image(), {**BASE["ideal"], "n_shots": 1}, "--seed", "-1")
    assert code == 1
    assert err == "error: seed must be non-negative\n"
    assert "Traceback" not in err
    assert not (tmp_path / "teleported.csv").exists()


@pytest.mark.parametrize(
    "settings,flags,message",
    [
        ({"seed": "1_0"}, [], "seed must be an integer, got '1_0'"),
        ({"seed": "\u0663"}, [], "seed must be an integer, got '\u0663'"),
        ({"ideal_r": "1_0.5"}, [], "ideal_r must be a number, got '1_0.5'"),
        ({"ideal_r": "\u0661.\u0665"}, [], "ideal_r must be a number, got '\u0661.\u0665'"),
        ({"pitch": "\uff11"}, [], "pitch must be a number, got '\uff11'"),
        ({}, ["--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
        ({}, ["--shots", "\u0662"], "argument --shots: invalid int value: '\u0662'"),
    ],
    ids=["seed-underscore", "seed-arabic-indic", "r-underscore", "r-arabic-indic", "pitch-fullwidth", "flag-seed", "flag-shots"],
)
def test_teleport_numbers_are_ascii_without_underscores(tmp_path, settings, flags, message):
    # the image reader's rule for a cell: int() and float() would read these as 10, 3, 10.5, 1.5, 1, 10 and 2
    (code, _, err), _ = teleport(tmp_path, complex_image(), {**BASE["ideal"], **settings}, *flags)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "teleported.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--r0", "1", "--ring-width", "\u0661"],
        ["profile", "--r0", "1", "--ring-width", "1", "--samples", "1_000"],
        ["fidelity-curve", "--r0", "1_0", "--ring-width", "1"],
        ["fidelity-curve", "--r0", "1", "--ring-width", "1", "--xi", "1,\u0662"],
        ["oracle-verify", "--dim", "3_0"],
    ],
)
def test_curve_and_oracle_flags_are_ascii_without_underscores(tmp_path, argv):
    code, _, err = run([*argv, "--out", str(tmp_path / "c.csv")] if argv[0] != "oracle-verify" else argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "mode,key,value",
    [
        ("ideal", "seed", "-1"),
        ("ideal", "ideal_r", "inf"),
        ("ideal", "ideal_r", "nan"),
        ("ideal", "ideal_r", "800"),
        ("ideal", "n_shots", str(channel.MAX_SHOTS + 1)),
        ("ideal", "n_shots", "1000000000"),
        ("ideal", "pitch", "inf"),
        ("ideal", "origin_x", "nan"),
        ("ring", "ring_r0", "nan"),
        ("ring", "ring_xi", "800"),
        ("spdc", "spdc_xi", "800"),
    ],
)
def test_teleport_bad_numbers_exit_cleanly(tmp_path, mode, key, value):
    settings = {**BASE[mode], "n_shots": 1, "origin_y": 0.0, "origin_x": 0.0, key: value}
    (code, _, err), _ = teleport(tmp_path, complex_image(), settings)
    assert code == 1
    assert err.startswith(f"error: {key} must be")
    assert "Traceback" not in err
    assert not (tmp_path / "teleported.csv").exists()


def test_teleport_pitch_overflow_exits_cleanly(tmp_path):
    # finite samples whose amplitudes samples * pitch overflow float64
    image = np.array([[1e308, 1e308], [-1e308, 1e308j]])
    (code, _, err), _ = teleport(tmp_path, image, {**BASE["ideal"], "pitch": 4.0})
    assert code == 1
    assert err.startswith("error: pitch")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


def test_teleport_shot_mean_overflow_exits_cleanly(tmp_path):
    # samples * pitch is finite, but summing three shots of ~1.7e308 is not
    image = np.full((2, 2), 1e308, dtype=complex)
    (code, _, err), _ = teleport(tmp_path, image, {**BASE["ideal"], "pitch": 1.7, "n_shots": 3})
    assert code == 1
    assert err.startswith("error: the teleported amplitudes overflow")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


# finite pixel centres whose distance from the axis, hypot(x, y), overflows: the ring is sinc's limit 0 there
RADIUS_OVERFLOWS = {"origin_x": "1.5e308", "origin_y": "1.5e308"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "mode,changes",
    [
        ("ring", {"ring_r0": "1e160"}),
        ("ring", {"ring_width": "1e-170"}),
        ("ring", {"origin_x": "1e200", "origin_y": "1e200"}),
        ("ring", RADIUS_OVERFLOWS),
        ("ring", {"pitch": "1e300"}),
        ("spdc", {"spdc_focal": "1e300", "spdc_angle": "1.5707963267948"}),
        ("spdc", {"spdc_length": "1e-300", "spdc_pump_k": "1e-300"}),
    ],
    ids=[
        "r0-squared-overflows",
        "width-squared-underflows",
        "far-grid",
        "radius-overflows",
        "huge-pitch",
        "spdc-r0-big",
        "spdc-width-inf",
    ],
)
def test_teleport_rings_beyond_float64_exit_cleanly(tmp_path, mode, changes):
    (code, _, err), _ = teleport(tmp_path, complex_image(), {**BASE[mode], "n_shots": 0, **changes})
    if mode == "spdc":
        assert code == 1
        assert err.startswith("error: the spdc parameters put the ring") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]
    else:
        # the ring lies far from every pixel (or is too thin to reach a pixel centre): sinc's limit 0
        assert code == 0 and err == ""
        got, _, _ = read_image(tmp_path / "teleported.csv")
        assert np.all(np.isfinite(got.view(float)))
        assert "image_fidelity=0.5\n" in (tmp_path / "summary.txt").read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "pitch,n_shots,image",
    [
        ("1e-320", 0, None),
        ("1e-320", 1, None),
        # a normal pitch: max * p rounds so that (max * p) / p overflows
        ("0.10311655827913957", 0, np.full((2, 2), np.finfo(float).max, dtype=complex)),
    ],
)
def test_teleport_never_writes_an_image_its_reader_refuses(tmp_path, pitch, n_shots, image):
    r = 1.0 if image is None else 20.0
    settings = {**BASE["ideal"], "ideal_r": r, "pitch": pitch, "n_shots": n_shots}
    (code, _, err), _ = teleport(tmp_path, complex_image() if image is None else image, settings)
    assert code == 1
    assert err == f"error: pitch = {float(pitch)!r} makes the output samples amplitudes / pitch overflow\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


def test_teleport_largest_r_runs_stochastic(tmp_path):
    img = complex_image((16, 16))
    assert teleport(tmp_path, img, {**BASE["ideal"], "ideal_r": channel.MAX_R, "n_shots": 1})[0][0] == 0
    got, _, _ = read_image(tmp_path / "teleported.csv")
    # noise of standard deviation e^-r / sqrt(2) per quadrature, and rounding
    assert np.all(np.abs(got - img) <= 8.0 * math.exp(-channel.MAX_R) + 4.0 * np.finfo(float).eps * np.abs(img))


def test_teleport_json_summary(tmp_path):
    assert teleport(tmp_path, complex_image((4, 8)), {**BASE["ideal"], "ideal_r": 0.5}, "--json")[0][0] == 0
    summary = json.loads((tmp_path / "summary.txt").read_text())
    assert summary["mode"] == "ideal"
    assert float(summary["image_fidelity"]) == numpy_fidelity(0.5)
    assert summary["output"].endswith("teleported.csv")


@pytest.mark.parametrize("n_shots", [1, 2])
@pytest.mark.parametrize("width,height", [(4, 4), (5, 5), (6, 3)], ids=["even", "odd", "6x3"])
def test_teleport_raw_plane_reflects(tmp_path, width, height, n_shots):
    # pixel (i, j) arrives at (width-1-i, height-1-j): corners swap, the
    # central pixel of an odd grid stays, and non-square grids keep their
    # shape; a ring at pitch 0.5 and the shots make every pixel differ
    planes = []
    for flags in ((), ("--raw-plane",)):
        run_dir = tmp_path / ("raw" if flags else "upright")
        image = complex_image((height, width), seed=5)
        settings = {**BASE["ring"], "n_shots": n_shots, "pitch": 0.5, "seed": 4}
        (code, _, _), (_, fmap, summary) = teleport(run_dir, image, settings, *flags)
        assert code == 0
        lines = fmap.decode().splitlines()
        fmap = np.array([[float(c) for c in line.split(",")] for line in lines if not line.startswith(("#", "col"))])
        summary = dict(line.split("=", 1) for line in summary.decode().splitlines())
        got, _, comments = read_image(run_dir / "teleported.csv")
        planes.append((got, fmap, summary, comments))
    (up, up_map, up_summary, _), (raw, raw_map, raw_summary, raw_comments) = planes
    assert raw.shape == raw_map.shape == (height, width)
    assert np.array_equal(raw, up[::-1, ::-1]) and np.array_equal(raw_map, up_map[::-1, ::-1])
    assert raw_summary["image_fidelity"] == up_summary["image_fidelity"]
    assert (up_summary["raw_plane"], raw_summary["raw_plane"]) == ("false", "true")
    assert "raw_plane=true" in raw_comments


SOURCE_ECHO = {
    "ideal": ["ideal_r=1.0"],
    "ring": ["ring_r0=1.0", "ring_width=0.5", "ring_xi=1.5"],
    "spdc": [
        "spdc_pump_waist=200.0",
        "spdc_mode_waist=15.0",
        "spdc_length=5.0",
        "spdc_pump_k=10.0",
        "spdc_signal_k=5.05",
        "spdc_angle=0.1",
        "spdc_focal=100.0",
        "spdc_xi=1.0",
    ],
}


@pytest.mark.parametrize("mode", sorted(SOURCE_ECHO))
def test_teleport_echoes_run_parameters_in_order(tmp_path, mode):
    assert teleport(tmp_path, complex_image(), {**BASE[mode], "n_shots": 2})[0][0] == 0
    params = [
        f"mode={BASE[mode]['mode']}",
        *SOURCE_ECHO[mode],
        "seed=0",
        "n_shots=2",
        "width=6",
        "height=4",
        "pitch=1.0",
        "origin_x=-3.0",
        "origin_y=-2.0",
        "raw_plane=false",
        "input=in.csv",
    ]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[: len(params)] == params
    keys = [line.partition("=")[0] for line in summary[len(params) :]]
    assert keys == ["image_fidelity", "output", "fidelity_map"]
    assert summary[-2:] == ["output=teleported.csv", "fidelity_map=fidelity_map.csv"]
    assert read_image(tmp_path / "teleported.csv")[2] == params
    fmap_lines = (tmp_path / "fidelity_map.csv").read_text().splitlines()
    assert [line[2:] for line in fmap_lines if line.startswith("# ")] == params + [summary[len(params)]]


HUGE_PITCH = "1.7976931348623157e308"
# the centred grid's corner -0.5 * width * HUGE_PITCH overflows; samples * pitch does not
ROW_IMAGE = np.array([[0.5, 0.25, 0.125]], dtype=complex)


def test_teleport_origin_overflow_exits_cleanly(tmp_path):
    (code, _, err), _ = teleport(tmp_path, ROW_IMAGE, {**BASE["ideal"], "pitch": HUGE_PITCH})
    assert code == 1
    assert err.startswith("error: grid origin must be finite") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


# a 2x2 image whose samples * HUGE_PITCH stay finite
QUARTER_IMAGE = np.full((2, 2), 0.25 + 0j)
# ring grids with a finite corner whose last pixel centre on x, origin_x + 1.5 * pitch, overflows
CENTERS_PAST_FLOAT64 = [
    {"origin_x": HUGE_PITCH, "origin_y": "0", "pitch": "1e300"},
    {"origin_x": "-" + HUGE_PITCH, "origin_y": "0", "pitch": HUGE_PITCH},
]


@pytest.mark.parametrize("grid", CENTERS_PAST_FLOAT64, ids=["sum-overflows", "product-overflows"])
def test_teleport_pixel_centers_past_float64_exit_cleanly(tmp_path, grid):
    (code, _, err), _ = teleport(tmp_path, QUARTER_IMAGE, {**BASE["ring"], "n_shots": 0, **grid})
    assert code == 1
    assert err == "error: pixel centers must be finite, got origin_x + (2 - 0.5) * pitch = inf\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


def test_teleport_ideal_huge_pitch_computes_no_centers(tmp_path):
    # the centred corner -pitch is finite, and an ideal run never asks for the pixel centres
    (code, _, err), _ = teleport(tmp_path, QUARTER_IMAGE, {**BASE["ideal"], "pitch": HUGE_PITCH})
    assert code == 0
    assert err == ""
    got, _, _ = read_image(tmp_path / "teleported.csv")
    np.testing.assert_array_equal(got, np.tanh(1.0) * (QUARTER_IMAGE * float(HUGE_PITCH)) / float(HUGE_PITCH))


def test_teleport_reports_the_corner_before_the_amplitudes(tmp_path):
    # 4 * HUGE_PITCH overflows too, but the grid is built, and its corner checked, first
    (code, _, err), _ = teleport(tmp_path, ROW_IMAGE * 8, {**BASE["ideal"], "pitch": HUGE_PITCH})
    assert code == 1
    assert err.startswith("error: grid origin must be finite")


@pytest.mark.parametrize("in_config", [True, False], ids=["config-key", "shots-flag"])
def test_teleport_checks_shots_cap_before_reading_input(tmp_path, in_config):
    # in.csv does not exist: an unreadable input would exit 2
    cap = channel.MAX_SHOTS
    settings = {**BASE["ideal"], **({"n_shots": cap + 1} if in_config else {})}
    (code, _, err), _ = teleport(tmp_path, None, settings, *([] if in_config else ["--shots", str(cap + 1)]))
    assert code == 1
    assert err == f"error: n_shots must be at most {cap}, got {cap + 1}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# summary keys that describe the run's outputs rather than configure it
NOT_CONFIG_KEYS = ("width", "height", "raw_plane", "image_fidelity", "output", "fidelity_map")


def replay_config(summary_path) -> str:
    """The key=value summary at summary_path as config text, without the keys no config takes."""
    lines = Path(summary_path).read_text().splitlines()
    items = (line.partition("=") for line in lines)
    return "".join(f"{k} = {v}\n" for k, _, v in items if k not in NOT_CONFIG_KEYS)


@pytest.mark.parametrize("mode", sorted(BASE))
@pytest.mark.parametrize(
    "grid",
    [{}, {"pitch": 0.5, "origin_x": -0.75, "origin_y": 0.25}, {"pitch": HUGE_PITCH}],
    ids=["default-grid", "explicit-grid", "huge-pitch"],
)
def test_summary_replays_as_config(tmp_path, mode, grid):
    flags = ["--shots", "2", "--seed", "3"]
    (code, _, _), first = teleport(tmp_path / "first", ROW_IMAGE, {**BASE[mode], **grid}, *flags)
    if code == 1:
        assert sorted(p.name for p in (tmp_path / "first").iterdir()) == ["in.csv", "run.cfg"]
        return
    text = replay_config(tmp_path / "first" / "summary.txt")
    parse_config(text)
    (code, _, _), replay = teleport(tmp_path / "replay", ROW_IMAGE, text, *flags)
    assert code == 0
    assert replay[:2] == first[:2]  # the teleported image and the fidelity map


def test_teleport_missing_config(tmp_path):
    code, _, err = run(["teleport", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error:" in err


def test_teleport_invalid_config(tmp_path):
    (code, _, err), _ = teleport(tmp_path, None, {**BASE["ideal"], "wavelength": 5})
    assert code == 1
    assert "unknown key" in err


def test_teleport_missing_input_image(tmp_path):
    (code, _, err), _ = teleport(tmp_path, None, BASE["ideal"])
    assert code == 2
    assert "error:" in err


def test_teleport_malformed_input_image(tmp_path):
    (code, _, err), _ = teleport(tmp_path, b"not-an-image\n1 1\nre_im\n0.0,0.0\n", BASE["ideal"])
    assert code == 2
    assert "bad magic" in err


def test_teleport_loose_dimension_line_exits_2(tmp_path):
    (code, _, err), _ = teleport(tmp_path, b"pixelport-image-v1\n1_0 1\nre_im\n0.0,0.0\n", BASE["ideal"])
    assert code == 2
    assert err == "error: in.csv: bad dimension line '1_0 1'\n"


def test_teleport_undecodable_image(tmp_path):
    (code, _, err), _ = teleport(tmp_path, b"\xff\xfe\x00garbage", BASE["ideal"])
    assert code == 2
    assert err.startswith("error: cannot read") and len(err.splitlines()) == 1


def test_teleport_header_only_image_exits_with_one_line(tmp_path):
    # numpy's reader warns on an empty payload, so the reader must never hand it one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (code, _, err), _ = teleport(tmp_path, b"pixelport-image-v1\n2 2\nre_im\n# a comment\n\n", BASE["ideal"])
    assert code == 2
    assert err == "error: in.csv: expected 2 data rows, found 0\n"


def test_every_output_is_written_as_utf8(tmp_path):
    # a non-ASCII input path is echoed into "# input=...", so no writer may fall back to the locale's encoding
    write_image(tmp_path / "in é.csv", complex_image())
    write_run(tmp_path, None, {**BASE["ideal"], "input": "in é.csv", "n_shots": 1})
    options = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    runs = (
        ["teleport", "--config", "run.cfg"],
        ["teleport", "--config", "run.cfg", "--json"],
        ["teleport", "--config", "run.cfg", "--shots", "3", "--raw-plane", "--json"],
        ["profile", "--preset", "fig3", "--out-dir", "curves é"],
        ["fidelity-curve", "--preset", "fig4", "--out-dir", "curves é"],
    )
    for argv in runs:
        proc = run_module(tmp_path, *argv, options=options)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    _, _, comments = read_image(tmp_path / "teleported.csv")
    assert "input=in é.csv" in comments
    assert json.loads((tmp_path / "summary.txt").read_text(encoding="utf-8"))["input"] == "in é.csv"
    assert "input=in é.csv" in (tmp_path / "fidelity_map.csv").read_text(encoding="utf-8")
    assert len(list((tmp_path / "curves é").glob("*.csv"))) == 6


def test_teleport_undecodable_config(tmp_path):
    (code, _, err), _ = teleport(tmp_path, None, b"mode = ideal\n# \xff\n")
    assert code == 1
    assert err.startswith("error: cannot read config") and len(err.splitlines()) == 1


@pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])
def test_teleport_rejects_cells_numpy_does_not_parse(tmp_path, cell):
    # float() takes underscores and non-ASCII digits; the image reader does not
    image = f"pixelport-image-v1\n2 2\nre_im\n# note\n1.0,0.0,0.0,0.0\n0.0,{cell},0.0,0.0\n".encode()
    (code, _, err), _ = teleport(tmp_path, image, BASE["ideal"])
    assert code == 2
    assert err == "error: in.csv:6: non-numeric cell\n"


def _reference_csv(comments, header, rows):
    lines = [f"# {c}" for c in comments] + [header]
    lines += [",".join(map(repr, row.tolist())) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_matches_per_value_reference(tmp_path):
    tiny = 5e-324
    rows = np.array(
        [
            [0.5, 0.5, -0.0, 0.0, 0.25, 0.5],
            [math.nan, math.inf, -math.inf, tiny, -tiny, 2.2250738585072014e-308],
            [0.0, -0.0, 0.25, 1e300, math.nan, tiny],
        ]
    )
    path = tmp_path / "map.csv"
    _write_csv(path, ["a=1"], "c0,c1,c2,c3,c4,c5", rows)
    assert path.read_bytes() == _reference_csv(["a=1"], "c0,c1,c2,c3,c4,c5", rows)
    assert path.read_text().splitlines()[2].startswith("0.5,0.5,-0.0,0.0,")


@pytest.mark.parametrize(
    "rows",
    [np.full((5, 7), numpy_fidelity(1.0)), np.arange(35.0).reshape(5, 7) / 7.0],
    ids=["one-value", "all-distinct"],
)
def test_write_csv_matches_reference_without_repeats_or_variety(tmp_path, rows):
    # an ideal run's map holds one value, and a map may hold no repeat at all
    path = tmp_path / "map.csv"
    _write_csv(path, ["a=1"], "h", rows)
    assert path.read_bytes() == _reference_csv(["a=1"], "h", rows)


def test_write_csv_matches_reference_on_ring_fidelity_map(tmp_path):
    # the benchmark's ring on a 64x64 unit-pitch image: r0 = side / 4, width side / 16
    settings = {**BASE["ring"], "ring_r0": 16.0, "ring_width": 4.0}
    (code, _, _), (_, fmap, _) = teleport(tmp_path, complex_image((64, 64)), settings)
    assert code == 0
    lines = fmap.decode().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    values = np.array([[float(c) for c in line.split(",")] for line in lines[len(comments) + 1 :]])
    assert values.shape == (64, 64)
    # the ring repeats values, so the map exercises the formatting of repeats
    assert len(np.unique(values)) < values.size // 4
    assert fmap == _reference_csv(comments, lines[len(comments)], values)


def test_write_csv_holds_few_map_sized_arrays(tmp_path):
    # the dedupe holds an argsort, the sorted patterns and int32 indices, not np.unique's int64 copies
    ring = spdc.RingParams(r0=64.0, R=16.0, Xi=1.5)  # the ring of test_teleport_holds_only_live_arrays
    fid = channel.average_fidelity(spdc.profile_for_grid(GridGeometry(256, 256), ring).r)
    assert traced_peak(lambda: _write_csv(tmp_path / "again.csv", [], "h", fid)) <= 3 * fid.nbytes


def test_write_csv_holds_no_string_per_value_of_a_distinct_map(tmp_path):
    # a shot map repeats no value, so its rows are formatted as they come: the
    # call holds the sort's arrays and one row's text, not a string per value
    fid = np.random.default_rng(5).random((256, 256))
    assert traced_peak(lambda: _write_csv(tmp_path / "shots.csv", [], "h", fid)) <= 3 * fid.nbytes


@pytest.mark.parametrize("extra", [0, 1], ids=["quarter-distinct-table", "over-quarter-distinct-rows"])
def test_write_csv_matches_reference_on_both_sides_of_the_row_rule(tmp_path, extra):
    # A quarter of the cells distinct keeps the table of distinct values; one
    # more distinct cell writes rows.  Both maps hold -0.0 apart from 0.0.  The
    # peak tells the paths apart: the table holds a string per distinct value.
    rng = np.random.default_rng(11)
    size = 256 * 256
    distinct = size // 4 + extra
    values = np.concatenate(([-0.0, 0.0], rng.random(distinct - 2)))
    cells = np.concatenate((values, values[rng.integers(0, distinct, size - distinct)]))
    rows = rng.permutation(cells).reshape(256, 256)
    assert np.unique(rows.view(np.int64)).size == distinct
    path = tmp_path / "map.csv"
    peak = traced_peak(lambda: _write_csv(path, ["a=1"], "h", rows))
    assert path.read_bytes() == _reference_csv(["a=1"], "h", rows)
    assert {"-0.0", "0.0"} <= set(path.read_text().replace("\n", ",").split(","))
    assert (peak <= 3 * rows.nbytes) == bool(extra)


def test_write_csv_matches_reference_on_curve_preset_at_the_cap(tmp_path):
    # every curve column is distinct valued, so the preset files take the row path
    argv = ["fidelity-curve", "--preset", "fig4", "--samples", str(MAX_SAMPLES), "--out-dir", str(tmp_path)]
    assert run(argv)[0] == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == len(FIG3_PAIRS)
    for path in paths:
        lines = path.read_text().splitlines()
        comments = [line[2:] for line in lines[:4]]
        values = np.loadtxt(path, delimiter=",", skiprows=5)
        assert values.shape[0] >= MAX_SAMPLES
        assert path.read_bytes() == _reference_csv(comments, lines[4], values)


@pytest.mark.parametrize("flags", [[], ["--raw-plane"]], ids=["upright", "raw-plane"])
def test_teleport_holds_only_live_arrays(tmp_path, flags):
    # An analytic ring run holds one complex image (1x its bytes) and one
    # float map (0.5x): each stage writes over the arrays it is handed.  Both
    # planes peak in the fidelity CSV writer, after the image is dropped: the
    # map and the writer's own arrays, which its tests bound by 3 maps, so
    # 0.5x + 1.5x = 2x (it measures 1.87x).  The raw plane's writers take the
    # reversed views and copy a block at a time, so write_image holds the
    # image, the map and a block of text: 1.5x + 0.2x.
    img = complex_image((256, 256), seed=35)
    write_run(tmp_path, img, {**BASE["ring"], "ring_r0": 64.0, "ring_width": 16.0})
    build_parser()  # built once per process, not per run
    codes = []
    peak = traced_peak(lambda: codes.append(run(["teleport", "--config", "run.cfg", *flags], tmp_path)[0]))
    assert codes == [0]
    assert peak <= 1.95 * img.nbytes


@pytest.mark.parametrize("key,written", [
    ("output", []),
    ("fidelity_map", ["teleported.csv"]),
    ("summary", ["teleported.csv", "fidelity_map.csv"]),
], ids=["output", "fidelity_map", "summary"])  # fmt: skip
def test_teleport_unwritable_output(tmp_path, key, written):
    # the outputs are written in this order, and a write that fails leaves the ones before it
    (code, _, err), _ = teleport(tmp_path, complex_image(), {**BASE["ideal"], key: "missing_dir/f.csv"})
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: 'missing_dir/f.csv'\n"
    assert {p.name for p in tmp_path.iterdir()} == {"in.csv", "run.cfg", *written}


def test_profile_single_ring(tmp_path):
    out = tmp_path / "ring.csv"
    code, stdout, _ = run(
        ["profile", "--r0", "1.0", "--ring-width", "0.5", "--xi", "1.5", "--samples", "64", "--out", str(out)]
    )
    assert code == 0
    assert stdout.strip() == str(out)
    lines = out.read_text().splitlines()
    assert lines[:5] == ["# r0=1.0", "# ring_width=0.5", "# xi=1.5", "# samples=64", "x,eta,eta_sq_norm"]
    data = np.array([[float(c) for c in l.split(",")] for l in lines if not l.startswith("#") and "," in l and not l.startswith("x")])
    assert data.shape[1] == 3 and data.shape[0] in (64, 65)
    # normalized curve peaks at exactly 1 on the ring radius
    peak = np.argmax(data[:, 2])
    assert data[peak, 2] == 1.0
    assert data[peak, 0] == 1.0


def test_profile_requires_geometry():
    code, _, err = run(["profile", "--r0", "1.0"])
    assert code == 1
    assert "ring-width" in err


CURVE = ["fidelity-curve", "--r0", "1", "--ring-width", "0.5"]
CELLS = "(1 + number of --xi values) * --samples"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["profile", "--r0", "1.0", "--ring-width", "0.5", "--samples", "1"], "--samples"),
        (["profile", "--preset", "fig3", "--samples", "1"], "--samples"),
        (["profile", "--r0", "nan", "--ring-width", "0.5"], "--r0"),
        (["profile", "--r0", "1.0", "--ring-width", "inf"], "--ring-width"),
        (["profile", "--r0", "1.0", "--ring-width", "0.5", "--xi", "nan"], "--xi"),
        (["fidelity-curve", "--r0", "1.0", "--ring-width", "0.5", "--samples", "1"], "--samples"),
        (["fidelity-curve", "--preset", "fig4", "--samples", "0"], "--samples"),
        (["fidelity-curve", "--r0", "nan", "--ring-width", "0.5"], "--r0"),
        (["fidelity-curve", "--r0", "1.0", "--ring-width=-inf"], "--ring-width"),
        (["fidelity-curve", "--r0", "1.0", "--ring-width", "0.5", "--xi", "1,nan"], "--xi"),
        (["fidelity-curve", "--r0", "-1.0", "--ring-width", "0.5"], "r0"),
        (["profile", "--r0", "1e308", "--ring-width", "1e308"], "--r0 + 4 * --ring-width"),
        (["fidelity-curve", "--r0", "1.0", "--ring-width", "1e308"], "--r0 + 4 * --ring-width"),
        (["profile", "--r0", "1.0", "--ring-width", "0.5", "--samples", str(MAX_SAMPLES + 1)], "--samples"),
        (["profile", "--preset", "fig3", "--samples", "100000000000000"], "--samples"),
        (["fidelity-curve", "--r0", "1.0", "--ring-width", "0.5", "--samples", str(MAX_SAMPLES + 1)], "--samples"),
        (["fidelity-curve", "--preset", "fig4", "--samples", str(MAX_SAMPLES + 1)], "--samples"),
        # (1 + number of --xi values) * --samples above MAX_CELLS
        (CURVE + ["--xi", "1,2,3", "--samples", str(MAX_SAMPLES)], CELLS),
        (CURVE + ["--xi", "1,2,3,4,5", "--samples", "50001"], CELLS),
        (CURVE + ["--xi", "1,2,3,4,5,6,7,8", "--samples", "100000"], CELLS),
        (["profile", "--r0", "1", "--ring-width", "0"], "R"),
    ],
)
def test_curve_commands_reject_bad_flags(tmp_path, argv, flag):
    code, _, err = run(argv + ["--out-dir", "plots"], tmp_path)
    assert code == 1
    assert err.startswith(f"error: {flag} must be")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--r0", "1e160", "--ring-width", "1"],
        ["profile", "--r0", "1", "--ring-width", "1e-200"],
        ["fidelity-curve", "--r0", "1e200", "--ring-width", "1", "--xi", "1,10"],
    ],
)
def test_curves_beyond_float64_are_finite(tmp_path, argv):
    out = tmp_path / "curve.csv"
    assert run(argv + ["--out", str(out)])[0] == 0
    data = np.loadtxt(out, delimiter=",", comments="#", skiprows=5)
    assert np.all(np.isfinite(data))
    # the exact ring radius keeps its unit peak; away from it u overflows and sinc is at its limit 0
    on_ring = data[data[:, 0] == float(argv[2])]
    if argv[0] == "profile":
        assert on_ring[:, 1:].tolist() == [[1.0, 1.0]]
    else:
        assert on_ring[:, 1:].tolist() == [[numpy_fidelity(1.0), numpy_fidelity(10.0)]]
        assert np.all(data[:, 1:] >= 0.5)


def test_profile_preset_fig3(tmp_path):
    code, out, _ = run(["profile", "--preset", "fig3", "--samples", "32", "--out-dir", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == [
        "ring_profile_r0-0.7_R-0.5.csv",
        "ring_profile_r0-1.0_R-0.5.csv",
        "ring_profile_r0-1.0_R-0.7.csv",
    ]
    pairs = [("1.0", "0.5"), ("1.0", "0.7"), ("0.7", "0.5")]
    paths = [tmp_path / f"ring_profile_r0-{r0}_R-{w}.csv" for r0, w in pairs]
    assert out == "".join(f"{p}\n" for p in paths)
    for path, (r0, w) in zip(paths, pairs):
        head = [f"# r0={r0}", f"# ring_width={w}", "# xi=1.0", "# samples=32", "x,eta,eta_sq_norm"]
        assert path.read_text().splitlines()[:5] == head


def test_fidelity_curve_values(tmp_path):
    out = tmp_path / "curve.csv"
    code, _, _ = run(
        ["fidelity-curve", "--r0", "1.0", "--ring-width", "0.5", "--xi", "1,10", "--samples", "97", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if l.startswith("x,"))
    assert header == "x,fidelity_xi_1.0,fidelity_xi_10.0"
    assert lines[:5] == ["# r0=1.0", "# ring_width=0.5", "# xi_list=1.0,10.0", "# samples=97", header]
    data = np.array([[float(c) for c in l.split(",")] for l in lines if l[:1].isdigit() or l[:1] == "-"])
    assert data.shape == (97, 3)
    # 97 samples over [0, 3] put x = r0 = 1.0 exactly on the grid
    on_ring = data[np.argmin(np.abs(data[:, 0] - 1.0))]
    assert on_ring[0] == 1.0
    assert on_ring[1] == numpy_fidelity(1.0)
    assert on_ring[2] == numpy_fidelity(10.0)
    assert np.all(data[:, 1:] >= 0.5 - 1e-12)


@pytest.mark.parametrize("xi,samples", [("1,2", MAX_SAMPLES), ("1,2,3,4,5", MAX_CELLS // 6)])
def test_fidelity_curve_takes_cells_up_to_the_cap(tmp_path, xi, samples):
    columns = 1 + len(xi.split(","))
    assert columns * samples == MAX_CELLS
    out = tmp_path / "curve.csv"
    assert run(CURVE + ["--xi", xi, "--samples", str(samples), "--out", str(out)])[0] == 0
    data = np.loadtxt(out, delimiter=",", comments="#", skiprows=5)
    # the exact ring radius is one more row when the uniform grid misses it
    assert data.shape in ((samples, columns), (samples + 1, columns))


def test_fidelity_curve_bad_xi_list():
    code, _, err = run(["fidelity-curve", "--r0", "1.0", "--ring-width", "0.5", "--xi", "1;2"])
    assert code == 1
    assert "--xi" in err


def test_fidelity_curve_preset_fig4(tmp_path):
    code, out, _ = run(["fidelity-curve", "--preset", "fig4", "--samples", "32", "--out-dir", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == [
        "fidelity_curve_r0-0.7_R-0.5.csv",
        "fidelity_curve_r0-1.0_R-0.5.csv",
        "fidelity_curve_r0-1.0_R-0.7.csv",
    ]
    for name in names:
        header = next(l for l in (tmp_path / name).read_text().splitlines() if l.startswith("x,"))
        assert header == "x,fidelity_xi_1.0,fidelity_xi_10.0"
    pairs = [("1.0", "0.5"), ("1.0", "0.7"), ("0.7", "0.5")]
    paths = [tmp_path / f"fidelity_curve_r0-{r0}_R-{w}.csv" for r0, w in pairs]
    assert out == "".join(f"{p}\n" for p in paths)
    for path, (r0, w) in zip(paths, pairs):
        head = [f"# r0={r0}", f"# ring_width={w}", "# xi_list=1.0,10.0", "# samples=32", header]
        assert path.read_text().splitlines()[:5] == head


def test_oracle_verify_json_passes():
    code, out, _ = run(["oracle-verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["dim"] == 30 and payload["photo_dim"] == 10
    names = {c["name"] for c in payload["checks"]}
    assert len(payload["checks"]) == 12
    assert {"eigen_residual_4", "photocurrent_p", "average_fidelity"} <= names
    assert all(c["value"] <= c["tolerance"] for c in payload["checks"])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv,code", [([], 0), (["--dim", "4"], 3)])
def test_oracle_verify_json_is_the_text_json_dumps_writes(argv, code):
    got, out, _ = run(["oracle-verify", "--json", *argv])
    assert got == code
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_oracle_verify_json_writes_edge_values_as_json_dumps(monkeypatch):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
    rows = [fock.CheckResult(f"row_{k}", v, 1e-8) for k, v in enumerate(values)]
    rows.append(fock.CheckResult('quote " and é', 0.0, 1e-8))
    monkeypatch.setattr(fock, "run_all_checks", lambda dim, photo_dim: rows)
    code, out, _ = run(["oracle-verify", "--json"])
    assert code == 3
    payload = {
        "dim": 30,
        "photo_dim": 10,
        "checks": [{"name": r.name, "value": r.value, "tolerance": r.tolerance, "passed": r.passed} for r in rows],
        "passed": False,
    }
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_oracle_verify_undersized_space_fails():
    code, out, err = run(["oracle-verify", "--dim", "4", "--photo-dim", "6"])
    assert code == 3
    assert "FAIL" in out
    assert err.startswith("failing:")


def test_oracle_verify_prints_each_warning_as_one_line():
    # unfiltered, the truncation warnings reach stderr without a source path, line number or source line
    code, _, err = run(["oracle-verify", "--dim", "4", "--photo-dim", "6"])
    assert code == 3
    *warned, last = err.splitlines()
    assert warned and all(line.startswith("warning: ") for line in warned)
    assert last.startswith("failing: ")
    assert ".py:" not in err


def test_teleport_narrow_waist_spdc_warns_in_one_line(tmp_path):
    (code, _, err), _ = teleport(tmp_path, complex_image(), {**BASE["spdc"], "n_shots": 1, "spdc_mode_waist": 50.0})
    assert code == 0
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: w_0/w_p = 0.25 is not small")


def test_teleport_error_drops_the_warnings_before_it(tmp_path):
    # the narrow-waist warning fires while the config is parsed, before its bad pitch is seen
    settings = {**BASE["spdc"], "n_shots": 1, "spdc_mode_waist": 50.0, "pitch": 0}
    (code, _, err), _ = teleport(tmp_path, complex_image(), settings)
    assert code == 1
    assert err == "error: pitch must be positive\n"


@pytest.mark.parametrize(
    "flag,value,name",
    [("--dim", "1", "dim"), ("--dim", "0", "dim"), ("--dim", "-3", "dim"), ("--photo-dim", "0", "photo_dim")],
)
def test_oracle_verify_rejects_tiny_dims(flag, value, name):
    code, _, err = run(["oracle-verify", flag, value])
    assert code == 1
    assert err == f"error: {name} must be at least 2, got {value}\n"


@pytest.mark.parametrize(
    "flag,name,cap", [("--dim", "dim", fock.MAX_DIM), ("--photo-dim", "photo_dim", fock.MAX_PHOTO_DIM)]
)
def test_oracle_verify_rejects_dims_above_cap(flag, name, cap):
    assert run(["oracle-verify", flag, str(cap + 1)]) == (1, "", f"error: {name} must be at most {cap}, got {cap + 1}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-verify", "--dim", "abc"],
        ["teleport", "--config", "c", "--seed", "x"],
        ["profile", "--bogus"],
        ["oracle-verify", "--tol", "average_fidelity=1e-2"],
        [],
    ],
    ids=["bad-int", "bad-seed", "unknown-flag", "removed-tol", "no-subcommand"],
)
def test_bad_arguments_exit_with_one_line(argv):
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the command-line path must not import it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, pixelport.cli; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_builds_no_format_table():
    # the number formatter's tables are built on its first call, from Python
    # integers, so a plain import pays for none of them and loads no number module
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, pixelport.cli, pixelport.imagefile as f; "
        "assert f._tables.cache_info().currsize == 0; "
        "assert not {'decimal', 'fractions'} & set(sys.modules), sorted({'decimal', 'fractions'} & set(sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```[^\n]*\n(.*?)^```$", README, flags=re.M | re.S)
README_COMMANDS = [
    line.split("#")[0].strip() for block in README_BLOCKS for line in block.splitlines() if line.startswith("pixelport ")
]


def test_readme_examples_cover_every_command():
    assert {shlex.split(line)[1] for line in README_COMMANDS} == {"teleport", "profile", "fidelity-curve", "oracle-verify"}


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_example_runs(tmp_path, line):
    # each fenced command runs as written, next to the run.cfg and input image the README shows
    (config,) = [block for block in README_BLOCKS if block.startswith("mode = ideal")]
    write_run(tmp_path, complex_image(), config)
    argv = shlex.split(line)[1:]
    assert run(argv, tmp_path)[0] == (3 if argv[-2:] == ["--dim", "4"] else 0)  # the undersized oracle fails


def test_help_states_the_commands_and_exit_codes_in_plain_text():
    text = build_parser().format_help()
    flat = " ".join(text.split())
    for command in ("teleport", "profile", "fidelity-curve", "oracle-verify"):
        assert command in text
    for code in ("0 success", "1 invalid", "2 unreadable", "3 oracle"):
        assert code in flat
    assert "``" not in text and ":func:" not in text


README_LIMITS = re.findall(r"([0-9]+)\s+\(`pixelport\.(\w+)\.([A-Z_]+)`\)", README)


def test_readme_limits_match_the_code():
    # each limit is written as <value> (`pixelport.<module>.<NAME>`), so a changed constant fails here
    assert {(module, name) for _, module, name in README_LIMITS} >= {
        ("channel", "MAX_SHOTS"),
        ("channel", "MAX_R"),
        ("cli", "MAX_SAMPLES"),
        ("cli", "MAX_CELLS"),
        ("fock", "MAX_DIM"),
        ("fock", "MAX_PHOTO_DIM"),
    }
    for value, module, name in README_LIMITS:
        assert float(value) == pkgutil.resolve_name(f"pixelport.{module}.{name}"), (module, name)


README_NAMES = sorted(set(re.findall(r"`(pixelport(?:\.\w+)+)", README)))


def test_readme_names_resolve():
    assert len(README_NAMES) > 10
    for dotted in README_NAMES:
        pkgutil.resolve_name(dotted)  # imports each submodule on the way, then getattr


README_API = README.partition("\n## Python API\n")[2].partition("\n## ")[0]
README_SIGNATURES = [
    " ".join(span.split()) for span in re.findall(r"`([^`]*)`", README_API) if re.fullmatch(r"[\w.]+\(.*\)", span, re.S)
]


def _bare_signature(fn):
    """inspect.signature(fn) as text, without annotations: names, order, the * marker and defaults."""
    sig = inspect.signature(fn)
    params = [param.replace(annotation=param.empty) for param in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_readme_signatures_match_the_code():
    # each `name(args)` of the Python API section is the function's signature
    # as written; a bare name is looked up in the __all__ of the package's modules
    assert len(README_SIGNATURES) > 10
    modules = [importlib.import_module(f"pixelport.{m.name}") for m in pkgutil.iter_modules(pixelport.__path__)]
    for written in README_SIGNATURES:
        name = written.partition("(")[0]
        if "." in name:
            fn = pkgutil.resolve_name(name)
        else:
            (fn,) = {getattr(m, name) for m in modules if name in getattr(m, "__all__", ())}
        assert written == name + _bare_signature(fn)
