import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pixelport import channel, fock, spdc
from pixelport.cli import FIG3_PAIRS, MAX_CELLS, MAX_SAMPLES, _write_csv, build_parser, main
from pixelport.config import parse_config
from pixelport.grid import GridGeometry
from pixelport.imagefile import read_image, write_image

RING_CFG = """
mode = spdc
input = {inp}
output = {out}
fidelity_map = {fmap}
summary = {summary}
ring_r0 = 1.0
ring_width = 0.5
ring_xi = 1.5
n_shots = 50
seed = 3
"""


def write_ideal_config(tmp_path, r, name="run.cfg", **extra):
    settings = {
        "mode": "ideal",
        "input": tmp_path / "in.csv",
        "output": tmp_path / "out.csv",
        "fidelity_map": tmp_path / "fmap.csv",
        "summary": tmp_path / "summary.txt",
        "ideal_r": r,
    }
    settings.update(extra)
    cfg = tmp_path / name
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return cfg


def numpy_fidelity(r):
    return float((1.0 + np.tanh(np.array([r]))[0]) / 2.0)


def sample_image(shape=(4, 6), seed=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_teleport_ideal_analytic(tmp_path, capsys):
    # power-of-two pixel count: the mean of identical per-pixel
    # fidelities is then exact, so string equality below is safe
    img = sample_image((4, 8))
    write_image(tmp_path / "in.csv", img)
    cfg = write_ideal_config(tmp_path, 2.0)
    assert main(["teleport", "--config", str(cfg)]) == 0

    want_fid = numpy_fidelity(2.0)
    assert want_fid == pytest.approx((1 + math.tanh(2.0)) / 2, rel=1e-15)
    out_line = capsys.readouterr().out.strip()
    assert out_line == f"image_fidelity={want_fid!r}"

    got, encoding, comments = read_image(tmp_path / "out.csv")
    assert encoding == "re_im"
    assert np.array_equal(got, math.tanh(2.0) * img)
    assert "mode=ideal" in comments

    fmap_lines = (tmp_path / "fmap.csv").read_text().splitlines()
    assert any(line == f"# image_fidelity={want_fid!r}" for line in fmap_lines)
    data_rows = [l for l in fmap_lines if not l.startswith("#") and not l.startswith("col")]
    assert len(data_rows) == 4
    assert all(float(v) == want_fid for v in data_rows[0].split(","))

    summary = dict(
        line.split("=", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
    )
    assert summary["mode"] == "ideal"
    assert summary["n_shots"] == "0"
    assert summary["image_fidelity"] == repr(want_fid)


def test_teleport_strong_squeezing_round_trip(tmp_path):
    img = sample_image((3, 3), seed=9)
    write_image(tmp_path / "in.csv", img)
    cfg = write_ideal_config(tmp_path, 20.0)
    assert main(["teleport", "--config", str(cfg)]) == 0
    got, _, _ = read_image(tmp_path / "out.csv")
    assert np.allclose(got, img, rtol=0, atol=1e-8)


def run_ring(tmp_path, monkeypatch, label, extra_args=()):
    # bare filenames under a per-run cwd, so the emitted parameter
    # comments (which echo the paths) are identical across runs
    sub = tmp_path / label
    sub.mkdir()
    monkeypatch.chdir(sub)
    write_image(sub / "in.csv", sample_image())
    cfg = sub / "run.cfg"
    cfg.write_text(RING_CFG.format(inp="in.csv", out="out.csv", fmap="fmap.csv", summary="summary.txt"))
    assert main(["teleport", "--config", str(cfg), *extra_args]) == 0
    return (sub / "out.csv").read_bytes(), (sub / "fmap.csv").read_bytes()


def test_teleport_stochastic_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    first = run_ring(tmp_path, monkeypatch, "a")
    second = run_ring(tmp_path, monkeypatch, "b")
    assert first == second
    capsys.readouterr()


def test_teleport_block_size_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    default = run_ring(tmp_path, monkeypatch, "default")
    # blocks of one, three and five pixels over the 24-pixel image (n_shots = 50)
    for pixels in (1, 3, 5):
        monkeypatch.setattr(channel, "_BLOCK_NORMALS", 2 * 50 * pixels)
        assert run_ring(tmp_path, monkeypatch, f"block{pixels}") == default
    capsys.readouterr()


def test_teleport_seed_and_shots_overrides(tmp_path, capsys):
    write_image(tmp_path / "in.csv", sample_image())
    cfg = write_ideal_config(tmp_path, 1.0)
    assert main(["teleport", "--config", str(cfg), "--seed", "7", "--shots", "25"]) == 0
    summary = dict(
        line.split("=", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
    )
    assert summary["seed"] == "7"
    assert summary["n_shots"] == "25"
    assert main(["teleport", "--config", str(cfg), "--shots", "-1"]) == 1
    assert main(["teleport", "--config", str(cfg), "--shots", str(channel.MAX_SHOTS + 1)]) == 1
    cap = channel.MAX_SHOTS
    assert capsys.readouterr().err.endswith(f"error: n_shots must be at most {cap}, got {cap + 1}\n")


def test_parser_carries_no_flags_between_calls(tmp_path, capsys):
    write_image(tmp_path / "in.csv", sample_image())
    cfg = write_ideal_config(tmp_path, 1.0, seed=11, n_shots=2)
    assert main(["teleport", "--config", str(cfg), "--seed", "5", "--shots", "3", "--raw-plane", "--json"]) == 0
    first = json.loads((tmp_path / "summary.txt").read_text())
    assert (first["seed"], first["n_shots"], first["raw_plane"]) == ("5", "3", "true")
    # the same process and parser, no flags: the config's values, the upright plane, key=value lines
    assert main(["teleport", "--config", str(cfg)]) == 0
    text = (tmp_path / "summary.txt").read_text()
    summary = dict(line.split("=", 1) for line in text.splitlines())
    assert (summary["seed"], summary["n_shots"], summary["raw_plane"]) == ("11", "2", "false")
    capsys.readouterr()


def run_captured(capsys, argv):
    """(exit code, stdout, stderr) of one main call; --help exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_behaves_as_fresh(capsys):
    assert build_parser() is build_parser()
    calls = (["oracle-verify", "--dim", "abc"], ["oracle-verify", "--json"], ["--help"])
    reused = [run_captured(capsys, argv) for argv in calls]
    assert [code for code, _, _ in reused] == [1, 0, 0]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_captured(capsys, argv))
    assert reused == fresh


def test_teleport_rejects_negative_seed_flag(tmp_path, capsys):
    write_image(tmp_path / "in.csv", sample_image())
    cfg = write_ideal_config(tmp_path, 1.0, n_shots=1)
    assert main(["teleport", "--config", str(cfg), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


BASE_SETTINGS = {
    "ideal": {"mode": "ideal", "ideal_r": 1.0},
    "ring": {"mode": "spdc", "ring_r0": 1.0, "ring_width": 0.5, "ring_xi": 1.5},
    "spdc": {
        "mode": "spdc",
        "spdc_pump_waist": 200.0,
        "spdc_mode_waist": 15.0,
        "spdc_length": 5.0,
        "spdc_pump_k": 10.0,
        "spdc_signal_k": 5.05,
        "spdc_angle": 0.1,
        "spdc_focal": 100.0,
        "spdc_xi": 1.0,
    },
}


def _run_teleport(tmp_path, mode, n_shots=1, image=None, **changes):
    """Teleport image (default sample_image()) with BASE_SETTINGS[mode] plus changes; returns the exit code."""
    write_image(tmp_path / "in.csv", sample_image() if image is None else image)
    settings = {
        **BASE_SETTINGS[mode],
        "input": tmp_path / "in.csv",
        "output": tmp_path / "out.csv",
        "fidelity_map": tmp_path / "fmap.csv",
        "summary": tmp_path / "summary.txt",
        "n_shots": n_shots,
        **changes,
    }
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return main(["teleport", "--config", str(cfg)])


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
def test_teleport_bad_numbers_exit_cleanly(tmp_path, capsys, mode, key, value):
    assert _run_teleport(tmp_path, mode, **{"origin_y": 0.0, "origin_x": 0.0, key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_teleport_pitch_overflow_exits_cleanly(tmp_path, capsys):
    # finite samples whose amplitudes samples * pitch overflow float64
    write_image(tmp_path / "in.csv", np.array([[1e308, 1e308], [-1e308, 1e308j]]))
    cfg = write_ideal_config(tmp_path, 1.0, pitch=4.0)
    assert main(["teleport", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pitch")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


def test_teleport_shot_mean_overflow_exits_cleanly(tmp_path, capsys):
    # samples * pitch is finite, but summing three shots of ~1.7e308 is not
    write_image(tmp_path / "in.csv", np.full((2, 2), 1e308, dtype=complex))
    cfg = write_ideal_config(tmp_path, 1.0, pitch=1.7, n_shots=3)
    assert main(["teleport", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
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
def test_teleport_rings_beyond_float64_exit_cleanly(tmp_path, capsys, mode, changes):
    code = _run_teleport(tmp_path, mode, n_shots=0, **changes)
    err = capsys.readouterr().err
    if mode == "spdc":
        assert code == 1
        assert err.startswith("error: the spdc parameters put the ring") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]
    else:
        # the ring lies far from every pixel (or is too thin to reach a pixel centre): sinc's limit 0
        assert code == 0 and err == ""
        got, _, _ = read_image(tmp_path / "out.csv")
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
def test_teleport_never_writes_an_image_its_reader_refuses(tmp_path, capsys, pitch, n_shots, image):
    if image is not None:
        write_image(tmp_path / "in.csv", image)
        cfg = write_ideal_config(tmp_path, 20.0, pitch=pitch, n_shots=n_shots)
        code = main(["teleport", "--config", str(cfg)])
    else:
        code = _run_teleport(tmp_path, "ideal", n_shots=n_shots, pitch=pitch)
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: pitch = {float(pitch)!r} makes the output samples amplitudes / pitch overflow\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


def test_teleport_largest_r_runs_stochastic(tmp_path, capsys):
    img = sample_image((16, 16))
    write_image(tmp_path / "in.csv", img)
    cfg = write_ideal_config(tmp_path, channel.MAX_R, n_shots=1)
    assert main(["teleport", "--config", str(cfg)]) == 0
    got, _, _ = read_image(tmp_path / "out.csv")
    # noise of standard deviation e^-r / sqrt(2) per quadrature, and rounding
    assert np.all(np.abs(got - img) <= 8.0 * math.exp(-channel.MAX_R) + 4.0 * np.finfo(float).eps * np.abs(img))
    capsys.readouterr()


def test_teleport_json_summary(tmp_path, capsys):
    write_image(tmp_path / "in.csv", sample_image((4, 8)))
    cfg = write_ideal_config(tmp_path, 0.5)
    assert main(["teleport", "--config", str(cfg), "--json"]) == 0
    summary = json.loads((tmp_path / "summary.txt").read_text())
    assert summary["mode"] == "ideal"
    assert float(summary["image_fidelity"]) == numpy_fidelity(0.5)
    assert summary["output"].endswith("out.csv")
    capsys.readouterr()


def test_teleport_raw_plane_reflects(tmp_path, capsys):
    img = sample_image((3, 5))
    write_image(tmp_path / "in.csv", img)
    cfg = write_ideal_config(tmp_path, 2.0)
    assert main(["teleport", "--config", str(cfg), "--raw-plane"]) == 0
    got, _, comments = read_image(tmp_path / "out.csv")
    assert np.array_equal(got, (math.tanh(2.0) * img)[::-1, ::-1])
    assert "raw_plane=true" in comments
    capsys.readouterr()


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
def test_teleport_echoes_run_parameters_in_order(tmp_path, capsys, mode):
    assert _run_teleport(tmp_path, mode, n_shots=2) == 0
    capsys.readouterr()
    params = [
        f"mode={BASE_SETTINGS[mode]['mode']}",
        *SOURCE_ECHO[mode],
        "seed=0",
        "n_shots=2",
        "width=6",
        "height=4",
        "pitch=1.0",
        "origin_x=-3.0",
        "origin_y=-2.0",
        "raw_plane=false",
        f"input={tmp_path / 'in.csv'}",
    ]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[: len(params)] == params
    keys = [line.partition("=")[0] for line in summary[len(params) :]]
    assert keys == ["image_fidelity", "output", "fidelity_map"]
    assert summary[-2:] == [f"output={tmp_path / 'out.csv'}", f"fidelity_map={tmp_path / 'fmap.csv'}"]
    assert read_image(tmp_path / "out.csv")[2] == params
    fmap_comments = [line[2:] for line in (tmp_path / "fmap.csv").read_text().splitlines() if line.startswith("# ")]
    assert fmap_comments == params + [summary[len(params)]]


HUGE_PITCH = "1.7976931348623157e308"
# the centred grid's corner -0.5 * width * HUGE_PITCH overflows; samples * pitch does not
ROW_IMAGE = np.array([[0.5, 0.25, 0.125]], dtype=complex)


def test_teleport_origin_overflow_exits_cleanly(tmp_path, capsys):
    write_image(tmp_path / "in.csv", ROW_IMAGE)
    cfg = write_ideal_config(tmp_path, 1.0, pitch=HUGE_PITCH)
    assert main(["teleport", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
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
def test_teleport_pixel_centers_past_float64_exit_cleanly(tmp_path, capsys, grid):
    assert _run_teleport(tmp_path, "ring", n_shots=0, image=QUARTER_IMAGE, **grid) == 1
    err = capsys.readouterr().err
    assert err == "error: pixel centers must be finite, got origin_x + (2 - 0.5) * pitch = inf\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "run.cfg"]


def test_teleport_ideal_huge_pitch_computes_no_centers(tmp_path, capsys):
    # the centred corner -pitch is finite, and an ideal run never asks for the pixel centres
    write_image(tmp_path / "in.csv", QUARTER_IMAGE)
    cfg = write_ideal_config(tmp_path, 1.0, pitch=HUGE_PITCH)
    assert main(["teleport", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    got, _, _ = read_image(tmp_path / "out.csv")
    np.testing.assert_array_equal(got, np.tanh(1.0) * (QUARTER_IMAGE * float(HUGE_PITCH)) / float(HUGE_PITCH))


def test_teleport_reports_the_corner_before_the_amplitudes(tmp_path, capsys):
    # 4 * HUGE_PITCH overflows too, but the grid is built, and its corner checked, first
    write_image(tmp_path / "in.csv", ROW_IMAGE * 8)
    cfg = write_ideal_config(tmp_path, 1.0, pitch=HUGE_PITCH)
    assert main(["teleport", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: grid origin must be finite")


@pytest.mark.parametrize("in_config", [True, False], ids=["config-key", "shots-flag"])
def test_teleport_checks_shots_cap_before_reading_input(tmp_path, capsys, in_config):
    # in.csv does not exist: an unreadable input would exit 2
    cap = channel.MAX_SHOTS
    cfg = write_ideal_config(tmp_path, 1.0, **({"n_shots": cap + 1} if in_config else {}))
    flags = [] if in_config else ["--shots", str(cap + 1)]
    assert main(["teleport", "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"error: n_shots must be at most {cap}, got {cap + 1}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# summary keys that describe the run's outputs rather than configure it
NOT_CONFIG_KEYS = ("width", "height", "raw_plane", "image_fidelity", "output", "fidelity_map")


def replay_config(summary_path) -> str:
    """The key=value summary at summary_path as config text, without the keys no config takes."""
    lines = Path(summary_path).read_text().splitlines()
    items = (line.partition("=") for line in lines)
    return "".join(f"{k} = {v}\n" for k, _, v in items if k not in NOT_CONFIG_KEYS)


@pytest.mark.parametrize("mode", sorted(BASE_SETTINGS))
@pytest.mark.parametrize(
    "grid",
    [{}, {"pitch": 0.5, "origin_x": -0.75, "origin_y": 0.25}, {"pitch": HUGE_PITCH}],
    ids=["default-grid", "explicit-grid", "huge-pitch"],
)
def test_summary_replays_as_config(tmp_path, capsys, monkeypatch, mode, grid):
    write_image(tmp_path / "in.csv", ROW_IMAGE)
    first = tmp_path / "first"
    first.mkdir()
    monkeypatch.chdir(first)
    cfg = first / "run.cfg"
    settings = {**BASE_SETTINGS[mode], **grid, "input": tmp_path / "in.csv"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    flags = ["--shots", "2", "--seed", "3"]
    if main(["teleport", "--config", str(cfg), *flags]) == 1:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert [p.name for p in first.iterdir()] == ["run.cfg"]
        return
    replay = tmp_path / "replay"
    replay.mkdir()
    monkeypatch.chdir(replay)
    text = replay_config(first / "summary.txt")
    parse_config(text)
    (replay / "run.cfg").write_text(text)
    assert main(["teleport", "--config", str(replay / "run.cfg"), *flags]) == 0
    capsys.readouterr()
    for name in ("teleported.csv", "fidelity_map.csv"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


def test_teleport_missing_config(tmp_path, capsys):
    assert main(["teleport", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_teleport_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ideal\ninput = x\nideal_r = 1\nwavelength = 5\n")
    assert main(["teleport", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_teleport_missing_input_image(tmp_path, capsys):
    cfg = write_ideal_config(tmp_path, 1.0)
    assert main(["teleport", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_teleport_malformed_input_image(tmp_path, capsys):
    (tmp_path / "in.csv").write_text("not-an-image\n1 1\nre_im\n0.0,0.0\n")
    cfg = write_ideal_config(tmp_path, 1.0)
    assert main(["teleport", "--config", str(cfg)]) == 2
    assert "bad magic" in capsys.readouterr().err


def test_teleport_loose_dimension_line_exits_2(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    inp.write_text("pixelport-image-v1\n1_0 1\nre_im\n0.0,0.0\n", encoding="utf-8")
    cfg = write_ideal_config(tmp_path, 1.0)
    assert main(["teleport", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {inp}: bad dimension line '1_0 1'\n"


def test_teleport_undecodable_image(tmp_path, capsys):
    (tmp_path / "in.csv").write_bytes(b"\xff\xfe\x00garbage")
    cfg = write_ideal_config(tmp_path, 1.0)
    assert main(["teleport", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and len(err.splitlines()) == 1


def test_teleport_header_only_image_exits_with_one_line(tmp_path, capsys):
    # numpy's reader warns on an empty payload, so the reader must never hand it one
    inp = tmp_path / "in.csv"
    inp.write_text("pixelport-image-v1\n2 2\nre_im\n# a comment\n\n")
    cfg = write_ideal_config(tmp_path, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["teleport", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {inp}: expected 2 data rows, found 0\n"


def test_every_output_is_written_as_utf8(tmp_path):
    # a non-ASCII input path is echoed into "# input=...", so no writer may fall back to the locale's encoding
    write_image(tmp_path / "in é.csv", sample_image())
    (tmp_path / "run.cfg").write_text("mode = ideal\ninput = in é.csv\nideal_r = 1.0\nn_shots = 1\n", encoding="utf-8")
    cmd = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "pixelport.cli"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    runs = (
        ["teleport", "--config", "run.cfg"],
        ["teleport", "--config", "run.cfg", "--json"],
        ["profile", "--preset", "fig3", "--out-dir", "curves é"],
        ["fidelity-curve", "--preset", "fig4", "--out-dir", "curves é"],
    )
    for argv in runs:
        proc = subprocess.run(cmd + argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    _, _, comments = read_image(tmp_path / "teleported.csv")
    assert "input=in é.csv" in comments
    assert json.loads((tmp_path / "summary.txt").read_text(encoding="utf-8"))["input"] == "in é.csv"
    assert "input=in é.csv" in (tmp_path / "fidelity_map.csv").read_text(encoding="utf-8")
    assert len(list((tmp_path / "curves é").glob("*.csv"))) == 6


def test_teleport_undecodable_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"mode = ideal\n# \xff\n")
    assert main(["teleport", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and len(err.splitlines()) == 1


@pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])
def test_teleport_rejects_cells_numpy_does_not_parse(tmp_path, capsys, cell):
    # float() takes underscores and non-ASCII digits; the image reader does not
    inp = tmp_path / "in.csv"
    inp.write_text(f"pixelport-image-v1\n2 2\nre_im\n# note\n1.0,0.0,0.0,0.0\n0.0,{cell},0.0,0.0\n", encoding="utf-8")
    cfg = write_ideal_config(tmp_path, 1.0)
    assert main(["teleport", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {inp}:6: non-numeric cell\n"


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


def write_ring_config(tmp_path, side):
    # the benchmark's ring on a side x side unit-pitch image: r0 = side / 4, width side / 16
    cfg = write_ideal_config(tmp_path, 1.0)
    text = cfg.read_text().replace("mode = ideal", "mode = spdc").replace("ideal_r = 1.0", "")
    cfg.write_text(text + f"ring_r0 = {side / 4}\nring_width = {side / 16}\nring_xi = 1.5\n")
    return cfg


def test_write_csv_matches_reference_on_ring_fidelity_map(tmp_path, capsys):
    write_image(tmp_path / "in.csv", sample_image((64, 64)))
    cfg = write_ring_config(tmp_path, 64)
    assert main(["teleport", "--config", str(cfg)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "fmap.csv").read_text().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    values = np.array([[float(c) for c in line.split(",")] for line in lines[len(comments) + 1 :]])
    assert values.shape == (64, 64)
    # the ring repeats values, so the map exercises the formatting of repeats
    assert len(np.unique(values)) < values.size // 4
    assert (tmp_path / "fmap.csv").read_bytes() == _reference_csv(comments, lines[len(comments)], values)


def traced_peak(call):
    """The largest traced allocation total while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_holds_few_map_sized_arrays(tmp_path):
    # the dedupe holds an argsort, the sorted patterns and int32 indices, not np.unique's int64 copies
    ring = spdc.RingParams(r0=64.0, R=16.0, Xi=1.5)  # the ring of write_ring_config(tmp_path, 256)
    fid = channel.average_fidelity(spdc.profile_for_grid(GridGeometry(256, 256), ring).r)
    assert traced_peak(lambda: _write_csv(tmp_path / "again.csv", [], "h", fid)) <= 3 * fid.nbytes


def test_write_csv_holds_no_string_per_value_of_a_distinct_map(tmp_path):
    # a shot map repeats no value, so its rows are formatted as they come: the
    # call holds the sort's arrays and one row's text, not a string per value
    fid = np.random.default_rng(5).random((256, 256))
    assert traced_peak(lambda: _write_csv(tmp_path / "shots.csv", [], "h", fid)) <= 3 * fid.nbytes


@pytest.mark.parametrize("extra", [0, 1], ids=["half-distinct-table", "over-half-distinct-rows"])
def test_write_csv_matches_reference_on_both_sides_of_the_row_rule(tmp_path, extra):
    # Half the cells distinct keeps the table of distinct values; one more
    # distinct cell writes rows.  Both maps hold -0.0 apart from 0.0.  The peak
    # tells the paths apart: the table holds a string per distinct value.
    rng = np.random.default_rng(11)
    size = 256 * 256
    distinct = size // 2 + extra
    values = np.concatenate(([-0.0, 0.0], rng.random(distinct - 2)))
    cells = np.concatenate((values, values[rng.integers(0, distinct, size - distinct)]))
    rows = rng.permutation(cells).reshape(256, 256)
    assert np.unique(rows.view(np.int64)).size == distinct
    path = tmp_path / "map.csv"
    peak = traced_peak(lambda: _write_csv(path, ["a=1"], "h", rows))
    assert path.read_bytes() == _reference_csv(["a=1"], "h", rows)
    assert {"-0.0", "0.0"} <= set(path.read_text().replace("\n", ",").split(","))
    assert (peak <= 3 * rows.nbytes) == bool(extra)


def test_write_csv_matches_reference_on_curve_preset_at_the_cap(tmp_path, capsys):
    # every curve column is distinct valued, so the preset files take the row path
    assert main(["fidelity-curve", "--preset", "fig4", "--samples", str(MAX_SAMPLES), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == len(FIG3_PAIRS)
    for path in paths:
        lines = path.read_text().splitlines()
        comments = [line[2:] for line in lines[:4]]
        values = np.loadtxt(path, delimiter=",", skiprows=5)
        assert values.shape[0] >= MAX_SAMPLES
        assert path.read_bytes() == _reference_csv(comments, lines[4], values)


@pytest.mark.parametrize("flags", [[], ["--raw-plane"]], ids=["upright", "raw-plane"])
def test_teleport_holds_only_live_arrays(tmp_path, capsys, flags):
    # An analytic ring run drops each array once no later stage reads it, the
    # ring profile takes two maps' worth of buffers, and the raw plane is a
    # reversed view, not a copy.  So its traced peak is the channel's own
    # arrays, the complex image in and out, the squeezing map and the
    # fidelity map (3x the complex image's bytes), and a little more.
    img = sample_image((256, 256), seed=35)
    write_image(tmp_path / "in.csv", img)
    cfg = write_ring_config(tmp_path, 256)
    build_parser()  # built once per process, not per run
    tracemalloc.start()
    try:
        assert main(["teleport", "--config", str(cfg), *flags]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 3.25 * img.nbytes


def test_teleport_unwritable_output(tmp_path, capsys):
    write_image(tmp_path / "in.csv", sample_image())
    cfg = write_ideal_config(tmp_path, 1.0, output=tmp_path / "missing_dir" / "out.csv")
    assert main(["teleport", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_profile_single_ring(tmp_path, capsys):
    out = tmp_path / "ring.csv"
    code = main(
        ["profile", "--r0", "1.0", "--ring-width", "0.5", "--xi", "1.5", "--samples", "64", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    assert lines[:5] == ["# r0=1.0", "# ring_width=0.5", "# xi=1.5", "# samples=64", "x,eta,eta_sq_norm"]
    data = np.array([[float(c) for c in l.split(",")] for l in lines if not l.startswith("#") and "," in l and not l.startswith("x")])
    assert data.shape[1] == 3 and data.shape[0] in (64, 65)
    # normalized curve peaks at exactly 1 on the ring radius
    peak = np.argmax(data[:, 2])
    assert data[peak, 2] == 1.0
    assert data[peak, 0] == 1.0


def test_profile_requires_geometry(capsys):
    assert main(["profile", "--r0", "1.0"]) == 1
    assert "ring-width" in capsys.readouterr().err


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
    ],
)
def test_curve_commands_reject_bad_flags(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out-dir", "plots"]) == 1
    err = capsys.readouterr().err
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
def test_curves_beyond_float64_are_finite(tmp_path, capsys, argv):
    out = tmp_path / "curve.csv"
    assert main(argv + ["--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", comments="#", skiprows=5)
    assert np.all(np.isfinite(data))
    # the exact ring radius keeps its unit peak; away from it u overflows and sinc is at its limit 0
    on_ring = data[data[:, 0] == float(argv[2])]
    if argv[0] == "profile":
        assert on_ring[:, 1:].tolist() == [[1.0, 1.0]]
    else:
        assert on_ring[:, 1:].tolist() == [[numpy_fidelity(1.0), numpy_fidelity(10.0)]]
        assert np.all(data[:, 1:] >= 0.5)
    capsys.readouterr()


def test_profile_preset_fig3(tmp_path, capsys):
    assert main(["profile", "--preset", "fig3", "--samples", "32", "--out-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == [
        "ring_profile_r0-0.7_R-0.5.csv",
        "ring_profile_r0-1.0_R-0.5.csv",
        "ring_profile_r0-1.0_R-0.7.csv",
    ]
    pairs = [("1.0", "0.5"), ("1.0", "0.7"), ("0.7", "0.5")]
    paths = [tmp_path / f"ring_profile_r0-{r0}_R-{w}.csv" for r0, w in pairs]
    assert capsys.readouterr().out == "".join(f"{p}\n" for p in paths)
    for path, (r0, w) in zip(paths, pairs):
        head = [f"# r0={r0}", f"# ring_width={w}", "# xi=1.0", "# samples=32", "x,eta,eta_sq_norm"]
        assert path.read_text().splitlines()[:5] == head


def test_fidelity_curve_values(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
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
    capsys.readouterr()


@pytest.mark.parametrize("xi,samples", [("1,2", MAX_SAMPLES), ("1,2,3,4,5", MAX_CELLS // 6)])
def test_fidelity_curve_takes_cells_up_to_the_cap(tmp_path, capsys, xi, samples):
    columns = 1 + len(xi.split(","))
    assert columns * samples == MAX_CELLS
    out = tmp_path / "curve.csv"
    assert main(CURVE + ["--xi", xi, "--samples", str(samples), "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", comments="#", skiprows=5)
    # the exact ring radius is one more row when the uniform grid misses it
    assert data.shape in ((samples, columns), (samples + 1, columns))
    capsys.readouterr()


def test_fidelity_curve_bad_xi_list(capsys):
    assert main(["fidelity-curve", "--r0", "1.0", "--ring-width", "0.5", "--xi", "1;2"]) == 1
    assert "--xi" in capsys.readouterr().err


def test_fidelity_curve_preset_fig4(tmp_path, capsys):
    assert main(["fidelity-curve", "--preset", "fig4", "--samples", "32", "--out-dir", str(tmp_path)]) == 0
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
    assert capsys.readouterr().out == "".join(f"{p}\n" for p in paths)
    for path, (r0, w) in zip(paths, pairs):
        head = [f"# r0={r0}", f"# ring_width={w}", "# xi_list=1.0,10.0", "# samples=32", header]
        assert path.read_text().splitlines()[:5] == head


def test_oracle_verify_json_passes(capsys):
    assert main(["oracle-verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["dim"] == 30 and payload["photo_dim"] == 10
    names = {c["name"] for c in payload["checks"]}
    assert len(payload["checks"]) == 12
    assert {"eigen_residual_4", "photocurrent_p", "average_fidelity"} <= names
    assert all(c["value"] <= c["tolerance"] for c in payload["checks"])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv,code", [([], 0), (["--dim", "4"], 3)])
def test_oracle_verify_json_is_the_text_json_dumps_writes(capsys, argv, code):
    assert main(["oracle-verify", "--json", *argv]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_oracle_verify_json_writes_edge_values_as_json_dumps(monkeypatch, capsys):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
    rows = [fock.CheckResult(f"row_{k}", v, 1e-8) for k, v in enumerate(values)]
    rows.append(fock.CheckResult('quote " and é', 0.0, 1e-8))
    monkeypatch.setattr(fock, "run_all_checks", lambda dim, photo_dim: rows)
    assert main(["oracle-verify", "--json"]) == 3
    payload = {
        "dim": 30,
        "photo_dim": 10,
        "checks": [{"name": r.name, "value": r.value, "tolerance": r.tolerance, "passed": r.passed} for r in rows],
        "passed": False,
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_oracle_verify_undersized_space_fails(capsys):
    assert main(["oracle-verify", "--dim", "4", "--photo-dim", "6"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert captured.err.startswith("failing:")


def test_oracle_verify_prints_each_warning_as_one_line(capsys):
    # unfiltered, the truncation warnings reach stderr without a source path, line number or source line
    assert main(["oracle-verify", "--dim", "4", "--photo-dim", "6"]) == 3
    err = capsys.readouterr().err
    *warned, last = err.splitlines()
    assert warned and all(line.startswith("warning: ") for line in warned)
    assert last.startswith("failing: ")
    assert ".py:" not in err


def test_teleport_narrow_waist_spdc_warns_in_one_line(tmp_path, capsys):
    assert _run_teleport(tmp_path, "spdc", spdc_mode_waist=50.0) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: w_0/w_p = 0.25 is not small")


def test_teleport_error_drops_the_warnings_before_it(tmp_path, capsys):
    # the narrow-waist warning fires while the config is parsed, before its bad pitch is seen
    assert _run_teleport(tmp_path, "spdc", spdc_mode_waist=50.0, pitch=0) == 1
    assert capsys.readouterr().err == "error: pitch must be positive\n"


@pytest.mark.parametrize(
    "flag,value,name",
    [("--dim", "1", "dim"), ("--dim", "0", "dim"), ("--dim", "-3", "dim"), ("--photo-dim", "0", "photo_dim")],
)
def test_oracle_verify_rejects_tiny_dims(capsys, flag, value, name):
    assert main(["oracle-verify", flag, value]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {name} must be at least 2, got {value}\n"


@pytest.mark.parametrize(
    "flag,name,cap", [("--dim", "dim", fock.MAX_DIM), ("--photo-dim", "photo_dim", fock.MAX_PHOTO_DIM)]
)
def test_oracle_verify_rejects_dims_above_cap(capsys, flag, name, cap):
    assert main(["oracle-verify", flag, str(cap + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be at most {cap}, got {cap + 1}\n"


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
def test_bad_arguments_exit_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "usage:" not in captured.err


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


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```[^\n]*\n(.*?)^```$", README, flags=re.M | re.S)
README_COMMANDS = [
    line.split("#")[0].strip() for block in README_BLOCKS for line in block.splitlines() if line.startswith("pixelport ")
]


def test_readme_examples_cover_every_command():
    assert {shlex.split(line)[1] for line in README_COMMANDS} == {"teleport", "profile", "fidelity-curve", "oracle-verify"}


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_example_runs(tmp_path, monkeypatch, capsys, line):
    # each fenced command runs as written, next to the run.cfg and input image the README shows
    (config,) = [block for block in README_BLOCKS if block.startswith("mode = ideal")]
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(config, encoding="utf-8")
    write_image("in.csv", sample_image())
    argv = shlex.split(line)[1:]
    assert main(argv) == (3 if argv[-2:] == ["--dim", "4"] else 0)  # the undersized oracle fails
    capsys.readouterr()


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
