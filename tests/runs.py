"""Test-only harness for whole `pixelport` runs: the base configs, one checked CLI call, and a run in its own directory.

``run`` calls ``cli.main`` in process and checks the exit contract the
README states, so no test can pass on a run that breaks it.  ``run_module``
runs ``pixelport.cli`` in a fresh interpreter, for checks that need default
warning filters or their own environment.
"""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from pixelport.cli import main
from pixelport.config import load_config
from pixelport.imagefile import write_image

SRC = Path(__file__).resolve().parents[1] / "src"
OUTPUTS = ("teleported.csv", "fidelity_map.csv", "summary.txt")  # a config's default output names

# the settings of a valid run for each squeezing source; a variant is BASE[...] plus changes
BASE = {
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


def config_text(settings, **changes) -> str:
    """Config text that reads in.csv under settings plus changes: one ``key = value`` line each, in order."""
    return "".join(f"{key} = {value}\n" for key, value in {"input": "in.csv", **settings, **changes}.items())


def complex_image(shape=(4, 6), seed=8):
    """Complex samples whose real and imaginary parts are standard normals, drawn in that order."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _outputs(argv):
    """The three output files of a teleport argv, as its config names them (the defaults if it cannot be loaded)."""
    if argv[:1] != ["teleport"]:
        return ()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the run itself reports them
            cfg = load_config(argv[argv.index("--config") + 1])
    except (ValueError, IndexError, OSError):
        return OUTPUTS
    return cfg.output_path, cfg.fidelity_map_path, cfg.summary_path


def _contents(paths):
    return [Path(path).read_bytes() if os.path.isfile(path) else None for path in paths]


def run(argv, cwd=None):
    """Run ``pixelport argv`` in process, in the directory cwd if given; returns (code, stdout, stderr).

    It checks the exit contract: the code is 0, 1, 2 or 3; on 1 or 2 stderr
    is one ``error:`` line; on 0 it holds only ``warning:`` lines; on 3
    ``warning:`` lines, then one ``failing:`` line; and a teleport run that
    exits 1 has changed none of its three outputs.  A ``--help`` exit
    (SystemExit) gives its code.  Warning filters are left as they are, so a
    warning the suite makes an error still fails the test.
    """
    here = os.getcwd()
    os.chdir(here if cwd is None else cwd)
    try:
        outputs = _outputs(argv)
        before = _contents(outputs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        if code == 1:
            changed = [path for path, old, new in zip(outputs, before, _contents(outputs)) if old != new]
    finally:
        os.chdir(here)
    out, err = out.getvalue(), err.getvalue()
    lines = err.splitlines()
    assert code in (0, 1, 2, 3), code
    assert err == "".join(line + "\n" for line in lines), err
    if code in (1, 2):
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        warned = lines[:-1] if code == 3 else lines
        assert all(line.startswith("warning: ") for line in warned), err
        assert code != 3 or (lines and lines[-1].startswith("failing: ")), err
    assert code != 1 or changed == [], changed  # "exits 1 with one line and writes nothing"
    return code, out, err


def write_run(run_dir, image, settings):
    """Write image as in.csv (an array, file bytes, or None for no file) and the config run.cfg in run_dir.

    settings is a dict, written by config_text, or config text or bytes,
    written as they are.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(image, bytes):
        (run_dir / "in.csv").write_bytes(image)
    elif image is not None:
        write_image(run_dir / "in.csv", image)
    if isinstance(settings, dict):
        settings = config_text(settings)
    (run_dir / "run.cfg").write_bytes(settings.encode() if isinstance(settings, str) else settings)


def teleport(run_dir, image, settings, *flags):
    """Teleport image under settings (see write_run) in run_dir; returns the run's (code, stdout, stderr) and outputs.

    The config names its files bare, so the echoed parameters are the same in
    every directory.  The outputs are the bytes of teleported.csv,
    fidelity_map.csv and summary.txt in run_dir, None for a missing one.
    """
    write_run(run_dir, image, settings)
    result = run(["teleport", "--config", "run.cfg", *flags], cwd=run_dir)
    return result, tuple(_contents(Path(run_dir) / name for name in OUTPUTS))


def run_module(cwd, *argv, options=(), env=None):
    """``python options -m pixelport.cli argv`` in a fresh interpreter, in cwd, with its default warning filters.

    env adds variables to this process's environment, which loses PYTHONWARNINGS.
    """
    env = {**{key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}, **(env or {})}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, *options, "-m", "pixelport.cli", *argv]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
