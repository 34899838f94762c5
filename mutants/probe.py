"""Mutation probe: each entry of MUTANTS changes one spot of src/pixelport, and its test files must tell.

Run ``python mutants/probe.py`` from anywhere; it finds the repository from
its own path and needs only the standard library, pytest and the test
dependencies.  For each entry it copies ``src/``, ``tests/``,
``pyproject.toml`` (whose ``error::RuntimeWarning`` filter the tests rely
on), ``README.md`` and ``perfbench/`` (read by tests) into a temporary
directory, checks that the entry's test files pass there unmutated (once per
set of files), replaces the entry's old text, which must occur exactly once,
and runs ``python -m pytest -q -x`` on the test files.  A failing run kills
the mutant.  A mutant listed as surviving must pass, and its reason says why
those tests cannot tell it apart.  The probe prints one line per entry and exits
1 if any verdict differs from the list, or if a copy cannot be mutated or
fails unmutated.  Entries run one at a time, each under TIMEOUT seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md", "perfbench")
TIMEOUT = 600  # seconds per pytest run


class Mutant(NamedTuple):
    module: str  # a file of src/pixelport
    old: str  # text that occurs exactly once in it
    new: str
    tests: tuple[str, ...]  # test files, relative to the repository
    survives: str | None = None  # None: the tests kill it; else why they cannot


E2E = ("tests/test_end_to_end.py",)
CLI = ("tests/test_cli.py",)
FOCK = ("tests/test_fock.py",)
SPDC = ("tests/test_spdc.py",)
CHANNEL = ("tests/test_channel.py",)

MUTANTS = [
    # the image reader and writer
    Mutant("imagefile.py", "for step in (10, 100):", "for step in (10,):", E2E),
    Mutant("imagefile.py", "ends = stops - cr", "ends = stops", E2E),
    Mutant(
        "imagefile.py",
        "start = len(codecs.BOM_UTF8) if fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0",
        "start = 0",
        E2E,
    ),
    Mutant("imagefile.py", "np.loadtxt(itertools.chain([first], rows),", "np.loadtxt(rows,", E2E),
    Mutant("imagefile.py", "start, last = at + fault.start,", "start, last = fault.start,", E2E),
    Mutant("imagefile.py", "if eol != 10 and eol != 13:", "if False:", ("tests/test_properties.py",)),
    Mutant(
        "imagefile.py",
        'buf.rfind(b"\\r", lf + 1, end - 1)) + 1',
        'buf.rfind(b"\\r", lf + 1, end)) + 1',
        ("tests/test_imagefile.py",),
    ),
    # _fmt writes the echoed parameters and the summary, never a data row: the end-to-end tests,
    # which compare runs of the same code, cannot see it, and the echo tests can
    Mutant(
        "imagefile.py",
        "def _fmt(x: float) -> str:\n    return repr(float(x))",
        'def _fmt(x: float) -> str:\n    return f"{float(x):.17g}"',
        E2E,
        survives="no data row changes, and each run is compared with another run of the same code",
    ),
    Mutant(
        "imagefile.py",
        "def _fmt(x: float) -> str:\n    return repr(float(x))",
        'def _fmt(x: float) -> str:\n    return f"{float(x):.17g}"',
        CLI,
    ),
    Mutant(
        "imagefile.py",
        'buf.rfind(b"\\r", lf + 1, end - 1)) + 1',
        "-1) + 1",
        E2E,
        survives="without the bare-\\r cut a file of bare-\\r lines is read in one block: the same values,"
        " errors and outputs (test_imagefile.py's bare-\\r memory bound kills it)",
    ),
    Mutant(
        "imagefile.py",
        "return (cr if cr >= 0 and cr != lf - 1 else lf) + 1",
        "return (cr if cr >= 0 else lf) + 1",
        E2E + ("tests/test_imagefile.py",),
        survives="a header or comment line cut at the \\r of its CRLF leaves its \\n as a blank line,"
        " which the text route skips",
    ),
    # the command line
    Mutant("cli.py", "decompose(samples, geometry, out=samples)", "decompose(samples, geometry)", CLI),
    Mutant("cli.py", "n_shots=cfg.n_shots, out=(field.amplitudes, profile.r)", "n_shots=cfg.n_shots", CLI),
    Mutant("cli.py", "synthesize(out_field, out=out_field.amplitudes)", "synthesize(out_field)", CLI),
    Mutant(
        "cli.py",
        "samples, fid = samples[::-1, ::-1], fid[::-1, ::-1]",
        "samples, fid = samples[::-1], fid[::-1, ::-1]",
        E2E,
    ),
    Mutant("cli.py", "text = float.__repr__(x)", 'text = f"{x:.17g}"', CLI),
    Mutant(
        "cli.py",
        'warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)',
        "pass",
        E2E,
    ),
    Mutant("cli.py", 'write_text(text, encoding="utf-8")', "write_text(text)", CLI),
    # the config reader
    Mutant("config.py", 'encoding="utf-8-sig"', 'encoding="utf-8"', E2E),
    # the squeezing profile
    Mutant("spdc.py", "if not self.R > 0:", "if not self.R >= 0:", CLI),
    Mutant("spdc.py", "step = max(1, _PROFILE_BLOCK // geometry.width)", "step = geometry.height", SPDC),
    Mutant(
        "spdc.py",
        "for lo in range(0, geometry.height, step):",
        "for lo in range(0, geometry.height - step, step):",
        SPDC,
    ),
    # the channel and the grid
    Mutant("channel.py", "flat_fid = fid.reshape(-1)", "flat_fid = fid.flatten()", CHANNEL),
    Mutant("channel.py", "arr.dtype == dtype and arr.flags.c_contiguous and", "arr.dtype == dtype and", CHANNEL),
    Mutant(
        "grid.py",
        "    finite = np.all(np.isfinite(samples))  # read before out can write over the samples\n"
        "    with np.errstate(over=\"ignore\"):\n"
        "        amps = np.multiply(samples, geometry.pitch, out=out)\n",
        "    with np.errstate(over=\"ignore\"):\n"
        "        amps = np.multiply(samples, geometry.pitch, out=out)\n"
        "    finite = np.all(np.isfinite(samples))\n",
        ("tests/test_grid.py",),
    ),
    Mutant("__init__.py", '    "teleport_image",\n', "", CHANNEL),
    # the oracle: one mutant per row, and its tolerance table
    Mutant("fock.py", "- np.eye(dim - 1)", "- comm[: dim - 1, : dim - 1]", FOCK),
    Mutant("fock.py", "al, alp = 0.3 + 0.1j, -0.2 + 0.4j", "al, alp = 0.3 + 0.1j, 0.3 + 0.1j", FOCK),
    Mutant("fock.py", "dev = abs(deficit - math.tanh(r) ** (2 * dim))", "dev = abs(deficit - deficit)", FOCK),
    Mutant("fock.py", "float(abs(1.0 - ov)), 1e-6", "float(abs(1.0 - ov)), 1e-1", FOCK),
    Mutant("fock.py", "dev = max(dev, abs(got - want) / want)", "dev = max(dev, abs(got - want) / want / 2)", FOCK),
    Mutant("fock.py", "offsets = (0.0, 0.5 + 0.5j, -1.0 + 0.3j)", "offsets = (0.0, 0.0, 0.0)", FOCK),
    Mutant("fock.py", "ref = math.sqrt(smax / math.pi)", "ref = 2 * math.sqrt(smax / math.pi)", FOCK),
    Mutant(
        "fock.py",
        "(psi @ q.T - q @ psi) / math.sqrt(2.0) - beta.real * psi",
        "(psi @ q.T - q @ psi) / math.sqrt(2.0) - beta.imag * psi",
        FOCK,
    ),
    Mutant("fock.py", "rel[:cut, :cut]", "rel[: cut - 1, : cut - 1]", FOCK),
    Mutant("fock.py", "for rel in rels])", "for rel in rels[:3]] + [0.0])", FOCK),
    Mutant("fock.py", "CheckResult(name, abs(lhs - rhs), 1e-8)", "CheckResult(name, abs(lhs - lhs), 1e-8)", FOCK),
    Mutant("fock.py", 'CheckResult("average_fidelity", dev, 5e-3)', 'CheckResult("average_fidelity", dev, 5e-1)', FOCK),
    Mutant("fock.py", "MAX_PHOTO_DIM = 80", "MAX_PHOTO_DIM = 79", E2E),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".*"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(work: Path, tests: tuple[str, ...]) -> str:
    """'pass', 'fail', or what else ended the run of the test files in the copy at work."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONWARNINGS", None)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT} s"
    if proc.returncode in (0, 1):
        return ("pass", "fail")[proc.returncode]
    return f"pytest exit {proc.returncode}: " + (proc.stdout + proc.stderr).strip().splitlines()[-1]


def probe(mutant: Mutant, clean: dict) -> str | None:
    """Run one entry; returns None if its verdict is the listed one, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="pixelport-mutant-") as tmp:
        work = Path(tmp)
        _copy(work)
        if mutant.tests not in clean:
            clean[mutant.tests] = _pytest(work, mutant.tests)
        if clean[mutant.tests] != "pass":
            return f"unmutated tests: {clean[mutant.tests]}"
        path = work / "src" / "pixelport" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        outcome = _pytest(work, mutant.tests)
    if outcome == ("pass" if mutant.survives else "fail"):
        return None
    return {"pass": "survived", "fail": "killed, but listed as surviving"}.get(outcome, outcome)


def main() -> int:
    clean: dict = {}
    wrong = killed = 0
    start = time.monotonic()
    for mutant in MUTANTS:
        t0 = time.monotonic()
        error = probe(mutant, clean)
        wrong += error is not None
        killed += error is None and mutant.survives is None
        verdict = error or ("survives as listed" if mutant.survives else "killed")
        change = f"{mutant.old.strip()!r} -> {mutant.new.strip()!r}"
        print(f"{'ok ' if error is None else 'BAD'} {mutant.module}: {change} [{' '.join(mutant.tests)}]"
              f" {verdict} ({time.monotonic() - t0:.1f} s)", flush=True)
    listed = sum(m.survives is not None for m in MUTANTS)
    print(f"{killed} killed, {listed} listed as surviving, {wrong} wrong, in {time.monotonic() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
