"""The benchmark's workloads: seeded inputs, the CLI call, and output checks.

Every input is generated from the workload seed and written before timing
starts.  The checks recompute what the output must be from closed forms in
numpy and parse the output files with their own code; they never call into
pixelport, which is the code under test.

Writing the inputs and the full value check of an op's outputs build tens
of MB of text and arrays, so both run in a child process:

    python3 perfbench/workloads.py {prepare|check} <workload> <seed> <workdir> [--toy]

That keeps them out of the peak resident memory of the process that runs
the ops.  ``check`` prints the list of errors as JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RING_XI = 1.5
IDEAL_R = 1.0
TOY_SIZE = 32  # image side of a --toy run


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # image side in pixels; 0 for the oracle
    mode: str = ""  # "ideal" or "spdc"
    n_shots: int = 0


# The ring sits at a quarter of the image side with a sixteenth of it as
# width (512 -> r0 128, R 32; 256 -> r0 64, R 16), so a toy-size run keeps
# the same picture: a bright ring, dark sinc zeros, side lobes.  The
# single-shot image is 128x128 so that one op takes about half a second: a
# run gets about 50 ops, and each is timed close to its reference job.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("teleport_analytic", 512, "spdc", 0),
        Workload("teleport_single_shot", 128, "ideal", 1),
        Workload("teleport_many_shots", 256, "spdc", 100),
        Workload("oracle_verify", 0),
    )
}


def ring_r(size: int, r0: float, width: float) -> np.ndarray:
    """Per-pixel r_j = Xi |sinc((rho^2 - r0^2)/R^2)| on a unit-pitch centred grid."""
    c = np.arange(size) + 0.5 - size / 2
    arg = ((c[None, :] ** 2 + c[:, None] ** 2) - r0 * r0) / (width * width)
    safe = np.where(arg == 0.0, 1.0, arg)
    return RING_XI * np.abs(np.where(arg == 0.0, 1.0, np.sin(safe) / safe))


def _write_image(path: Path, samples: np.ndarray) -> None:
    height, width = samples.shape
    lines = ["pixelport-image-v1", f"{width} {height}", "re_im"]
    row = np.empty(2 * width)
    for z in samples:
        row[0::2], row[1::2] = z.real, z.imag
        lines.append(",".join(map(repr, row.tolist())))
    path.write_text("\n".join(lines) + "\n")


def _numbers(path: Path, header_lines: int) -> np.ndarray:
    """Rows of comma-separated numbers; ``#`` lines dropped, then the header."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.array([np.array(ln.split(","), dtype=float) for ln in lines[header_lines:]])


def _read_image(path: Path) -> np.ndarray:
    data = _numbers(path, 3)
    return data[:, 0::2] + 1j * data[:, 1::2]


def _summary_fidelity(path: Path) -> float:
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key == "image_fidelity":
            return float(value)
    raise ValueError(f"{path} has no image_fidelity")


def _close(got, want, rel: float) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - want) <= rel * np.abs(want)))


class TeleportRun:
    """One `teleport` op on a seeded complex Gaussian image."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, toy: bool):
        self.wl, self.seed, self.workdir, self.toy = wl, seed, workdir, toy
        self.size = TOY_SIZE if toy else wl.size
        self.inp = workdir / "input.txt"
        self.out = workdir / "teleported.txt"
        self.fmap = workdir / "fidelity_map.csv"
        self.summary = workdir / "summary.txt"
        self.config = workdir / "run.cfg"
        self.argv = ["teleport", "--config", str(self.config)]
        self._reference: list[str] | None = None

    def _samples(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        shape = (self.size, self.size)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    def _ring(self) -> tuple[float, float]:
        return self.size / 4, self.size / 16

    def _r(self) -> np.ndarray:
        if self.wl.mode == "ideal":
            return np.full((self.size, self.size), IDEAL_R)
        return ring_r(self.size, *self._ring())

    def write_inputs(self) -> None:
        _write_image(self.inp, self._samples())
        cfg = [f"input = {self.inp}", f"output = {self.out}", f"fidelity_map = {self.fmap}", f"summary = {self.summary}"]
        cfg += [f"mode = {self.wl.mode}", f"seed = {self.seed}", f"n_shots = {self.wl.n_shots}"]
        if self.wl.mode == "ideal":
            cfg.append(f"ideal_r = {IDEAL_R!r}")
        else:
            r0, width = self._ring()
            cfg += [f"ring_r0 = {r0!r}", f"ring_width = {width!r}", f"ring_xi = {RING_XI!r}"]
        self.config.write_text("\n".join(cfg) + "\n")

    def check(self, rc: int, stdout: str) -> list[str]:
        """Full value check on the first good op; byte identity after it."""
        if rc != 0:
            return [f"exit code {rc}"]
        digests = [_digest(p) for p in (self.out, self.fmap, self.summary)]
        if self._reference is not None:
            return [] if digests == self._reference else ["output bytes differ from an earlier op with the same seed"]
        errors = json.loads(_child("check", self.wl, self.seed, self.workdir, self.toy))
        if not errors:
            self._reference = digests
        return errors

    def check_values(self) -> list[str]:
        samples = self._samples()
        out = _read_image(self.out)
        fid = _numbers(self.fmap, 1)
        image_fidelity = _summary_fidelity(self.summary)
        if out.shape != samples.shape or fid.shape != samples.shape:
            return [f"output shapes {out.shape}, {fid.shape} differ from input {samples.shape}"]
        r = self._r()
        t = np.tanh(r)
        closed = (1.0 + t) / 2.0
        n = samples.size
        errors = []
        if self.wl.n_shots == 0:
            if not np.all(np.abs(out - t * samples) <= 1e-12 * np.abs(samples)):
                errors.append("output is not tanh(r_j) * input")
            if not _close(fid, closed, 1e-12):
                errors.append("fidelity map is not (1 + tanh r_j)/2")
            if not _close(image_fidelity, math.fsum(closed.ravel()) / n, 1e-12):
                errors.append(f"image_fidelity {image_fidelity!r} is not the mean closed form")
            return errors
        if not _close(image_fidelity, math.fsum(fid.ravel()) / n, 1e-12):
            errors.append(f"image_fidelity {image_fidelity!r} is not the mean of its fidelity map")
        # The SE comes from the residual, not from fid itself: on the ring the
        # closed form varies from pixel to pixel far more than the draws do.
        want, se = float(closed.mean()), float((fid - closed).std()) / math.sqrt(n)
        if not abs(image_fidelity - want) <= 4.0 * se:
            errors.append(f"image_fidelity {image_fidelity!r} is {abs(image_fidelity - want) / se:.1f} SE from {want!r}")
        # out - alpha = (1 - tanh r)(beta - alpha), beta - alpha complex normal
        # with E|.|^2 = cosh(r)^2, averaged over n_shots draws.
        var = (1.0 - t) ** 2 * np.cosh(r) ** 2 / self.wl.n_shots
        z2 = np.abs(out - samples) ** 2 / var
        if not abs(z2.mean() - 1.0) <= 5.0 * z2.std() / math.sqrt(n):
            errors.append(f"output spread around the input is off: mean |z|^2 = {z2.mean()!r}")
        return errors


class OracleRun:
    """One `oracle-verify --json` op at the default truncations."""

    argv = ["oracle-verify", "--json"]

    def __init__(self, wl: Workload, seed: int, workdir: Path, toy: bool):
        del wl, seed, workdir, toy  # the suite takes no input

    def check(self, rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        payload = json.loads(stdout)
        if payload.get("passed") is not True:
            return ["oracle checks failed: " + ", ".join(c["name"] for c in payload["checks"] if not c["passed"])]
        return []


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _child(action: str, wl: Workload, seed: int, workdir: Path, toy: bool) -> str:
    """Run ``action`` of this file in a fresh interpreter; its stdout."""
    cmd = [sys.executable, __file__, action, wl.name, str(seed), str(workdir)] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/workloads.py {action} failed:\n{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _run(wl: Workload, seed: int, workdir: Path, toy: bool):
    cls = OracleRun if wl.name == "oracle_verify" else TeleportRun
    return cls(wl, seed, workdir, toy)


def prepare(wl: Workload, seed: int, workdir: Path, toy: bool):
    """The workload's op, its inputs written by a child process."""
    run = _run(wl, seed, workdir, toy)
    if isinstance(run, TeleportRun):
        _child("prepare", wl, seed, workdir, toy)
    return run


def main(argv: list[str]) -> int:
    action, name, seed, workdir, *toy = argv
    run = _run(WORKLOADS[name], int(seed), Path(workdir), toy == ["--toy"])
    if action == "prepare":
        run.write_inputs()
    else:
        print(json.dumps(run.check_values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
