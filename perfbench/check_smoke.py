"""Toy-size smoke run of the benchmark, so the harness cannot rot.

    python3 -m pytest perfbench/check_smoke.py

The file name keeps it out of the repository's own test run (pytest only
collects test_*.py there); pass it to pytest explicitly.  It runs every
workload at 32x32, traced and untraced, checks the result line against
BENCHMARK.json, and shows that the output checks reject a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402
from pixelport import cli  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_reports_every_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _tamper(path: Path, key: str) -> None:
    """Scale the value after ``key=`` in a summary file by 1.01."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        name, _, value = line.partition("=")
        if name == key:
            lines[i] = f"{name}={float(value) * 1.01!r}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["teleport_analytic", "teleport_single_shot", "teleport_many_shots"])
def test_checks_reject_a_wrong_output(workload):
    workdir = ROOT / ".perfbench_work" / f"smoke-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[workload]
    run = workloads.prepare(wl, 3, workdir, toy=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(run.argv))
    assert run.check(rc, "") == []
    assert run.check(rc, "") == []  # a same-seed rerun matches byte for byte
    _tamper(run.summary, "image_fidelity")
    assert run.check(rc, "") != []  # bytes differ from the first op
    fresh = workloads.prepare(wl, 3, workdir, toy=True)  # same seed, same input
    assert fresh.check(rc, "") != []  # the values themselves are rejected
    assert fresh.check(1, "") == ["exit code 1"]
    shutil.rmtree(workdir)


def test_fidelity_check_catches_a_bias_on_the_ring():
    """A bias well inside the pixel-to-pixel spread of the ring's closed form
    but several draws' SE wide must fail the 4-SE test."""
    workdir = ROOT / ".perfbench_work" / "smoke-bias"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS["teleport_many_shots"]
    run = workloads.prepare(wl, 3, workdir, toy=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(run.argv))
    assert run.check(rc, "") == []
    lines = run.fmap.read_text().splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]  # rows after the header
    total = []
    for i in body:
        row = [float(v) + 0.006 for v in lines[i].split(",")]
        total += row
        lines[i] = ",".join(map(repr, row))
    run.fmap.write_text("\n".join(lines) + "\n")
    summary = run.summary.read_text().splitlines()
    summary = [f"image_fidelity={math.fsum(total) / len(total)!r}" if ln.startswith("image_fidelity=") else ln
               for ln in summary]
    run.summary.write_text("\n".join(summary) + "\n")
    errors = workloads.prepare(wl, 3, workdir, toy=True).check(rc, "")
    assert len(errors) == 1 and " SE from " in errors[0], errors
    shutil.rmtree(workdir)


def test_oracle_check_rejects_a_failed_suite():
    run = workloads.prepare(workloads.WORKLOADS["oracle_verify"], 3, ROOT, toy=True)
    payload = {"passed": False, "checks": [{"name": "average_fidelity", "passed": False}]}
    assert run.check(3, json.dumps(payload)) == ["exit code 3"]
    assert run.check(0, json.dumps(payload)) == ["oracle checks failed: average_fidelity"]
    assert run.check(0, json.dumps({"passed": True, "checks": []})) == []
