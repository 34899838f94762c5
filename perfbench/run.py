"""pixelport benchmark: one seeded workload, driven through `pixelport.cli.main`.

    python3 perfbench/run.py --workload teleport_analytic --seed 1 --seconds 12 --trace 0

One single-threaded closed-loop client calls `pixelport.cli.main(argv)` in
this process: it generates the workload's inputs from the seed, runs one
untimed warm-up op, then runs ops back to back for about ``--seconds`` and
checks every op's output.  ``--trace 0`` reports the end-to-end metrics;
each of its ops is timed next to a fixed reference job, and the op metrics
are op time over reference time, which the shared host's speed does not
move.  ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics.  The last stdout line is the JSON result; the lines above it name
every metric with its unit.  The run record and, for traced runs, the spans
go to ``.perfbench_work/<workload>-seed<seed>-trace<t>/``.

``--toy`` shrinks images to 32x32 and set-up to one fresh interpreter, for
the smoke test.  Exits 2 without a result when the pixelport sources are
missing next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_MODULES = ("pixelport.spdc", "pixelport.fock", "pixelport.channel", "pixelport.cli")


def _fresh_import(*flags: str) -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter importing pixelport.cli."""
    env = dict(os.environ)  # main() has already removed PIXELPORT_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import pixelport.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import of pixelport.cli failed:\n{proc.stderr}")
    return wall, proc.stderr


def setup_seconds(repeats: int) -> list[float]:
    _fresh_import()  # untimed: compiles bytecode and warms the file cache
    return [_fresh_import()[0] for _ in range(repeats)]


def import_seconds(repeats: int) -> dict[str, float]:
    """Median cumulative `-X importtime` seconds of the pixelport modules."""
    _fresh_import()
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        for line in _fresh_import("-X", "importtime")[1].splitlines():
            parts = line.split("|")  # "import time: self | cumulative | name"
            name = parts[-1].strip()
            if len(parts) == 3 and name in samples:
                samples[name].append(int(parts[1]) / 1e6)
    return {f"{m.removeprefix('pixelport.')}.import_s": statistics.median(v) for m, v in samples.items()}


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def _steal_s() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far (0 if unknown)."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def _cpu() -> dict:
    info: dict = {"model": None, "caches": []}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.partition(":")[2].strip()
                break
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            info["caches"].append(
                "L{} {} {}".format(*((idx / f).read_text().strip() for f in ("level", "type", "size")))
            )
    return info


def run_record(args, pixelport_threads_was: str | None) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "pixelport_threads": "unset",
        "pixelport_threads_in_caller_env": pixelport_threads_was,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


REF_VALUES = [i / 7.0 for i in range(1, 1001)]  # small, so it adds nothing to peak_rss_mb
REF_ROUNDS = 80


def _reference() -> float:
    """Wall time of a fixed single-threaded pure-Python job, about 0.1 s.

    The shared host runs this VM's vCPUs up to 1.8x slower for minutes at a
    time, and every op slows with it.  Run next to each op, this job measures
    the host's speed at that moment, so op time over reference time does not
    depend on it.
    """
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(REF_ROUNDS):
        text = ",".join(map(repr, REF_VALUES))
        total += math.fsum(map(float, text.split(",")))
    if total <= 0.0:
        raise AssertionError("reference job lost its input")
    return time.perf_counter() - t0


def _tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it, if above p50."""
    n = len(latencies)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="32x32 images and one set-up run, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pixelport" / "cli.py").is_file():
        print(f"perfbench: no pixelport sources under {SRC}", file=sys.stderr)
        return 2

    pixelport_threads_was = os.environ.pop("PIXELPORT_THREADS", None)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Set-up is measured first, in fresh interpreters, before this process
    # imports anything from the package.
    repeats = 1 if args.toy else SETUP_REPEATS
    setup = None if args.trace else setup_seconds(repeats)
    imports = import_seconds(repeats) if args.trace else None

    sys.path.insert(0, str(SRC))
    import pixelport.channel
    import pixelport.cli
    import pixelport.fock
    import pixelport.spdc

    # Inputs are written, and the first op's values checked, by child
    # processes, so peak_rss_mb is this process's imports plus pixelport's ops.
    data = workdir / "data"  # inputs and outputs, removed when the run ends
    data.mkdir()
    run = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, data, args.toy)
    tracer = spans.Tracer({m.__name__: m for m in (pixelport.cli, pixelport.spdc, pixelport.channel, pixelport.fock)})

    attempted = failed = 0
    failures: list[str] = []
    plain: list[tuple[float, float]] = []  # (wall, cpu) of untraced timed ops
    traced: list[float] = []

    def op(traced_id: int | None) -> tuple[float, float]:
        nonlocal attempted, failed
        attempted += 1
        out = io.StringIO()
        call = lambda: pixelport.cli.main(list(run.argv))  # noqa: E731
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                rc = call() if traced_id is None else tracer.run_op(traced_id, call)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed benchmark
            rc, errors = None, [f"{type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if rc is not None:
            try:
                errors = run.check(rc, out.getvalue())
            except Exception as exc:  # unreadable output is a failed op too
                errors = [f"output check raised {type(exc).__name__}: {exc}"]
        if errors:
            failed += 1
            failures.append(f"op {attempted}: " + "; ".join(errors))
        return wall, cpu

    op(None)  # warm-up, untimed but checked
    steal0 = _steal_s()
    start = time.perf_counter()
    refs = [] if args.trace else [_reference()]  # one before and one after each untraced op
    while True:
        if args.trace and len(plain) > len(traced):
            traced.append(op(len(traced))[0])
        else:
            plain.append(op(None))
            if not args.trace:
                refs.append(_reference())
        # Once each kind ran, stop where the window ends nearest to --seconds:
        # skip the next op if more than half of it would run past the end.
        so_far = [w for w, _ in plain] + traced
        if (traced or not args.trace) and time.perf_counter() - start + statistics.median(so_far) / 2 > args.seconds:
            break
    steal = _steal_s() - steal0

    walls = [w for w, _ in plain]
    cpus = [c for _, c in plain]
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]  # reference time around each op
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics.update(imports)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        shares = spans.op_shares(tracer.spans)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_per_ref_p50": statistics.median(w / r for w, r in zip(walls, around)),
            "cpu_per_ref_p50": statistics.median(c / r for c, r in zip(cpus, around)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        shares = None
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    lines = [(name, metrics[name], unit) for name, unit in units.items()]

    record = run_record(args, pixelport_threads_was)
    record.update(op_walls_s=walls, op_cpus_s=cpus, ref_walls_s=refs, traced_walls_s=traced, steal_s=steal, failures=failures, layer_shares=shares)
    if not args.trace:
        record["setup_samples_s"] = setup
        tail = _tail(walls)
        record["op_s_tail"] = None if tail is None else {"percentile": tail[0], "value": tail[1], "samples": len(walls)}
    record["error_rate"] = failed / attempted
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (workdir / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    shutil.rmtree(data)

    print("record " + json.dumps(record))
    for failure in failures:
        print(f"FAILED {failure}")
    for name, value, unit in lines:
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {record['error_rate']!r} ratio")
    if not args.trace:
        print(f"metric op_s_p50 {statistics.median(walls)!r} s")
        print(f"metric cpu_s_per_op {sum(cpus) / len(cpus)!r} s")
        print(f"metric ref_s_p50 {statistics.median(refs)!r} s")
        t = record["op_s_tail"]
        if t:
            print(f"metric op_s_tail {t['value']!r} s (p{t['percentile']:.1f}, n={t['samples']})")
        else:
            print(f"metric op_s_tail n/a s (n={len(walls)}: fewer than 21 ops)")
    else:
        print("shares " + " ".join(f"{k}={v:.3f}" for k, v in sorted(shares.items())))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in lines},
    }
    print(json.dumps(result))
    return 0


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order; the file is the one list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
