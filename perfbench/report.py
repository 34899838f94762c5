"""Print every metric of every workload by name and unit, one fresh process each.

Covers the gated workloads of BENCHMARK.json and the ungated
teleport_many_shots.

    python3 perfbench/report.py --seed 1           # end-to-end
    python3 perfbench/report.py --seed 1 --trace   # and per-layer

Each run lasts BENCHMARK.json's run_seconds unless --seconds says otherwise.

Exits 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    args = parser.parse_args(argv)

    status = 0
    for wl in workloads.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl:<22} run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
                status = 1
                continue
            for line in lines[:-1]:
                if line.startswith(("metric ", "shares ", "FAILED ")):
                    print(f"{wl:<22} {line.removeprefix('metric ')}")
                elif line.startswith("record "):
                    steal = json.loads(line.removeprefix("record "))["steal_s"]
                    print(f"{wl:<22} steal_s {steal:.2f} s (machine-wide hypervisor steal while timing; not a metric)")
            result = json.loads(lines[-1])
            print(f"{wl:<22} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
