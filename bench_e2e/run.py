#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 bench_e2e/run.py --workload mixed --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the bench_e2e CMake package (the
dpspatial libraries from src/ plus the bench binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload.  The binary's stdout passes through unchanged; its last line is
the JSON result.  With --trace 1 the Chrome trace-event file is written to
<build dir>/traces/<workload>-<seed>.json.

A wrong answer still prints its result, with "correct": false, and exits 1.
A failed build or run exits non-zero with nothing on stdout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        print(f"run.py: bench_e2e exited {run.returncode} with no result",
              file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
