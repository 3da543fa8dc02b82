#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the library sources under src/ plus the benchmark
program) into $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench; later calls reuse that build. Build output goes to
stderr. The program's stdout is passed through, so the last line is the JSON
result. A traced run (--trace 1) also writes a Chrome trace to
<build dir>/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path) -> Path:
    if not (root / "src" / "harness" / "deployment.hpp").is_file():
        sys.exit(f"perfbench: {root / 'src'} is missing; run from a source checkout")
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
