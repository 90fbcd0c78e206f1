#!/usr/bin/env python3
"""Build the figure-suite benchmark from source and run one workload.

    python3 figbench/run.py --workload <mapreduce|cg_halo|pic_exchange|pic_io>
                            --seed <n> --seconds <s> --trace <0|1> [--procs <ranks>]

Run from the repository root. The first call configures and builds the
simulator library and the harness under .bench_build/figbench (or under
$CARGO_TARGET_DIR/figbench when that is set); later calls rebuild only what
changed. Build output goes to standard error, so the last line of standard
output is the harness's JSON result. Exits nonzero when the build fails,
when a check fails or when the run exceeds its time limit.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "figbench"


def build() -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "figbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"figbench: build step failed: {' '.join(cmd)}")
    return out / "figbench"


def main() -> int:
    binary = build()
    # The harness's forked calls die with it (PR_SET_PDEATHSIG).
    proc = subprocess.Popen([str(binary), *sys.argv[1:]], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"figbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
