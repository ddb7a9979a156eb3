#!/usr/bin/env python3
"""Builds and runs the Dubhe benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source with cargo (offline, release) into
$CARGO_TARGET_DIR, or `.bench_build` at the repository root when that is
unset, then runs one workload. The binary prints notes (lines starting with
`#`) and, as its last line, one JSON result. A traced run also writes its
spans as JSON lines under `<target dir>/perfbench-traces/`.

Exits non-zero, without a result line, if the build or the run fails or the
run exceeds its time limit.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def flag(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = list(argv)
    if flag(args, "--trace") == "1" and "--trace-out" not in args:
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.jsonl"
        args += ["--trace-out", str(target / "perfbench-traces" / name)]
    binary = target / "release" / "dubhe-perfbench"
    try:
        ran = subprocess.run([str(binary), *args], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"perfbench: cannot run {binary}: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
