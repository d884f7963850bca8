#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

`--trace 0` runs the untraced binary (end-to-end metrics, system allocator);
`--trace 1` runs the traced binary (per-layer metrics, counting allocator),
which itself runs the untraced binary for half the time to measure the
tracing overhead. The result is the last line of standard output. Cargo's
output goes to standard error. The build lands in `$CARGO_TARGET_DIR`
(default `.bench_build`). On the `ingest` workload only, the binary runs
with glibc's mmap threshold pinned at its default
(`MALLOC_MMAP_THRESHOLD_=131072`); every other workload runs with the
allocator settings a user of the program gets.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    argv = sys.argv[1:]
    trace = "0"
    if "--trace" in argv:
        i = argv.index("--trace")
        if i + 1 >= len(argv) or argv[i + 1] not in ("0", "1"):
            print("run.py: --trace takes 0 or 1", file=sys.stderr)
            return 2
        trace = argv[i + 1]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--bins",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    name = "perfbench-traced" if trace == "1" else "perfbench"
    exe = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", name)
    run_env = dict(env)
    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["ingest"]:
        # glibc raises its mmap threshold whenever a large block is freed,
        # and which of ingest's threads frees first depends on timing: its
        # peak RSS then flips between two values from run to run. Pinning
        # the threshold at glibc's default (128 KiB) turns the adjustment
        # off, so peak RSS repeats. This departs from the allocator
        # settings a user gets, so it applies to this workload only.
        run_env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return subprocess.run([exe] + argv, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
