#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--selftest]

Run it from the root of the repository.  It builds perfbench/bench.exe and
bin/limec.exe with dune into .bench_build (or $CARGO_TARGET_DIR), keeps its
run files (daemon sockets and log, Chrome traces) in .bench_run, and then
replaces itself with the benchmark, whose last line of standard output is the
result as one JSON object.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

RUN_DIR = ".bench_run"


def main():
    if shutil.which("dune") is None:
        sys.exit("perfbench: dune is not on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # the shared dune cache lives outside the repository; keep every write
    # inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/bench.exe", "./bin/limec.exe"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir] + targets,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: the build failed")
    os.makedirs(RUN_DIR, exist_ok=True)
    bench = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    limec = os.path.join(build_dir, "default", "bin", "limec.exe")
    # One CPU for the benchmark and the daemon it starts: the request
    # ping-pong then does not pay cross-CPU wake-ups, whose cost varies
    # with the host's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execv(
        bench,
        [bench] + sys.argv[1:] + ["--limec", limec, "--out-dir", RUN_DIR],
    )


if __name__ == "__main__":
    main()
