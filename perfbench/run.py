#!/usr/bin/env python3
"""Build gdp-serve and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); the run's scratch files go under it and are removed at the
end. The last line on stdout is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The server exactly as the repository's workspace builds it.
        [os.path.join(ROOT, "crates", "gdp", "Cargo.toml"), "--bin", "gdp-serve"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest, *extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    # Relative, so Unix-socket paths under it stay short.
    work = os.path.relpath(os.path.join(target, "perfbench-work", str(os.getpid())))
    cmd = [
        os.path.join(release, "gdp-perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        os.path.join(release, "gdp-serve"),
        "--work-dir",
        work,
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
