#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <ga_sync|lock_counter|halo_push> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --manifest > BENCHMARK.json

Run from the repository root. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default `.bench_build`); build output goes
to standard error, so standard output holds only the benchmark's report,
whose last line is one JSON object. Exits non-zero without a report when
the build or the run fails.
"""

import os
import signal
import subprocess
import sys

# A run measures for at most 60 s plus set-up; anything far beyond that
# is a hang.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    # Its own session, so a hung run's node processes can be stopped too.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
