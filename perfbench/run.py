#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The arguments go unchanged to the Rust program in this directory, which
checks them (an unknown flag or a malformed seed is an error and nothing
runs). Cargo builds into $CARGO_TARGET_DIR, `.bench_build` by default.
This wrapper adds `peak_rss_mb`, the program's peak resident memory as
the kernel reports it to the waiting parent, to the end-to-end metrics
of the result line, which it prints last.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# A run is stopped after this long (the first run also builds first).
# The program accepts --seconds up to 60, so a run, traced or not,
# ends well before it.
RUN_LIMIT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(RUN_LIMIT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    if "setup_s" in result["metrics"]:
        # ru_maxrss is in KiB on Linux.
        peak_mb = usage.ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        lines.insert(-1, f"  {'peak_rss_mb':<34} {peak_mb:>14.6f} MB")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
