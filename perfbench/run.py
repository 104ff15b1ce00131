#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <tables|vm|farm|graph> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. It is built in
release mode into ``$CARGO_TARGET_DIR`` (default ``.bench_build``) and
then run with the same arguments. The last line of standard output is
the result object; see README.md in this directory. With ``--trace 1``
the recorded spans are also written to
``<target dir>/perfbench-traces/<workload>-seed<n>.json``.

Exits non-zero, without printing a result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def run(cmd, **kwargs):
    """Runs ``cmd`` to completion; stops it if this script is interrupted."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest, "--bin", "perfbench",
    ]
    # Build chatter goes to stderr so the result stays the last stdout line.
    if run(build, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary] + args
    if arg_value(args, "--trace", "0") == "1" and "--trace-file" not in args:
        traces = os.path.join(target, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "unknown"),
                                   arg_value(args, "--seed", "0"))
        cmd += ["--trace-file", os.path.join(traces, name)]
    sys.stdout.flush()
    return run(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
