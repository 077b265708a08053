#!/usr/bin/env python3
"""Builds and runs the repository benchmark (qc_perfbench).

    python3 perfbench/run.py --workload tpch-seq --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (a CMake package of its own that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The benchmark binary prints one JSON result as its
last stdout line; this wrapper checks that the metric names in it are exactly
the ones BENCHMARK.json declares for the run's mode before passing it on.
Every failure exits non-zero without printing a result.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group. On timeout, or when this script is
    terminated, kills the whole group (make's compiler children and the
    benchmark's forked children included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kw)

    def kill_group(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_term(*_):
        kill_group()
        fail("terminated")

    previous = signal.signal(signal.SIGTERM, on_term)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    return proc.returncode, out


def build(build_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "qc_perfbench", "-j", jobs])
    # One build at a time per build directory.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                code, out = run_group(cmd, BUILD_TIMEOUT_S,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {' '.join(cmd[:2])} failed: {e}")
            if code != 0:
                sys.stderr.write(out[-8000:])
                fail(f"build step {' '.join(cmd[:2])} exited {code}")
    return build_dir / "qc_perfbench"


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read metric list from BENCHMARK.json: {e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    expected = expected_metrics(args.trace == "1")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)

    out_dir = build_dir / "out"
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    # The library reads QC_* knobs from the environment; a run uses the
    # defaults. Scratch files of the C compiler (cgen sweep) stay inside the
    # checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QC_")}
    env["TMPDIR"] = str(tmp_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir)]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              env=env, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot start {binary}: {e}")
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"benchmark exited {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result")
    got = set(result.get("metrics", {}))
    if got != expected:
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
