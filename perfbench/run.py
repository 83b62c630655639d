#!/usr/bin/env python3
"""Builds and runs the KBForge benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload offline|serve_hot|serve_mixed \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

A run builds perfbench/ (and the KBForge libraries it links, from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs one workload. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. The exit code is the
benchmark's: 0 when every output check passed.

--selftest builds and runs the helper tests, checks that the metric
names the binary prints match BENCHMARK.json, and validates the file.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; cannot build KBForge")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(build_root(), "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                log("perfbench: cmake configure failed")
                sys.exit(2)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed")
            sys.exit(2)
    return out


def provenance():
    """--source-digest: a digest of the sources the benchmark builds,
    which keys the records one run of these sources leaves for the next;
    plus --git-head/--dirty when ROOT is a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    args = ["--source-digest", digest.hexdigest()]
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20)
        if head.returncode == 0 and head.stdout.strip():
            status = subprocess.run(["git", "status", "--porcelain"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=20)
            dirty = "1" if status.stdout.strip() else "0"
            args += ["--git-head", head.stdout.strip(), "--dirty", dirty]
    except (OSError, subprocess.SubprocessError):
        pass
    return args


def run(args):
    out = build(["kbbench"])
    cmd = [os.path.join(out, "kbbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_root(), "run")] + provenance()
    # Own process group, so a timeout can kill the run and its children.
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=os.setsid)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s; killing it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def selftest():
    out = build(["kbbench", "bench_lib_test"])
    failures = 0
    test = os.path.join(out, "bench_lib_test")
    if not os.path.isfile(test):
        log("selftest: GoogleTest not found; helper tests not built")
        failures += 1
    elif subprocess.run([test]).returncode != 0:
        failures += 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([os.path.join(out, "kbbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    printed = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed[kind]:
            log("selftest: BENCHMARK.json %s differs from the binary:\n"
                "  json:   %s\n  binary: %s" % (kind, declared,
                                               printed[kind]))
            failures += 1
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != ["offline", "serve_hot", "serve_mixed"]:
        log("selftest: unexpected workloads %s" % workloads)
        failures += 1
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]):
        log("selftest: end_to_end lacks setup_s")
        failures += 1
    if any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        log("selftest: a bound exceeds 0.25")
        failures += 1
    print("selftest: %s" % ("ok" if failures == 0 else
                            "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["offline", "serve_hot", "serve_mixed"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
