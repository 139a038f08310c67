#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload tricount --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
`perfbench` program and the `mspgemm-serve` worker (CMake, Release) under
$CARGO_TARGET_DIR (default `.bench_build`); later runs reuse the build.
The program runs the workload, verifies every operation, and reports a run
record. This script checks the record against BENCHMARK.json and prints,
as its last line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is the run record's metadata (widths, build, seed,
sample counts). Exit status is 0 only when every operation was verified.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
FIRST_RUN_BUDGET_S = 880
RUN_BUDGET_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_logged(cmd, log, deadline):
    with open(log, "a") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        die(f"build step failed: {' '.join(cmd)}\n{tail}", 3)


def build(bdir, deadline):
    cmake_dir = os.path.join(bdir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log, deadline)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", cmake_dir, "-j", jobs], log, deadline)
    exe = os.path.join(cmake_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        die("build produced no perfbench binary", 3)
    return exe


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_perfbench(exe, args, deadline):
    """Run perfbench in its own directory and process group; returns its
    exit code and stdout."""
    work = os.path.join(build_dir(), f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ)
    # Relative, so the serve workers' Unix socket paths stay short.
    env["TMPDIR"] = "tmp"
    proc = subprocess.Popen([exe] + args, cwd=work, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        die("workload exceeded its time budget", 4)
    finally:
        # Reap anything left in the group (worker processes of a crashed
        # coordinator) before the directory goes.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.decode(errors="replace")


def pick(metrics, wanted, problems, absent_is_zero=False):
    """The metrics named in `wanted` (BENCHMARK.json entries), unit-checked.
    With `absent_is_zero`, a metric perfbench did not report (a layer the
    workload does not exercise) is 0."""
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and absent_is_zero:
            got = {"value": 0, "unit": m["unit"]}
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, "
                            f"expected {m['unit']}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {m['name']} is not a finite number")
            continue
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale (tiny graphs, same code paths)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one result before it is checked")
    args = ap.parse_args()

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "mspgemm.hpp")):
        die("library sources not found next to perfbench/")
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {names}")

    bdir = build_dir()
    first = not os.path.isfile(os.path.join(bdir, "cmake", "perfbench"))
    deadline = start + (FIRST_RUN_BUDGET_S if first else RUN_BUDGET_S)
    exe = build(bdir, deadline)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd += ["--tiny", "--setup-reps", "1"]
    if args.inject_fault:
        cmd.append("--inject-fault")
    code, out = run_perfbench(exe, cmd, deadline)

    lines = [ln for ln in out.splitlines() if ln.strip()]
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"perfbench printed no run record (exit {code})", 5)

    problems = []
    section = "per_layer" if args.trace else "end_to_end"
    metrics = pick(rec[section], spec[section], problems,
                   absent_is_zero=bool(args.trace))
    known = {m["name"] for m in spec[section]}
    for name in sorted(set(rec[section]) - known):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    if not args.trace:
        for name, m in metrics.items():
            if m["value"] <= 0:
                problems.append(f"end-to-end metric {name} is not positive")
    attempted = int(rec["attempted"])
    failed = int(rec["failed"])
    correct = code == 0 and failed == 0 and attempted > 0 and not problems
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    meta = dict(rec["meta"])
    meta.update(nproc=str(len(os.sched_getaffinity(0))), git_rev=git_rev(),
                source_digest=source_digest(),
                fail_rate=repr(failed / attempted if attempted else 1.0))
    print(json.dumps({"run_record": meta, "checks": rec["checks"]},
                     sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
