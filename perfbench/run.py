#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the perfbench program from the checkout's sources (into
.bench_build/perfbench), runs it, checks its report against BENCHMARK.json
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The full run record (host
fingerprint, workload extras, span table) is printed on the line before and
kept in .bench_build/perfbench/runs/. A failed correctness gate, a failed
build or a missing metric exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Beyond the measured seconds a run spends this long at most on set-up, the
# correctness gate and (traced) the layer probes.
RUN_OVERHEAD_S = 140


def fail(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root", 2)
    with open(path) as f:
        return json.load(f)


def git(*args):
    try:
        out = subprocess.run(["git"] + list(args), cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The commit when the checkout is a clean git work tree; the commit
    plus a digest of the sources when it has uncommitted changes; else the
    digest alone."""
    commit = git("rev-parse", "HEAD")
    if commit:
        if not git("status", "--porcelain"):
            return "git:" + commit
        return "git:%s-dirty:%s" % (commit, source_digest())
    return source_digest()


def source_digest():
    """A digest of the sources the program is built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: the benchmark builds the program from the "
                 "repository's sources" % (needed, ROOT), 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "perfbench")


def run(binary, args, timeout):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="seconds of measured load; the benchmark passes "
                             "BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    bench = load_benchmark()
    if opts.self_test:
        code, out = run(build(), ["--self-test"], RUN_OVERHEAD_S)
        sys.stdout.write(out)
        sys.exit(code)

    if not opts.workload or opts.seconds is None:
        fail("--workload and --seconds are required", 2)
    binary = build()
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    code, out = run(binary, [
        "--workload=%s" % opts.workload, "--seed=%d" % opts.seed,
        "--seconds=%g" % opts.seconds, "--trace=%d" % opts.trace,
        "--out-dir=%s" % out_dir, "--source-id=%s" % source_id()],
        opts.seconds + RUN_OVERHEAD_S)
    if code != 0:
        fail("%s failed its run or its correctness gate (exit %d)" %
             (opts.workload, code), code)
    lines = out.strip().splitlines()
    if not lines:
        fail("no report from the program")
    report = json.loads(lines[-1])
    if report.get("correct") is not True:
        fail("the program did not confirm correct outputs")

    wanted = bench["per_layer" if opts.trace else "end_to_end"]
    measured = report["per_layer" if opts.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s in %s, expected %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    record = os.path.join(out_dir, "%s-seed%d-trace%d.json" %
                          (opts.workload, opts.seed, opts.trace))
    with open(record, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"report": {k: report[k] for k in (
        "workload", "seed", "trace", "host", "end_to_end", "extra", "notes")}}))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
