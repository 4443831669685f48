#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <adapt-seq|serve-mix|dist-tcp> \\
      --seed <n> --seconds <s> --trace <0|1>

The first run builds the library and the benchmark from source with CMake
into $CARGO_TARGET_DIR (default .bench_build). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; every earlier line is the human-readable report.

Steadiness mode runs every workload repeatedly and prints, per metric, the
median, the quartiles and the spread (Q3 - Q1) / median, as the
BENCHMARK.json bounds are judged:

  python3 perfbench/run.py --steadiness 10 [--workloads a,b] [--heldout] \\
      [--trace <0|1>] [--out perfbench/spread.json]

Seeds 1..R are the tuning seeds. --heldout uses seeds HELDOUT_BASE+1.. instead,
inputs no tuning of this benchmark or of the program has looked at.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["adapt-seq", "serve-mix", "dist-tcp"]
HELDOUT_BASE = 1_000_000
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit, or a digest of the sources when not in a repository."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the binary; returns (exit code, last-line JSON or None, stdout)."""
    env = dict(os.environ, PERFBENCH_COMMIT=commit_id())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return 1, None, ""
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steadiness(binary, args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    base = HELDOUT_BASE if args.heldout else 0
    report = {"seconds": args.seconds, "trace": args.trace, "runs": args.steadiness,
              "seeds": [base + i + 1 for i in range(args.steadiness)],
              "commit": commit_id(), "workloads": {}}
    ok = True
    for workload in workloads:
        values = {}
        units = {}
        steal = []
        for seed in report["seeds"]:
            code, result, stdout = run_once(binary, workload, seed, args.seconds,
                                            args.trace, echo=False)
            for line in stdout.splitlines():
                if line.startswith(("machine:", "build:")):
                    key, _, value = line.partition(": ")
                    report[key] = value
                elif line.startswith("host: steal="):
                    steal.append(line.split("=")[1].split("%")[0])
            if code != 0 or result is None or not result.get("correct"):
                log(f"perfbench: {workload} seed {seed} failed (exit {code})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) +
                (f" steal={steal[-1]}%" if steal else ""))
        rows = {}
        print(f"{workload}:")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            print(f"  {name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}")
        report["workloads"][workload] = rows
        report.setdefault("steal_pct", {})[workload] = [float(x) for x in steal]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--workloads", help="comma-separated, steadiness mode")
    parser.add_argument("--heldout", action="store_true")
    parser.add_argument("--out", help="steadiness report JSON path")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload or --steadiness is required")

    binary = build()
    if binary is None:
        return 1
    if args.steadiness is not None:
        return steadiness(binary, args)
    code, result, _ = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace, echo=True)
    if result is None:
        log("perfbench: no result line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
