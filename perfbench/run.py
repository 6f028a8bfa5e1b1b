#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild only what
changed. Build output goes to stderr, so the last line of standard output
is the benchmark's JSON result. Checkpoint files of the persisting
workloads are written under the build directory.

`--workload all` runs every workload in turn and ends with one combined
JSON line whose metric names are prefixed with the workload name.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["pa_mfbo", "cp_mfbo", "fleet_churn"]
RUN_TIMEOUT_S = 175


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(target):
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", target])
    # Compiler scratch files stay inside the build directory too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / target


def run_one(binary, args):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    cmd = [str(binary), *args, "--ckpt-root", str(build_dir() / "ckpt")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s: %s" %
                 (RUN_TIMEOUT_S, " ".join(cmd)))
    return proc.returncode, proc.stdout


def run_all(binary, args):
    i = args.index("--workload")
    rest = args[:i] + args[i + 2:]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, out = run_one(binary, ["--workload", name, *rest])
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            combined["correct"] = False
            worst = worst or code or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][name + "." + metric] = v
    print(json.dumps(combined))
    return worst


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.run([str(build("perfbench_selftest"))],
                              cwd=ROOT).returncode
    binary = build("service_bench")
    workload = args[args.index("--workload") + 1:][:1] if "--workload" in args else []
    if workload == ["all"]:
        return run_all(binary, args)
    code, out = run_one(binary, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
