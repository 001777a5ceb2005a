#!/usr/bin/env python3
"""The dexa benchmark: one command per workload run.

    python3 perfbench/run.py --serve-low-rps <r> --serve-high-rps <r> \
        --serve-tail-limit-ms <ms> \
        --workload <name> --seed <n> --seconds <s> --trace <0|1>

The three --serve-* figures are pinned in the `command` of BENCHMARK.json;
the serve_mix workload offers its fixed low and high rates and searches for
the highest rate whose tail latency meets the limit.

Run from the root of a source checkout. The first run configures and builds
the program and the benchmark binary from source (CMake + Ninja) under
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`); later runs
only check that the build is current. The binary prints a human-readable
report and, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (name -> value). BENCHMARK.json is the
one list of metric names and units: an untraced run reports every
`end_to_end` metric, a traced run every `per_layer` one (a layer the
workload bypasses reads 0). This script checks the names, adds the units
and prints the result as its last line.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up, reference passes and the serve phases' grace periods come on top
# of the measured seconds.
def run_timeout_s(seconds):
    return 100 + 3 * seconds


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then brings the binary and the daemon up to date."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(out), "--target", "dexabench",
             "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "dexabench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-low-rps", type=float, required=True)
    parser.add_argument("--serve-high-rps", type=float, required=True)
    parser.add_argument("--serve-tail-limit-ms", type=float, required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the dexa sources are not in {ROOT}; run from a full checkout")

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")

    work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--low-rps", str(args.serve_low_rps),
               "--high-rps", str(args.serve_high_rps),
               "--tail-limit-ms", str(args.serve_tail_limit_ms)]
    start = time.monotonic()
    timeout_s = run_timeout_s(args.seconds)
    # Own process group, so a timeout also stops the serve daemon the
    # benchmark starts.
    bench_run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
    try:
        stdout, _ = bench_run.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(bench_run.pid, signal.SIGKILL)
        bench_run.communicate()
        fail(f"{args.workload} did not finish within {timeout_s:.0f} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    print(f"# run took {time.monotonic() - start:.1f} s", flush=True)
    if bench_run.returncode != 0 or not lines:
        fail(f"dexabench exited with code {bench_run.returncode}", 1)

    result = json.loads(lines[-1])
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    measured = result["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail(f"metrics {unknown} are not listed in BENCHMARK.json", 1)
    missing = sorted(set(units) - set(measured))
    if missing and not args.trace:
        fail(f"end-to-end metrics {missing} were not measured", 1)
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0.0)
        if value is None or not math.isfinite(value):
            result["correct"] = False
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<38} {value!s:>18} {unit}")
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
