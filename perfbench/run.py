#!/usr/bin/env python3
"""Build and run the EDR benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n> --seconds <s> --trace <0|1>]
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the
repository's libraries from src/) into the directory named by
CARGO_TARGET_DIR when it lies inside the checkout, else .bench_build/.
Build output goes to stderr.  The benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  Exit status is
the benchmark's: 0 when every output was correct, non-zero otherwise, and
non-zero without a result when the sources are missing or do not build.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# Seconds after which a hung benchmark process is killed, so a run still
# ends within three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        path = (ROOT / target).resolve()
        if path == ROOT or ROOT in path.parents:
            return path
    return ROOT / ".bench_build"


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no EDR sources at {ROOT} (need CMakeLists.txt and src/)")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "--target", "edr_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return out / "edr_perfbench"


def run(binary, args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"killed after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 3, []
    return proc.returncode, stdout.splitlines()


def result_of(lines):
    """The result object on the last stdout line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def selftest(binary):
    """Tiny runs of every workload: every metric named in BENCHMARK.json is
    emitted with its unit, every gate passes, and the feasibility gate
    rejects perturbed allocations."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    code, lines = run(binary, ["--selftest"])
    if code != 0:
        failures.append("feasibility gate self-test failed")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            before = len(failures)
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--tiny"]
            code, lines = run(binary, args)
            result = result_of(lines)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or result["correct"] is not True:
                failures.append(f"{where}: exit {code}, result {result}")
                log(f"selftest {where}: FAILED")
                continue
            if result["attempted"] < 1:
                failures.append(f"{where}: nothing attempted")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m.get("unit") for name, m in metrics.items()}
            if got != want:
                failures.append(f"{where}: metrics {sorted(got.items())} != "
                                f"{sorted(want.items())}")
            for name, m in metrics.items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{where}: {name} = {value!r}")
            log(f"selftest {where}: "
                + ("ok" if len(failures) == before else "FAILED"))
    for failure in failures:
        log(f"SELFTEST FAILURE: {failure}")
    print("selftest: " + ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def run_all(binary, args):
    """Every workload of BENCHMARK.json in turn, as a table of metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        code, lines = run(binary, ["--workload", workload,
                                   "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
        result = result_of(lines)
        if result is None:
            print(f"{workload:15s} no result (exit {code})")
            status = status or code or 3
            continue
        print(f"{workload:15s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"{'':15s} {name:36s} {metric['value']:>16.6g} "
                  f"{metric['unit']}")
        status = status or code
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny runs of every workload, then exit")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload == "all":
        return run_all(binary, args)
    code, lines = run(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
    result = result_of(lines)
    if result is None:
        # Never print a partial result: the last line must be the object.
        for line in lines:
            print(line, file=sys.stderr)
        log(f"no result (exit {code})")
        return code if code != 0 else 3
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
