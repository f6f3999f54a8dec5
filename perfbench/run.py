#!/usr/bin/env python3
"""The repository benchmark: builds grafics_served and the load generator
from source, runs a workload against the real daemon and prints its metrics.

    python3 perfbench/run.py --workload scan-paced --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

With --trace 0 the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (every end-to-end metric); with
--trace 1 the metrics are the per-layer ones. A failed correctness gate
prints no metrics and exits nonzero. Builds go to $CARGO_TARGET_DIR
(default .bench_build) under the checkout root; each run's host record,
gates and metrics are stored in <build>/results/. See perfbench/README.md.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["scan-paced", "bulk-fleet", "ingest-live"]
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "tools" / "grafics_served.cc").is_file():
        fail("no GRAFICS sources beside perfbench/; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    with open(log, "a") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                fail(f"build failed: {' '.join(step)}\n"
                     + log.read_text()[-3000:])
    return out


def commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, inject=None):
    """Runs one workload; returns (exit code, parsed result or None)."""
    program = "perfbench_trace" if trace else "perfbench_load"
    out = build([program, "grafics_served"])
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = out / "runs" / tag
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    command = [str(out / program), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--daemon", str(out / "grafics" / "grafics_served"),
               "--work-dir", str(work),
               "--results", str(results / f"{tag}.json"),
               "--commit", commit()]
    if trace:
        command += ["--spans", str(results / f"{tag}-spans.json")]
    if inject:
        command += ["--inject", inject]
    # Own process group: a timeout kills the program and its daemon.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 124, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    expected = declared_metrics(trace)
    if set(result) != RESULT_KEYS or set(result["metrics"]) != set(expected):
        print(f"perfbench: {workload}: result does not match BENCHMARK.json",
              file=sys.stderr)
        return 3, None
    shutil.rmtree(work, ignore_errors=True)
    if trace:
        report_overhead(results, workload, seed)
    return 0, result


def report_overhead(results, workload, seed):
    """Traced over untraced end-to-end metrics of the same workload and
    seed, when an untraced result exists: the tracing overhead."""
    plain = results / f"{workload}-seed{seed}-trace0.json"
    traced = results / f"{workload}-seed{seed}-trace1.json"
    if not plain.exists():
        return
    base = json.loads(plain.read_text())["metrics"]
    with_trace = json.loads(traced.read_text())["traced_end_to_end"]
    overhead = {name: with_trace[name]["value"] / base[name]["value"] - 1.0
                for name in base if base[name]["value"]}
    (results / f"{workload}-seed{seed}-overhead.json").write_text(
        json.dumps(overhead, indent=1) + "\n")
    for name, share in sorted(overhead.items()):
        print(f"perfbench: tracing overhead {name}: {share:+.1%}",
              file=sys.stderr)


def selftest():
    """Unit checks, a smoke run of every workload, a traced smoke run, and
    the fault injections that must fail the gates."""
    out = build(["perfbench_selftest", "perfbench_load", "perfbench_trace",
                 "grafics_served"])
    failures = []
    if subprocess.run([str(out / "perfbench_selftest")],
                      check=False).returncode != 0:
        failures.append("perfbench_selftest")
    for workload in WORKLOADS:
        code, result = run_one(workload, 1, 2, False)
        if code != 0 or not result["correct"]:
            failures.append(f"smoke {workload}")
    code, _ = run_one("scan-paced", 1, 2, True)
    if code != 0:
        failures.append("traced smoke scan-paced")
    for workload, inject in [("scan-paced", "corrupt-answer"),
                             ("bulk-fleet", "corrupt-answer"),
                             ("ingest-live", "skip-fold")]:
        code, result = run_one(workload, 1, 2, False, inject)
        if code == 0 or result is not None:
            failures.append(f"{inject} on {workload} was not caught")
    for failure in failures:
        print(f"perfbench: selftest FAILED: {failure}", file=sys.stderr)
    print("perfbench selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        if result is not None:
            print(json.dumps(result))
        return code
    status = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds,
                               bool(args.trace))
        print(f"{workload}: " + ("ok" if code == 0 else f"FAILED ({code})"))
        if result is None:
            status = code
            continue
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
        print(f"  attempted {result['attempted']}, failed {result['failed']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
