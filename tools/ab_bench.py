#!/usr/bin/env python3
"""A/B benchmark of this checkout against an older commit.

    python3 tools/ab_bench.py --base REV --workload W --pairs N
    python3 tools/ab_bench.py --self-test

Exports REV's committed tree into a temporary directory, which is removed
on exit, and runs perfbench/run.py unchanged there and in this checkout.
Each side builds into its own directory: the base's is temporary, the
change's is run.py's default .bench_build. After one untimed 1-second run per
side to build both, the tool runs BENCHMARK.json's run_seconds per run,
alternating ABBA over seeds 1..N: odd seeds run the base first, even seeds
the change. Run s of one side pairs with run s of the other.

It writes BENCH_<W>.json at the checkout root. The file holds the host
record, both commits, the seeds and run length, and, for each end-to-end
metric, each side's median and quartiles, the change's win count and a
verdict against the metric's bound:
  worse       the change's median is worse by more than the bound;
  better      the change wins >= 90% of the pairs and its median moved the
              right way by more than the base's interquartile range;
  unresolved  neither, the base's own interquartile spread exceeds the
              bound, so the pairs cannot tell a move of that size from
              noise, and not every change run beats every base run;
  no worse    otherwise.
Each metric also lists every run's value per side, in seed order.
A run that exits nonzero, prints no JSON result line or reports
correct: false stops the tool, which prints that run's stderr.
"""
import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def check_run(side, seed, code, stdout, stderr):
    """Parses run.py's last stdout line; stops the tool on a failed run."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    correct = result.get("correct") if isinstance(result, dict) else None
    if not correct:
        sys.stderr.write(stderr)
        raise SystemExit(f"ab_bench: {side} run at seed {seed} failed "
                         f"(exit {code}, correct: {correct})")
    return result


def compare(spec, base_runs, change_runs):
    """Per-metric medians, quartiles, wins and verdicts of paired runs."""
    pairs = len(base_runs)
    report = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lower = metric["better"] == "lower"
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        relative = c_med / b_med - 1.0 if b_med else 0.0
        worse_by = relative if lower else -relative
        spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
        improved = (c_med < b_med) if lower else (c_med > b_med)
        every_run_better = (max(change) < min(base)) if lower else (
            min(change) > max(base))
        if worse_by > metric["bound"]:
            verdict = "worse"
        elif (improved and wins >= math.ceil(0.9 * pairs)
              and abs(c_med - b_med) > b_q3 - b_q1):
            verdict = "better"
        elif spread > metric["bound"] and not every_run_better:
            verdict = "unresolved"
        else:
            verdict = "no worse"
        report[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "base": {"q1": b_q1, "median": b_med, "q3": b_q3, "runs": base},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3,
                       "runs": change},
            "relative_change": relative, "base_spread": spread,
            "change_wins": wins, "past_bound": worse_by > metric["bound"],
            "verdict": verdict,
        }
    return report


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(rev, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_side(checkout, build, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def ab(base_rev, workload, pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base_commit = git("rev-parse", base_rev)
    change_commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ab_bench-"))
    # A SIGTERM unwinds through the finally below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        base_tree = scratch / "base"
        export_tree(base_commit, base_tree)
        # The change side keeps run.py's default build directory, so
        # repeated comparisons rebuild only what changed.
        sides = {"base": (base_tree, scratch / "base-build"),
                 "change": (ROOT, ROOT / ".bench_build")}
        for side, (checkout, build) in sides.items():
            check_run(side, 0, *run_side(checkout, build, workload, 0, 1))
        runs = {"base": [], "change": []}
        for seed in range(1, pairs + 1):
            order = ["base", "change"] if seed % 2 else ["change", "base"]
            for side in order:
                checkout, build = sides[side]
                result = check_run(side, seed, *run_side(
                    checkout, build, workload, seed, seconds))
                runs[side].append(result)
                print(f"ab_bench: {workload} seed {seed} {side}: "
                      f"predict_p50_ms "
                      f"{result['metrics']['predict_p50_ms']['value']:.4g}",
                      file=sys.stderr)
        host_file = (sides["change"][1] / "results"
                     / f"{workload}-seed1-trace0.json")
        host = json.loads(host_file.read_text())["host"]
        for key in ("commit", "seed", "seconds", "workload"):
            host.pop(key, None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {
        "workload": workload,
        "host": host,
        "base_commit": base_commit,
        "change_commit": change_commit + ("+uncommitted" if dirty else ""),
        "seeds": list(range(1, pairs + 1)),
        "order": "ABBA: odd seeds run the base first",
        "run_seconds": seconds,
        "metrics": compare(spec, runs["base"], runs["change"]),
    }
    out = ROOT / f"BENCH_{workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, row in record["metrics"].items():
        print(f"{name:16s} base {row['base']['median']:10.4g} "
              f"change {row['change']['median']:10.4g} "
              f"({row['relative_change']:+7.1%}) wins "
              f"{row['change_wins']}/{pairs}  {row['verdict']}")
    print(f"wrote {out}")
    return 0


def self_test():
    """compare() and check_run() on canned run lines."""
    spec = {"end_to_end": [
        {"name": "predict_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "micro_f1", "unit": "ratio", "better": "higher",
         "bound": 0.04},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}

    def line(p50, f1, setup):
        return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                           "metrics": {
                               "predict_p50_ms": {"value": p50, "unit": "ms"},
                               "micro_f1": {"value": f1, "unit": "ratio"},
                               "setup_s": {"value": setup, "unit": "s"}}})

    base = [check_run("base", s, 0, "build log\n" + line(p, f, t), "")
            for s, (p, f, t) in enumerate(
                [(1.0, 0.85, 0.010), (1.1, 0.85, 0.020), (0.9, 0.86, 0.008),
                 (1.0, 0.84, 0.016)], start=1)]
    change = [check_run("change", s, 0, line(p, f, t), "")
              for s, (p, f, t) in enumerate(
                  [(0.5, 0.92, 0.011), (0.45, 0.91, 0.009),
                   (0.55, 0.92, 0.020), (0.5, 0.93, 0.012)], start=1)]
    report = compare(spec, base, change)
    failures = []

    def expect(what, got, want):
        close = (isinstance(want, float) and isinstance(got, float)
                 and math.isclose(got, want))
        if got != want and not close:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    expect("base p50 median", report["predict_p50_ms"]["base"]["median"], 1.0)
    expect("base p50 q1", report["predict_p50_ms"]["base"]["q1"], 0.975)
    expect("change p50 q3", report["predict_p50_ms"]["change"]["q3"], 0.5125)
    expect("p50 wins", report["predict_p50_ms"]["change_wins"], 4)
    expect("p50 verdict", report["predict_p50_ms"]["verdict"], "better")
    expect("f1 verdict", report["micro_f1"]["verdict"], "better")
    expect("setup verdict", report["setup_s"]["verdict"], "unresolved")
    worse = compare(spec, change, base)
    expect("worse p50", worse["predict_p50_ms"]["verdict"], "worse")
    expect("worse p50 past bound", worse["predict_p50_ms"]["past_bound"],
           True)
    expect("flat f1", compare(spec, base, base)["micro_f1"]["verdict"],
           "no worse")
    for run in change:
        run["metrics"]["setup_s"]["value"] /= 4
    expect("setup, every run faster by more than the base IQR",
           compare(spec, base, change)["setup_s"]["verdict"], "better")
    # Every change run beats every base run, but the median moves by less
    # than the base's wide quartile range: not better, and not unresolved.
    for run, value in zip(base, [1.0, 1.1, 3.0, 4.0]):
        run["metrics"]["setup_s"]["value"] = value
    for run, value in zip(change, [0.9, 0.95, 0.92, 0.97]):
        run["metrics"]["setup_s"]["value"] = value
    expect("setup, every run faster by less than the base IQR",
           compare(spec, base, change)["setup_s"]["verdict"], "no worse")
    failed_runs = [
        (line(1.0, 0.9, 0.01).replace('"correct": true', '"correct": false'),
         0),
        ("", 1),
        ("build log\nSegmentation fault", 0),
    ]
    for stdout, code in failed_runs:
        printed = io.StringIO()
        try:
            with contextlib.redirect_stderr(printed):
                check_run("change", 1, code, stdout, "canned stderr\n")
            failures.append(f"a failed run ({stdout[-20:]!r}, exit {code}) "
                            "did not stop")
        except SystemExit:
            if "canned stderr" not in printed.getvalue():
                failures.append(f"a failed run ({stdout[-20:]!r}, exit "
                                f"{code}) did not print its stderr")
    for failure in failures:
        print(f"ab_bench self-test FAILED: {failure}", file=sys.stderr)
    print("ab_bench self-test:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="commit to compare against")
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.workload is None or args.pairs < 1:
        parser.error("--base, --workload and --pairs >= 1 are required")
    return ab(args.base, args.workload, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
