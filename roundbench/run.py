#!/usr/bin/env python3
"""Round-cost benchmark entry point (see README.md).

Builds bench_round from the sources beside this directory, then:

  run.py --workload W --seed N --seconds S --trace 0|1 [--smoke] [--trace-out F]
      one run; the last line of standard output is its JSON result
  run.py --smoke-all
      every workload, untraced and traced, at smoke scale; fails when a run
      fails its checks or its metric names differ from BENCHMARK.json
  run.py --series OUT.json [--runs N] [--first-seed N] [--seconds S] [--workload W ...]
      N untraced runs of each workload (workloads interleaved, one seed per
      round of runs), recorded for --compare
  run.py --compare A.json B.json
      per (workload, end-to-end metric): each side's median and quartiles,
      the paired win fraction, and a verdict against BENCHMARK.json's bounds

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; scratch files go under the build directory too.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def newest_source_mtime():
    newest = 0.0
    for top in (ROOT / "CMakeLists.txt", ROOT / "src", BENCH_DIR):
        files = [top] if top.is_file() else top.rglob("*")
        newest = max([newest, *(f.stat().st_mtime for f in files if f.is_file())])
    return newest


def build():
    """Configures once and rebuilds when a source is newer than the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no sources to build: expected CMakeLists.txt and src/ in {ROOT}")
    out = build_dir() / "roundbench"
    binary = out / "bench_round"
    if binary.is_file() and binary.stat().st_mtime > newest_source_mtime():
        return binary
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bench_round",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return binary


def run(binary, args, capture):
    """Runs bench_round once; returns (exit status, standard output)."""
    command = [str(binary), *args, "--scratch", str(build_dir() / "scratch")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(args))
    return done.returncode, done.stdout or ""


def result_of(output):
    lines = output.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def host_of(output):
    for line in output.splitlines():
        if line.startswith("# host "):
            return json.loads(line[len("# host "):])
    return None


def smoke_all(binary):
    """Runs everything at smoke scale and checks names against BENCHMARK.json."""
    benchmark = spec()
    expected = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
                1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            status, output = run(binary, ["--workload", workload, "--seed", "1",
                                          "--seconds", "1", "--trace", str(trace),
                                          "--smoke"], capture=True)
            result = result_of(output)
            label = f"{workload} trace={trace}"
            if status != 0 or not result or not result.get("correct"):
                problems.append(f"{label}: exit {status}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, not in BENCHMARK.json "
                                f"{extra}, unit differs {units}")
            print(f"{label}: ok ({len(got)} metrics)", file=sys.stderr)
    for problem in problems:
        print("FAILED " + problem, file=sys.stderr)
    return 1 if problems else 0


def series(binary, out, runs, first_seed, seconds, workloads):
    records = []
    for seed in range(first_seed, first_seed + runs):
        for workload in workloads:
            status, output = run(binary, ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"],
                                 capture=True)
            result = result_of(output)
            records.append({"workload": workload, "seed": seed, "status": status,
                            "host": host_of(output), "result": result})
            values = {k: round(v["value"], 3) for k, v in (result or {}).get("metrics", {}).items()}
            print(f"{workload} seed={seed} exit={status} {values}", file=sys.stderr)
    Path(out).write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(r["status"] == 0 for r in records) else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, pairs, better, bound):
    """Guide rule: a gain needs >= 90% paired wins and a median shift wider
    than the parent's quartile spread; a regression is a median worse by more
    than the bound, unresolved when the parent's own spread exceeds it."""
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs) if pairs else 0.0
    spread = (q3a - q1a) / med_a
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if wins >= 0.9 and worse_by < 0 and abs(med_b - med_a) > q3a - q1a:
        return "improved", wins, spread
    if spread > bound:
        return ("unchanged" if all_better else "unresolved"), wins, spread
    if worse_by > bound:
        return "regressed", wins, spread
    return "unchanged", wins, spread


def compare(path_a, path_b):
    metrics = spec()["end_to_end"]
    sides = []
    for path in (path_a, path_b):
        by_workload = {}
        for record in json.loads(Path(path).read_text()):
            if record.get("result"):
                by_workload.setdefault(record["workload"], []).append(record)
        sides.append(by_workload)
    print(f"A = {path_a}   B = {path_b}")
    print(f"{'workload':20} {'metric':14} {'A q1/med/q3':>30} {'B q1/med/q3':>30} "
          f"{'B wins':>7} {'A spread':>8} {'bound':>6}  verdict")
    summary = {}
    for workload in sorted(set(sides[0]) & set(sides[1])):
        # Runs pair up in recorded order (--series runs seeds in order).
        a_runs = [r["result"]["metrics"] for r in sides[0][workload]]
        b_runs = [r["result"]["metrics"] for r in sides[1][workload]]
        for metric in metrics:
            name = metric["name"]
            a = [m[name]["value"] for m in a_runs]
            b = [m[name]["value"] for m in b_runs]
            pairs = list(zip(a, b))
            result, wins, spread = verdict(a, b, pairs, metric["better"], metric["bound"])
            summary.setdefault(workload, []).append(f"{name}={result}")
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{workload:20} {name:14} {qa:>30} {qb:>30} {wins:7.2f} "
                  f"{spread:8.3f} {metric['bound']:6.2f}  {result}")
    print()
    for workload, verdicts in summary.items():
        print(f"{workload}: " + ", ".join(verdicts))
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("usage: run.py --compare A.json B.json")
        return compare(argv[1], argv[2])
    binary = build()
    if argv[:1] == ["--smoke-all"]:
        return smoke_all(binary)
    if argv[:1] == ["--series"]:
        options = {"--runs": "10", "--first-seed": "1", "--seconds": str(spec()["run_seconds"])}
        workloads = []
        rest = argv[2:]
        while rest:
            flag, value, rest = rest[0], rest[1] if len(rest) > 1 else None, rest[2:]
            if value is None or flag not in (*options, "--workload"):
                fail(f"bad --series option {flag}")
            if flag == "--workload":
                workloads.append(value)
            else:
                options[flag] = value
        return series(binary, argv[1], int(options["--runs"]), int(options["--first-seed"]),
                      options["--seconds"],
                      workloads or [w["name"] for w in spec()["workloads"]])
    status, _ = run(binary, argv, capture=False)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
