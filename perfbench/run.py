#!/usr/bin/env python3
"""One command for the benchmark of the paper's workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the optimized benchmark binary from the
sources (perfbench/CMakeLists.txt, build tree under $CARGO_TARGET_DIR or
.bench_build), runs one workload, checks the simulated results against the
golden values recorded in perfbench/golden.json, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, preceded by the attribution table.

    python3 perfbench/run.py --record-golden

re-records golden.json; do that only in a change that means to alter the
simulated results. See perfbench/README.md.
"""
import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
WORKLOADS = ["bulk_tcp", "adaptive_wan", "small_msgs", "gossip_sharded"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A run must end within 180 s; leave room for the build check and start-up.
RUN_TIMEOUT_S = 170
REFUSED_BUILD_TYPES = {"", "Debug"}


class BenchError(Exception):
    """The benchmark cannot produce a result (bad build, bad binary output)."""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--parallel", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def check_names(spec):
    """Returns the grammar violations in BENCHMARK.json's metric names/units."""
    problems = []
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(group, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"bad name {name!r}")
            if name in seen:
                problems.append(f"duplicate name {name!r}")
            seen.add(name)
            if group != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                problems.append(f"bad unit {entry.get('unit')!r} for {name}")
    return problems


def golden_mismatches(expected, observed):
    """Lists every simulated value in `observed` ({seed: {key: value}}) that
    differs from `expected` for the seeds `expected` records."""
    problems = []
    for seed, values in expected.items():
        got = observed.get(seed)
        if got is None:
            problems.append(f"seed {seed}: no simulated results reported")
            continue
        for key in sorted(set(values) | set(got)):
            if values.get(key) != got.get(key):
                problems.append(f"seed {seed}: {key} = {got.get(key)!r}, "
                                f"recorded {values.get(key)!r}")
    return problems


def check_stamp(stamp):
    if stamp.get("build_type") in REFUSED_BUILD_TYPES:
        raise BenchError(f"refusing numbers from a {stamp.get('build_type')!r} build")
    if stamp.get("sanitizer") != "none":
        raise BenchError(f"refusing numbers from a {stamp.get('sanitizer')} build")


def run_binary(binary, workload, seed, seconds, trace, golden_seeds, tiny=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden-seeds", ",".join(str(s) for s in golden_seeds)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"benchmark binary exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    check_stamp(report["stamp"])
    return lines[:-1], report


def select_metrics(spec, report, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = report["metrics"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in got:
            raise BenchError(f"binary did not report metric {name}")
        if got[name]["unit"] != entry["unit"]:
            raise BenchError(f"{name}: unit {got[name]['unit']!r}, "
                             f"declared {entry['unit']!r}")
        if got[name]["value"] is None:
            raise BenchError(f"{name}: not a finite number")
        metrics[name] = {"value": got[name]["value"], "unit": entry["unit"]}
    return metrics


def record_golden(binary):
    golden = load_golden() if os.path.exists(GOLDEN_PATH) else {
        "default_seed": 1, "heldout_seed": 2, "workloads": {}}
    seeds = [golden["default_seed"], golden["heldout_seed"]]
    for workload in WORKLOADS:
        _, report = run_binary(binary, workload, seeds[0], 0, 0, seeds)
        if report["failed"] or not report["deterministic"]:
            raise BenchError(f"{workload}: failed operations while recording")
        golden["workloads"][workload] = {str(s): report["sim"][str(s)] for s in seeds}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"recorded {GOLDEN_PATH}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        binary = build()
        if args.record_golden:
            record_golden(binary)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        problems = check_names(spec)
        if problems:
            raise BenchError("BENCHMARK.json: " + "; ".join(problems))
        golden = load_golden()
        seeds = [golden["default_seed"], golden["heldout_seed"]]
        text, report = run_binary(binary, args.workload, args.seed, args.seconds,
                                  args.trace, seeds)
        metrics = select_metrics(spec, report, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    mismatches = golden_mismatches(golden["workloads"].get(args.workload, {}),
                                   report["sim"])
    for line in mismatches:
        print(f"perfbench: golden mismatch: {line}", file=sys.stderr)
    attempted = max(1, report["attempted"])
    failed = attempted if mismatches else report["failed"]
    for line in text:
        print(line)
    print("stamp: " + json.dumps(report["stamp"], sort_keys=True))
    result = {
        "correct": failed == 0 and report["deterministic"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
