#!/usr/bin/env python3
"""CI perf-regression gate.

Diffs a fresh google-benchmark JSON run (build/BENCH_micro.json) against the
committed perf trajectory (BENCH_micro.json at the repo root) and fails if any
benchmark regressed by more than --threshold (default 15%) in ns/op.

Benchmarks reporting a bytes_per_msg counter (the wire-efficiency rows) are
additionally gated on it with --bytes-threshold (default 5%). Byte counts are
deterministic — they do not depend on build type or host load — so this gate
is a hard failure even when the timing gate is soft.

allocs_per_op is gated the same way on the single-threaded rows (those
without a gate_metric): a row fails when it reads more than 5% plus 0.05
above its committed after_allocs_per_op. The 0.05 absorbs the harness's own
amortised allocations, which are spread over a host-dependent iteration
count. The threaded rows' counts depend on thread interleaving, so they only
warn, as their timings do.

The committed file is the curated trajectory format ({"benchmarks": {name:
{"after_ns_per_op": ...}}}); the fresh file is raw google-benchmark output
({"benchmarks": [{"name": ..., "real_time": ...}]}). Both shapes are accepted
on either side so the script also works for raw-vs-raw comparisons.

The timing gate is only a hard failure for plain Release builds on the host
class the baseline was stamped on. Under sanitizers, any non-Release build
type, or a CPU count (the fresh context.num_cpus) other than the baseline's
machine.num_cpus, the timings are not comparable to the committed numbers, so
the diff is printed and regressions are reported as warnings (exit 0).
Benchmarks present on only one side are reported but never fatal — new
benchmarks have no baseline yet and retired ones have no current number.
"""
import argparse
import json
import sys

# allocs_per_op limit: committed value * (1 + pct/100) + slack.
ALLOCS_THRESHOLD_PCT = 5.0
ALLOCS_SLACK = 0.05


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench regression error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)


def ns_per_op(doc):
    """Returns {benchmark name: {metric: ns/op, ...}} from either JSON shape.

    Metrics are "real_time" and (when present) "cpu_time". A curated entry
    may also set "gate_metric": "cpu_time" — used for multi-threaded
    benchmarks on small hosts, where wall-clock is dominated by kernel
    scheduling noise while CPU time per op is stable and enforceable.
    """
    benches = doc.get("benchmarks")
    out = {}
    if isinstance(benches, list):  # raw google-benchmark output
        for b in benches:
            name = b.get("name")
            if name is None:
                continue
            entry = {}
            for metric in ("real_time", "cpu_time"):
                t = b.get(metric)
                if isinstance(t, (int, float)) and t > 0:
                    entry[metric] = float(t)
            if entry:
                out[name] = entry
    elif isinstance(benches, dict):  # curated trajectory format
        for name, e in benches.items():
            entry = {}
            t = e.get("after_ns_per_op")
            if isinstance(t, (int, float)) and t > 0:
                entry["real_time"] = float(t)
            t = e.get("after_cpu_ns_per_op")
            if isinstance(t, (int, float)) and t > 0:
                entry["cpu_time"] = float(t)
            if e.get("gate_metric") in ("real_time", "cpu_time"):
                entry["gate_metric"] = e["gate_metric"]
            if entry:
                out[name] = entry
    return out


def bytes_per_msg(doc):
    """Returns {benchmark name: bytes_per_msg} from either JSON shape."""
    benches = doc.get("benchmarks")
    out = {}
    if isinstance(benches, list):  # raw: user counters are direct keys
        for b in benches:
            name = b.get("name")
            v = b.get("bytes_per_msg")
            if name is not None and isinstance(v, (int, float)) and v > 0:
                out[name] = float(v)
    elif isinstance(benches, dict):  # curated trajectory format
        for name, e in benches.items():
            v = e.get("after_bytes_per_msg")
            if isinstance(v, (int, float)) and v > 0:
                out[name] = float(v)
    return out


def allocs_per_op(doc):
    """Returns {benchmark name: allocs_per_op} from either JSON shape."""
    benches = doc.get("benchmarks")
    out = {}
    if isinstance(benches, list):  # raw: user counters are direct keys
        for b in benches:
            name = b.get("name")
            v = b.get("allocs_per_op")
            if name is not None and isinstance(v, (int, float)) and v >= 0:
                out[name] = float(v)
    elif isinstance(benches, dict):  # curated trajectory format
        for name, e in benches.items():
            v = e.get("after_allocs_per_op")
            if isinstance(v, (int, float)) and v >= 0:
                out[name] = float(v)
    return out


def num_cpus(doc):
    """The CPU count a run was stamped with: context.num_cpus in raw
    google-benchmark output, machine.num_cpus in the curated trajectory."""
    for section in ("context", "machine"):
        n = doc.get(section, {}).get("num_cpus")
        if isinstance(n, int):
            return n
    return None


def soft_reason(fresh_doc, base_doc):
    """Why the fresh timings are not comparable to the baseline's, or None."""
    ctx = fresh_doc.get("context", {})
    if ctx.get("kmsg_sanitized") == "yes":
        return "sanitized build"
    build_type = ctx.get("kmsg_build_type", "Release")
    if build_type != "Release":
        return f"{build_type} build"
    fresh_cpus, base_cpus = num_cpus(fresh_doc), num_cpus(base_doc)
    if fresh_cpus != base_cpus:
        return f"{fresh_cpus}-CPU host vs a {base_cpus}-CPU baseline"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="freshly generated benchmark JSON")
    ap.add_argument("baseline", help="committed baseline (trajectory or raw)")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="max allowed ns/op regression in percent")
    ap.add_argument("--bytes-threshold", type=float, default=5.0,
                    help="max allowed bytes_per_msg regression in percent")
    args = ap.parse_args()

    fresh_doc = load(args.fresh)
    base_doc = load(args.baseline)
    fresh = ns_per_op(fresh_doc)
    base = ns_per_op(base_doc)
    if not fresh:
        print(f"bench regression error: no timings in {args.fresh}",
              file=sys.stderr)
        sys.exit(1)
    if not base:
        print(f"bench regression error: no timings in {args.baseline}",
              file=sys.stderr)
        sys.exit(1)

    reason = soft_reason(fresh_doc, base_doc)
    soft = reason is not None
    regressions = []
    for name in sorted(set(fresh) & set(base)):
        # The baseline entry picks the gated metric (default wall-clock).
        metric = base[name].get("gate_metric", "real_time")
        b = base[name].get(metric)
        f = fresh[name].get(metric)
        if b is None or f is None:
            print(f"{name}: metric '{metric}' missing on one side, skipped")
            continue
        delta_pct = (f / b - 1.0) * 100.0
        marker = ""
        if delta_pct > args.threshold:
            regressions.append((name, delta_pct))
            marker = "  <-- REGRESSION" if not soft else "  <-- regression (soft)"
        tag = " (cpu)" if metric == "cpu_time" else ""
        print(f"{name}: {b:.1f} -> {f:.1f} ns/op{tag} ({delta_pct:+.1f}%){marker}")
    for name in sorted(set(base) - set(fresh)):
        print(f"{name}: missing from fresh run (no current number)")
    for name in sorted(set(fresh) - set(base)):
        print(f"{name}: no committed baseline (new benchmark)")

    # Wire-efficiency gate: bytes/msg must not creep back up. Deterministic,
    # so enforced regardless of build type.
    fresh_bytes = bytes_per_msg(fresh_doc)
    base_bytes = bytes_per_msg(base_doc)
    byte_regressions = []
    for name in sorted(set(fresh_bytes) & set(base_bytes)):
        b, f = base_bytes[name], fresh_bytes[name]
        delta_pct = (f / b - 1.0) * 100.0
        marker = ""
        if delta_pct > args.bytes_threshold:
            byte_regressions.append((name, delta_pct))
            marker = "  <-- BYTES REGRESSION"
        print(f"{name}: {b:.1f} -> {f:.1f} bytes/msg ({delta_pct:+.1f}%){marker}")
    # Allocation gate: hard on the single-threaded rows in every build type.
    fresh_allocs = allocs_per_op(fresh_doc)
    base_allocs = allocs_per_op(base_doc)
    alloc_regressions = []
    alloc_warnings = []
    for name in sorted(set(fresh_allocs) & set(base_allocs)):
        b, f = base_allocs[name], fresh_allocs[name]
        limit = b * (1.0 + ALLOCS_THRESHOLD_PCT / 100.0) + ALLOCS_SLACK
        threaded = "gate_metric" in base.get(name, {})
        marker = ""
        if f > limit:
            if threaded:
                alloc_warnings.append((name, b, f))
                marker = "  <-- allocs regression (soft, threaded)"
            else:
                alloc_regressions.append((name, b, f))
                marker = "  <-- ALLOCS REGRESSION"
        print(f"{name}: {b:.3f} -> {f:.3f} allocs/op (limit {limit:.3f})"
              f"{marker}")
    if alloc_warnings:
        summary = ", ".join(f"{n} {b:.3f} -> {f:.3f}"
                            for n, b, f in alloc_warnings)
        print(f"bench regression WARNING (threaded allocs/op, not enforced): "
              f"{summary}", file=sys.stderr)

    failed = False
    if byte_regressions:
        summary = ", ".join(f"{n} +{d:.1f}%" for n, d in byte_regressions)
        print(f"bench regression FAILURE (>{args.bytes_threshold:.0f}% "
              f"bytes/msg): {summary}", file=sys.stderr)
        failed = True
    if alloc_regressions:
        summary = ", ".join(f"{n} {b:.3f} -> {f:.3f}"
                            for n, b, f in alloc_regressions)
        print(f"bench regression FAILURE (>{ALLOCS_THRESHOLD_PCT:.0f}% + "
              f"{ALLOCS_SLACK} allocs/op): {summary}", file=sys.stderr)
        failed = True
    if failed:
        sys.exit(1)

    if regressions:
        summary = ", ".join(f"{n} +{d:.1f}%" for n, d in regressions)
        if soft:
            print(f"bench regression WARNING ({reason}, not enforced): "
                  f"{summary}", file=sys.stderr)
            sys.exit(0)
        print(f"bench regression FAILURE (>{args.threshold:.0f}% ns/op): "
              f"{summary}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: no benchmark regressed more than {args.threshold:.0f}% "
          f"against {args.baseline}")


if __name__ == "__main__":
    main()
