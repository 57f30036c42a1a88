#!/usr/bin/env python3
"""Validates the schema of BENCH_micro.json (google-benchmark JSON output).

Used by the bench-smoke ctest label: after a short benchmark run, checks that
every key benchmark is present and carries the fields the perf trajectory in
BENCH_micro.json relies on — ns/op (real_time) and the allocation counters
reported by the counting allocator in bench/micro_benchmarks.cpp.

Bench credibility: the binary self-reports its build type (kmsg_build_type
context key, stamped from CMAKE_BUILD_TYPE). Numbers from unoptimized builds
are refused outright — Debug/empty build types fail the check. Optimized
non-Release builds (RelWithDebInfo, or sanitized builds) pass with a loud
warning so the default dev workflow keeps working, but their numbers must not
be committed as the perf trajectory.
"""
import json
import sys

REQUIRED_BENCHMARKS = [
    "BM_ByteBufWritePrimitives",
    "BM_FrameDecode",
    # The bulk receive path: 65 kB frames fed to the decoder as the segment
    # views the stream transports deliver.
    "BM_FrameDecodeSegments",
    "BM_MessageSerializeRoundTrip",
    # The bulk send path: a fresh 65 kB chunk generated, serialised and
    # framed in the one slab the generator wrote.
    "BM_ChunkSerializeFrame",
    "BM_SimulatorEventThroughput",
    "BM_ShardedSimThroughput/1",
    "BM_ShardedSimThroughput/2",
    "BM_ShardedSimThroughput/4",
    "BM_ShardedSimThroughput/8",
    "BM_KompicsEventDispatch",
    # Work-stealing runtime: shard-local rings (plain/local path) and
    # cross-shard rings (escalated path). UseRealTime+MeasureProcessCPUTime
    # stamp the name suffixes.
    "BM_MultiCoreDispatch/1/process_time/real_time",
    "BM_MultiCoreDispatch/2/process_time/real_time",
    "BM_MultiCoreDispatch/4/process_time/real_time",
    "BM_MultiCoreDispatch/8/process_time/real_time",
    "BM_MultiCoreDispatchCross/1/process_time/real_time",
    "BM_MultiCoreDispatchCross/2/process_time/real_time",
    "BM_MultiCoreDispatchCross/4/process_time/real_time",
    "BM_MultiCoreDispatchCross/8/process_time/real_time",
    # Wire efficiency: bytes_per_msg is the gated metric (delta encoding +
    # frame coalescing on the many-small-messages workload).
    "BM_SmallMsgWireBaseline",
    "BM_SmallMsgWireDelta",
    "BM_SmallMsgWireCoalesce",
    "BM_SmallMsgWireBoth",
    # The bulk path's per-byte kernels: the test-data generator and checker
    # (one splitmix64 per 8 bytes) and the frame CRC, over one 65 kB chunk.
    "BM_PayloadGeneration",
    "BM_PayloadVerify",
    "BM_Crc32",
]
REQUIRED_FIELDS = ["name", "real_time", "cpu_time", "time_unit", "iterations"]
REQUIRED_COUNTERS = ["allocs_per_op", "alloc_bytes_per_op"]
# Per-benchmark counters beyond the allocation pair.
EXTRA_COUNTERS = {
    "BM_FrameDecode": ["decoder_copied_per_op", "grow_copied_per_op"],
    "BM_FrameDecodeSegments": ["decoder_copied_per_op", "grow_copied_per_op"],
    "BM_ChunkSerializeFrame": ["payload_copied_per_op"],
    "BM_SmallMsgWireBaseline": ["bytes_per_msg"],
    "BM_SmallMsgWireDelta": ["bytes_per_msg"],
    "BM_SmallMsgWireCoalesce": ["bytes_per_msg"],
    "BM_SmallMsgWireBoth": ["bytes_per_msg"],
}
# Delta + coalescing must cut bytes/msg by at least this much vs the plain
# per-message framing baseline (the headline wire-efficiency claim). Byte
# counts are deterministic, so this holds in any build type.
WIRE_REDUCTION_FLOOR_PCT = 40.0
# The decoder cuts frames out of adjacent segment views in place: any byte
# it copies on that path fails the check. Deterministic, so hard in every
# build type.
SEGMENT_DECODE_MAX_COPIED = 0.0
# BM_FrameDecode feeds its 64-frame stream (64 x 1,008 bytes) as one
# borrowed chunk: the decoder copies exactly those bytes once per op.
FRAME_DECODE_COPIED = 64 * 1008.0
# Neither decode row moves a byte the decoder already holds to a fresh slab.
DECODE_MAX_MOVED = 0.0
# The serialiser writes a fresh chunk's envelope in front of its payload:
# any payload byte it copies fails the check. Deterministic, so hard in
# every build type.
CHUNK_SERIALIZE_MAX_COPIED = 0.0

# Build types with full optimization; anything else is refused.
OPTIMIZED_BUILD_TYPES = {"Release", "RelWithDebInfo", "MinSizeRel"}


def fail(msg):
    print(f"bench json schema error: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print(f"bench json WARNING: {msg}", file=sys.stderr)


def check_build_type(context):
    build_type = context.get("kmsg_build_type")
    if build_type is None:
        fail(
            "context is missing 'kmsg_build_type' — the benchmark binary was "
            "built without the build-type stamp (rebuild micro_benchmarks)"
        )
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail(
            f"refusing benchmark numbers from a '{build_type}' build — "
            "benchmarks are only meaningful with optimization "
            "(configure with -DCMAKE_BUILD_TYPE=Release)"
        )
    sanitized = context.get("kmsg_sanitized") == "yes"
    if build_type != "Release" or sanitized:
        why = f"build type {build_type}" + (" with sanitizers" if sanitized else "")
        warn(
            f"numbers come from {why}, not a plain Release build — fine for "
            "the smoke check, but do NOT commit them to BENCH_micro.json"
        )
    return build_type


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench_json.py <BENCH_micro.json>")
    try:
        with open(sys.argv[1]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {sys.argv[1]}: {e}")

    if "context" not in doc:
        fail("missing top-level 'context'")
    build_type = check_build_type(doc["context"])
    benches = {b.get("name"): b for b in doc.get("benchmarks", [])}
    if not benches:
        fail("no 'benchmarks' array")

    for name in REQUIRED_BENCHMARKS:
        b = benches.get(name)
        if b is None:
            fail(f"benchmark {name} missing from output")
        for field in REQUIRED_FIELDS:
            if field not in b:
                fail(f"{name}: missing field '{field}'")
        for counter in REQUIRED_COUNTERS + EXTRA_COUNTERS.get(name, []):
            if counter not in b:
                fail(f"{name}: missing counter '{counter}'")
        if b["time_unit"] != "ns":
            fail(f"{name}: expected time_unit ns, got {b['time_unit']}")
        if b["real_time"] <= 0:
            fail(f"{name}: non-positive real_time")

    baseline_bpm = benches["BM_SmallMsgWireBaseline"]["bytes_per_msg"]
    both_bpm = benches["BM_SmallMsgWireBoth"]["bytes_per_msg"]
    if baseline_bpm <= 0:
        fail("BM_SmallMsgWireBaseline: non-positive bytes_per_msg")
    reduction_pct = (1.0 - both_bpm / baseline_bpm) * 100.0
    if reduction_pct < WIRE_REDUCTION_FLOOR_PCT:
        fail(
            f"wire efficiency floor broken: delta+coalescing achieves only "
            f"{reduction_pct:.1f}% bytes/msg reduction over baseline "
            f"({baseline_bpm:.1f} -> {both_bpm:.1f}), "
            f"floor is {WIRE_REDUCTION_FLOOR_PCT:.0f}%"
        )
    print(
        f"ok: wire efficiency {baseline_bpm:.1f} -> {both_bpm:.1f} bytes/msg "
        f"({reduction_pct:.1f}% reduction, floor {WIRE_REDUCTION_FLOOR_PCT:.0f}%)"
    )
    segment_copied = benches["BM_FrameDecodeSegments"]["decoder_copied_per_op"]
    if segment_copied > SEGMENT_DECODE_MAX_COPIED:
        fail(
            f"BM_FrameDecodeSegments: the decoder copied {segment_copied:.1f} "
            f"bytes per op of segment views, limit "
            f"{SEGMENT_DECODE_MAX_COPIED:.0f}"
        )
    print(f"ok: segment views decoded with {segment_copied:.0f} bytes copied")
    stream_copied = benches["BM_FrameDecode"]["decoder_copied_per_op"]
    if stream_copied != FRAME_DECODE_COPIED:
        fail(
            f"BM_FrameDecode: the decoder copied {stream_copied:.1f} bytes per "
            f"op of a borrowed stream of {FRAME_DECODE_COPIED:.0f}, which it "
            f"must copy exactly once"
        )
    for name in ("BM_FrameDecode", "BM_FrameDecodeSegments"):
        moved = benches[name]["grow_copied_per_op"]
        if moved > DECODE_MAX_MOVED:
            fail(
                f"{name}: the decoder moved {moved:.1f} bytes per op to fresh "
                f"slabs, limit {DECODE_MAX_MOVED:.0f}"
            )
    print(
        f"ok: a borrowed stream copied once ({stream_copied:.0f} bytes), "
        f"no decoder bytes moved"
    )
    chunk_copied = benches["BM_ChunkSerializeFrame"]["payload_copied_per_op"]
    if chunk_copied > CHUNK_SERIALIZE_MAX_COPIED:
        fail(
            f"BM_ChunkSerializeFrame: serialising and framing a fresh chunk "
            f"copied {chunk_copied:.1f} payload bytes per op, limit "
            f"{CHUNK_SERIALIZE_MAX_COPIED:.0f}"
        )
    print(f"ok: fresh chunks serialised with {chunk_copied:.0f} bytes copied")
    print(
        f"ok: {len(REQUIRED_BENCHMARKS)} benchmarks validated "
        f"(build type: {build_type})"
    )


if __name__ == "__main__":
    main()
