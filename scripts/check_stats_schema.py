#!/usr/bin/env python3
"""Validates a `herd --stats=json` document (and optionally a
`--trace-json` timeline) against the stable herd-stats schema.

This is the reference consumer of the schema contract declared in
src/herd/StatsJson.h: the envelope pair ("schema", "version") is checked
first and the script refuses documents it does not understand; within a
version, the required keys below may gain siblings but never disappear or
change type.  CI runs this against the artifacts of the observability
smoke job, so a field rename or type change fails the build instead of
silently breaking downstream dashboards.

Usage:
  check_stats_schema.py stats.json [--trace trace.json]

Exit status: 0 when everything validates, 1 on any violation (each is
printed), 2 on usage/IO errors.
"""

import json
import sys

SCHEMA_NAME = "herd-stats"
SCHEMA_VERSION = 3

# Required key -> type (or tuple of types) per section.  Lists map each
# element against the given element spec.
DETECTOR_KEYS = {
    "events_in": int,
    "owned_filtered": int,
    "weaker_filtered": int,
    "races_reported": int,
    "locations_tracked": int,
    "locations_shared": int,
    "trie_nodes": int,
}

TOP_LEVEL_KEYS = {
    "schema": str,
    "version": int,
    "run": dict,
    "timings": dict,
    "static": dict,
    "instrumentation": dict,
    "dispatch": dict,
    "runtime": dict,
    "shards": list,
    "races": list,
    "deadlocks": list,
    "trace": dict,
    "report": dict,
}

SECTION_KEYS = {
    "run": {
        "ok": bool,
        "error": str,
        "instructions": int,
        "access_events": int,
        "context_switches": int,
        "threads_created": int,
        "output_values": int,
    },
    "timings": {"analysis_seconds": (int, float),
                "exec_seconds": (int, float)},
    "static": {
        "reachable_access_statements": int,
        "thread_local_filtered": int,
        "thread_specific_filtered": int,
        "same_thread_filtered": int,
        "common_sync_filtered": int,
        "race_set_size": int,
        "may_race_pairs": int,
    },
    "instrumentation": {
        "traces_inserted": int,
        "traces_removed": int,
        "loops_peeled": int,
    },
    "dispatch": {
        "fused_sites": dict,
        "fused_exec": dict,
        "batch_retirement": dict,
    },
    "runtime": {
        "events_seen": int,
        "cache_hits": int,
        "cache_misses": int,
        "cache_evictions": int,
        "hook": dict,
        "detector": dict,
        "per_thread_cache": list,
    },
    "trace": {"ok": bool, "error": str, "records": int, "bytes": int},
    "report": {
        "entries": int,
        "total_reported": int,
        "distinct_fingerprints": int,
        "dropped_records": int,
        "reporter_capacity": int,
        "provenance_enabled": bool,
        "provenance_threads": int,
        "provenance_locks": int,
        "provenance_accesses": int,
    },
}

errors = []


def fail(msg):
    errors.append(msg)


def check_keys(obj, spec, where):
    for key, types in spec.items():
        if key not in obj:
            fail(f"{where}: missing required key '{key}'")
        elif not isinstance(obj[key], types):
            # bool is an int subclass in Python; don't let True pass as int.
            fail(f"{where}.{key}: expected {types}, got "
                 f"{type(obj[key]).__name__}")
        elif types is int and isinstance(obj[key], bool):
            fail(f"{where}.{key}: expected int, got bool")


def check_stats(doc):
    if doc.get("schema") != SCHEMA_NAME:
        fail(f"schema: expected '{SCHEMA_NAME}', got {doc.get('schema')!r}")
        return
    if doc.get("version") != SCHEMA_VERSION:
        fail(f"version: this checker understands version {SCHEMA_VERSION}, "
             f"got {doc.get('version')!r}")
        return
    check_keys(doc, TOP_LEVEL_KEYS, "$")
    for section, spec in SECTION_KEYS.items():
        if isinstance(doc.get(section), dict):
            check_keys(doc[section], spec, section)
    dispatch = doc.get("dispatch", {})
    if isinstance(dispatch, dict):
        for sub in ("fused_sites", "fused_exec"):
            if isinstance(dispatch.get(sub), dict):
                check_keys(dispatch[sub],
                           {"const_binop": int, "const_putfield": int,
                            "get_binop_put": int, "binop_branch": int,
                            "getfield_binop": int, "binop_putfield": int,
                            "binop_move": int, "total": int},
                           f"dispatch.{sub}")
        if isinstance(dispatch.get("batch_retirement"), dict):
            check_keys(dispatch["batch_retirement"],
                       {"planned_blocks": int, "planned_steps": int,
                        "hits": int, "retired_steps": int},
                       "dispatch.batch_retirement")
    runtime = doc.get("runtime", {})
    if isinstance(runtime.get("detector"), dict):
        check_keys(runtime["detector"], DETECTOR_KEYS, "runtime.detector")
    if isinstance(runtime.get("hook"), dict):
        check_keys(runtime["hook"],
                   {"filter_enabled": bool, "filter_hits": int,
                    "filter_misses": int},
                   "runtime.hook")
    for i, shard in enumerate(doc.get("shards", [])):
        where = f"shards[{i}]"
        if not isinstance(shard, dict):
            fail(f"{where}: expected object")
            continue
        check_keys(shard, {"events_ingested": int, "batches_ingested": int,
                           "max_queue_depth_batches": int, "detector": dict},
                   where)
        if isinstance(shard.get("detector"), dict):
            check_keys(shard["detector"], DETECTOR_KEYS, f"{where}.detector")
    for section in ("races", "deadlocks"):
        for i, entry in enumerate(doc.get(section, [])):
            if not isinstance(entry, str):
                fail(f"{section}[{i}]: expected string report")
    # Optional sections, validated when present.
    if "epoch" in doc:
        check_keys(doc["epoch"],
                   {"events": int, "reads": int, "writes": int,
                    "same_epoch_reads": int, "same_epoch_writes": int,
                    "read_inflations": int, "shared_collapses": int,
                    "races_reported": int, "locations_tracked": int,
                    "threads_seen": int, "clock_rows_fresh": int,
                    "clock_rows_reused": int},
                   "epoch")
    if "metrics" in doc:
        m = doc["metrics"]
        check_keys(m, {"counters": dict, "gauges": dict, "histograms": dict},
                   "metrics")
    if "profile" in doc:
        check_keys(doc["profile"],
                   {"sample_every": int, "total_dispatches": int,
                    "instrumented_dispatches": int, "total_samples": int,
                    "sampled_nanos": int, "hook_nanos": int, "opcodes": list,
                    "pairs": list},
                   "profile")
        for i, pair in enumerate(doc["profile"].get("pairs", [])):
            if isinstance(pair, dict):
                check_keys(pair, {"first": str, "second": str, "count": int},
                           f"profile.pairs[{i}]")


def check_trace(doc):
    if not isinstance(doc.get("traceEvents"), list):
        fail("trace: missing traceEvents array")
        return
    if not doc["traceEvents"]:
        fail("trace: traceEvents is empty")
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: expected object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing '{key}'")
        if ev.get("ph") not in ("X", "C", "M"):
            fail(f"{where}: unexpected phase {ev.get('ph')!r}")
        if ev.get("ph") == "X" and ("ts" not in ev or "dur" not in ev):
            fail(f"{where}: complete span without ts/dur")


def load(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_stats_schema: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    args = argv[1:]
    trace_path = None
    if "--trace" in args:
        i = args.index("--trace")
        if i + 1 >= len(args):
            print("check_stats_schema: --trace needs a path",
                  file=sys.stderr)
            return 2
        trace_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    check_stats(load(args[0]))
    if trace_path:
        check_trace(load(trace_path))

    for e in errors:
        print(f"check_stats_schema: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_stats_schema: {args[0]} conforms to "
          f"{SCHEMA_NAME} v{SCHEMA_VERSION}"
          + (f"; {trace_path} is a valid trace timeline" if trace_path
             else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
