#!/usr/bin/env python3
"""bench_hotpath regression gates for CI.

Compares a fresh bench_hotpath run (herd-bench-hotpath-v7 JSON) against
the checked-in baseline.  Every gate is one row of CLAUSES below; one
small engine evaluates the table and prints one ok/FAIL line per clause
and trace.  The rows guard the paper's efficiency mechanisms:

 * cold      the cold-pass allocation rate, unplanned and pre-sized by the
             analysis-driven DetectorPlan (docs/PERFORMANCE.md);
 * dispatch  the fused interpreter vs the unfused reference lane of
             the same engine and vs cold replay (docs/INTERPRETER.md);
 * hook      the inline cache probe and devirtualized hook path, and
             provenance capture as a pure listener (docs/HOOKPATH.md,
             docs/REPORTS.md);
 * epoch     the epoch happens-before backend vs the vector-clock
             baseline it optimizes (docs/DETECTORS.md).

Timing on shared CI runners is noisy even after best-of-N, hence the
deliberately loose factors on the timing rows: they catch "the fast path
stopped being fast", not single-digit-percent drift.  Agreement and
counter rows are correctness, not performance, and have no leniency.
Rows marked full-only hold the headline numbers the checked-in
BENCH_hotpath.json proves; smoke runs skip them.

Usage: check_bench_gates.py CURRENT.json BASELINE.json
Exit status: 0 every clause holds, 1 some clause FAILed, 2 usage or
schema error.
"""

import json
import operator
import sys
from collections import namedtuple

SCHEMA = "herd-bench-hotpath-v7"

# A row of the gate table.  `section` is the per-trace JSON section the
# row reads; `traces` is EACH (every baseline trace carrying `section`) or
# one trace name.  `value` is the current run's left-hand side: a key path
# into the trace, or a Sum of paths.  `op` compares it against `bound`.
Clause = namedtuple("Clause", "name section traces value op bound full_only")
EACH = "*"

# Bounds: what the current value is compared against.
Const = namedtuple("Const", "value")
# The baseline's value at the same path, times factor, plus slack.
Base = namedtuple("Base", "factor slack")
# max(floor, the baseline's value at the same path times factor).
BaseFloor = namedtuple("BaseFloor", "floor factor")
# Another value of the current trace (times factor, when given).
Field = namedtuple("Field", "path factor")
Sum = namedtuple("Sum", "paths")
# For op "has": the key paths the value must carry.
Keys = namedtuple("Keys", "paths")

LIVE_KEYS = ("seconds", "events_per_sec", "allocs_per_event",
             "ratio_vs_replay_cold", "fused_execs", "block_retire_hits",
             "block_retired_steps")
COUNTER_KEYS = ("fused_execs", "block_retire_hits", "block_retired_steps")
HOOK_KEYS = ("live_unfiltered_events_per_sec", "live_filtered_events_per_sec",
             "speedup", "access_events", "filter_hits", "filter_misses",
             "filter_hit_rate", "events_delivered", "counters_reconcile")
PROVENANCE_KEYS = ("agreement", "on_events_per_sec", "accesses_observed",
                   "overhead_ratio")
EPOCH_KEYS = ("vc_events_per_sec", "epoch_cold_events_per_sec",
              "epoch_steady_events_per_sec", "speedup",
              "steady_allocs_per_event", "racy_locations", "agreement")

THREADED = ("live_by_dispatch", "threaded")
UNFUSED = ("live_by_dispatch", "unfused")
HOOK = "hook_path"
PROV = "provenance_ab"
EPOCH = "epoch_ab"

CLAUSES = [
    # --- cold: alloc counts on the serial replay path are deterministic
    # (the counting allocator measures structure growth, not timing), so
    # the 1.25 factor only absorbs allocator-library differences between
    # environments.  Tiny traces divide a handful of fixed allocations by
    # a small event count: the 0.02 slack keeps one extra allocation in a
    # 300-event trace from tripping the gate.
    Clause("cold.allocs", "cold_ab", EACH,
           ("cold_ab", "allocs_per_event"), "<=", Base(1.25, 0.02), False),
    Clause("cold.allocs-planned", "cold_ab", EACH,
           ("cold_ab", "allocs_per_event_planned"), "<=", Base(1.25, 0.02),
           False),
    # The planner's contract on the detector-bound reference stream.
    Clause("cold.refhot-planned-ceiling", "cold_ab", "refhot",
           ("cold_ab", "allocs_per_event_planned"), "<=", Const(0.2), False),

    # --- dispatch: every live-measured trace carries both interpreter
    # lanes, and the legacy `live` entry is the threaded one.
    Clause("dispatch.keys", "live_by_dispatch", EACH, ("live_by_dispatch",),
           "has", Keys([(m, k) for m in ("unfused", "threaded")
                        for k in LIVE_KEYS]), False),
    Clause("dispatch.live-is-threaded", "live_by_dispatch", EACH, ("live",),
           "==", Field(THREADED, None), False),
    Clause("dispatch.agreement", "live_by_dispatch", EACH, ("agreement",),
           "truthy", None, False),
    # The ratio divides two timings from the same process on the same box,
    # so it absorbs machine speed but not a dispatch-loop regression.
    Clause("dispatch.ratio-vs-replay", "live_by_dispatch", EACH,
           THREADED + ("ratio_vs_replay_cold",), ">=", Base(0.4, 0.0), False),
    # The fast path may tie the unfused lane on tiny smoke traces, not
    # lose to it outright.
    Clause("dispatch.threaded-vs-unfused", "live_by_dispatch", EACH,
           THREADED + ("events_per_sec",), ">=",
           Field(UNFUSED + ("events_per_sec",), 0.5), False),
    # Cross-run absolute throughput: loose enough for a slower runner, but
    # still trips on the fast path falling off a cliff.
    Clause("dispatch.threaded-vs-baseline", "live_by_dispatch", EACH,
           THREADED + ("events_per_sec",), ">=", Base(0.4, 0.0), False),
] + [
    # The unfused lane executes no shadow code at all.
    Clause("dispatch.unfused-" + key.replace("_", "-") + "-zero",
           "live_by_dispatch", EACH, UNFUSED + (key,), "==", Const(0), False)
    for key in COUNTER_KEYS
] + [
    # The replicas are fused-heavy by construction: a threaded run with
    # zero fused executions means the shadow code went missing.
    Clause("dispatch.threaded-fused", "live_by_dispatch", EACH,
           THREADED + ("fused_execs",), ">", Const(0), False),
    Clause("dispatch.baseline-live", "live_by_dispatch", EACH, None,
           "in-baseline", None, False),

    # --- hook: every access event either hit the inline probe or was
    # delivered to the detector, recomputed here rather than trusted.
    Clause("hook.keys", HOOK, EACH, (HOOK,), "has",
           Keys([(k,) for k in HOOK_KEYS]), False),
    Clause("hook.events-reconcile", HOOK, EACH, (HOOK, "access_events"), "==",
           Sum([(HOOK, "filter_hits"), (HOOK, "events_delivered")]), False),
    # Probes are skipped for a thread's first-ever event, before its state
    # exists, so the probe counters can only fall short of the events.
    Clause("hook.probes-bounded", HOOK, EACH,
           Sum([(HOOK, "filter_hits"), (HOOK, "filter_misses")]), "<=",
           Field((HOOK, "access_events"), None), False),
    Clause("hook.counters-reconcile", HOOK, EACH,
           (HOOK, "counters_reconcile"), "truthy", None, False),
    Clause("hook.unfiltered-vs-baseline", HOOK, EACH,
           (HOOK, "live_unfiltered_events_per_sec"), ">=", Base(0.4, 0.0),
           False),
    # Provenance capture is a pure listener: a race-set disagreement means
    # the store perturbed the run.  The provenance-off row IS the filtered
    # default path, already gated above; the on-row only has to be a real
    # measurement.  The keys row walks the hook_path traces, so every
    # hook-measured trace must carry the section.
    Clause("provenance.keys", HOOK, EACH, (PROV,), "has",
           Keys([(k,) for k in PROVENANCE_KEYS]), False),
    Clause("provenance.agreement", PROV, EACH, (PROV, "agreement"), "truthy",
           None, False),
    Clause("provenance.on-throughput", PROV, EACH,
           (PROV, "on_events_per_sec"), ">", Const(0), False),
    Clause("provenance.accesses-observed", PROV, EACH,
           (PROV, "accesses_observed"), ">", Const(0), False),
    # hotfield is the one workload whose live run is dominated by hook
    # cost.  The filter does strictly less work than the unfiltered path,
    # so a speedup below 0.95 is a correctness smell, not noise.
    Clause("hook.hotfield-speedup", HOOK, "hotfield", (HOOK, "speedup"), ">=",
           BaseFloor(0.95, 0.6), False),
    Clause("hook.full-run-speedup", HOOK, "hotfield", (HOOK, "speedup"), ">=",
           Const(1.3), True),
    Clause("hook.baseline-hotfield", HOOK, "hotfield", None, "in-baseline",
           None, False),

    # --- epoch: both detectors implement the same happens-before
    # relation, so diverging racy-location sets are a bug.
    Clause("epoch.keys", EPOCH, EACH, (EPOCH,), "has",
           Keys([(k,) for k in EPOCH_KEYS]), False),
    Clause("epoch.agreement", EPOCH, EACH, (EPOCH, "agreement"), "truthy",
           None, False),
    # Both detectors are timed in the same process on the same trace, so
    # the ratio is machine-independent; 0.9 is the noise floor for the
    # tiny smoke traces.
    Clause("epoch.speedup", EPOCH, EACH, (EPOCH, "speedup"), ">=",
           BaseFloor(0.9, 0.5), False),
    # The second replay into the same detector recycles pooled ClockStore
    # rows; the smoke traces are small enough that the TraceReader's own
    # handful of allocations registers.
    Clause("epoch.steady-allocs", EPOCH, EACH,
           (EPOCH, "steady_allocs_per_event"), "<=", Const(0.02), False),
    Clause("epoch.full-run-speedup", EPOCH, "refhot", (EPOCH, "speedup"),
           ">=", Const(3.0), True),
    Clause("epoch.full-run-steady-allocs", EPOCH, "refhot",
           (EPOCH, "steady_allocs_per_event"), "<=", Const(0.001), True),
    Clause("epoch.baseline-refhot", EPOCH, "refhot", None, "in-baseline",
           None, False),
]

COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
           ">": operator.gt}
MISSING = object()


def dig(obj, path):
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            return MISSING
        obj = obj[key]
    return obj


def show(value):
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


def resolve(term, cur, base, path):
    """What `term` stands for on trace `cur` (whose baseline trace is
    `base`, read at `path`); MISSING when a value is absent."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Sum):
        parts = [dig(cur, p) for p in term.paths]
        return MISSING if MISSING in parts else sum(parts)
    if isinstance(term, Field):
        v = dig(cur, term.path)
        return v if v is MISSING or term.factor is None else v * term.factor
    if isinstance(term, (Base, BaseFloor)):
        b = MISSING if base is None else dig(base, path)
        if b is MISSING:
            return MISSING
        if isinstance(term, Base):
            return b * term.factor + term.slack
        return max(term.floor, b * term.factor)
    return dig(cur, term)  # a plain key path


def check(clause, cur, base):
    """(ok, detail) for one row on one trace; cur/base may be None."""
    if cur is None:
        return False, f"no {clause.section} in current run"
    if clause.op == "has":
        missing = [".".join(p) for p in clause.bound.paths
                   if dig(cur, clause.value + p) is MISSING]
        return not missing, f"missing {missing}" if missing else "complete"
    lhs = resolve(clause.value, cur, base, None)
    if lhs is MISSING:
        return False, "value missing from current run"
    if clause.op == "truthy":
        return bool(lhs), show(lhs)
    rhs = resolve(clause.bound, cur, base, clause.value)
    if rhs is MISSING:
        return False, f"{show(lhs)}, bound missing from the baseline"
    ok = COMPARE[clause.op](lhs, rhs)
    if isinstance(lhs, dict):
        return ok, "identical" if ok else "differs"
    return ok, f"{show(lhs)} {clause.op} {show(rhs)}"


def by_name(report, section):
    return {t["name"]: t for t in report["traces"] if section in t}


def evaluate(current, baseline):
    """Prints one line per clause and trace; returns the FAIL count."""
    smoke = current.get("smoke", True)
    failures = 0
    for clause in CLAUSES:
        base = by_name(baseline, clause.section)
        if clause.op == "in-baseline":
            ok = bool(base) if clause.traces == EACH else clause.traces in base
            lines = [("baseline", ok, f"carries {clause.section}" if ok
                      else f"has no {clause.section}")]
        elif clause.full_only and smoke:
            print(f"skip {'-':10} {clause.name}: full runs only")
            continue
        else:
            names = list(base) if clause.traces == EACH else [clause.traces]
            cur = by_name(current, clause.section)
            lines = [(n, *check(clause, cur.get(n), base.get(n)))
                     for n in names]
        for name, ok, detail in lines:
            print(f"{'ok' if ok else 'FAIL':4} {name:10} {clause.name}: "
                  f"{detail}")
            failures += not ok
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv[1:]:
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            return 2
        if not isinstance(report, dict) or report.get("schema") != SCHEMA:
            schema = report.get("schema") if isinstance(report, dict) else None
            print(f"{path}: unexpected schema {schema!r} (want {SCHEMA})",
                  file=sys.stderr)
            return 2
        reports.append(report)
    failures = evaluate(*reports)
    if failures:
        print(f"bench gates: {failures} check(s) FAILED", file=sys.stderr)
        return 1
    print("bench gates: every clause holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
