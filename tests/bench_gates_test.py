#!/usr/bin/env python3
"""Tests for scripts/check_bench_gates.py, the bench_hotpath gate table.

The checked-in bench_hotpath JSONs must pass: the smoke baseline against
itself, and BENCH_hotpath.json against the smoke baseline (a full run, so
the full-only rows apply too).  Then every clause of the table gets one
mutated copy that must exit 1 with a FAIL line naming that clause, and a
schema other than v7 must exit 2.

Usage: python3 tests/bench_gates_test.py
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "scripts", "check_bench_gates.py")
LIVE_TRACES = ("mtrt", "tsp", "sor2", "elevator", "hedc", "hotfield")


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


SMOKE = load("BENCH_hotpath_smoke_baseline.json")
FULL = load("BENCH_hotpath.json")

_spec = importlib.util.spec_from_file_location("check_bench_gates", CHECKER)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

DELETE = object()


def threaded(key, value):
    """Edits for a threaded live value, which `live` mirrors."""
    return [("cur", "mtrt", ("live", key), value),
            ("cur", "mtrt", ("live_by_dispatch", "threaded", key), value)]


# One mutation per clause: (clause, current run is full, edits).  An edit
# is (report, trace, key path, value): report is "cur" or "base"; value is
# the new value, a function of the old one, or DELETE.
MUTATIONS = [
    ("cold.allocs", False,
     [("cur", "mtrt", ("cold_ab", "allocs_per_event"), 1.0)]),
    ("cold.allocs-planned", False,
     [("cur", "mtrt", ("cold_ab", "allocs_per_event_planned"), 1.0)]),
    ("cold.refhot-planned-ceiling", False,
     [("base", "refhot", ("cold_ab", "allocs_per_event_planned"), 1.0),
      ("cur", "refhot", ("cold_ab", "allocs_per_event_planned"), 0.5)]),
    ("dispatch.keys", False,
     [("cur", "mtrt", ("live_by_dispatch", "unfused", "seconds"), DELETE)]),
    ("dispatch.live-is-threaded", False,
     [("cur", "mtrt", ("live", "seconds"), 99.0)]),
    ("dispatch.agreement", False, [("cur", "mtrt", ("agreement",), False)]),
    ("dispatch.ratio-vs-replay", False, threaded("ratio_vs_replay_cold", 0.01)),
    ("dispatch.threaded-vs-unfused", False,
     [("cur", "mtrt", ("live_by_dispatch", "unfused", "events_per_sec"),
       1e12)]),
    ("dispatch.threaded-vs-baseline", False,
     threaded("events_per_sec", 1.0) +
     [("cur", "mtrt", ("live_by_dispatch", "unfused", "events_per_sec"),
       1.0)]),
    ("dispatch.unfused-fused-execs-zero", False,
     [("cur", "mtrt", ("live_by_dispatch", "unfused", "fused_execs"), 1)]),
    ("dispatch.unfused-block-retire-hits-zero", False,
     [("cur", "mtrt", ("live_by_dispatch", "unfused", "block_retire_hits"),
       1)]),
    ("dispatch.unfused-block-retired-steps-zero", False,
     [("cur", "mtrt", ("live_by_dispatch", "unfused", "block_retired_steps"),
       1)]),
    ("dispatch.threaded-fused", False, threaded("fused_execs", 0)),
    ("dispatch.baseline-live", False,
     [("base", t, ("live_by_dispatch",), DELETE) for t in LIVE_TRACES]),
    ("hook.keys", False,
     [("cur", "mtrt", ("hook_path", "filter_hit_rate"), DELETE)]),
    ("hook.events-reconcile", False,
     [("cur", "mtrt", ("hook_path", "access_events"), lambda v: v + 1)]),
    ("hook.probes-bounded", False,
     [("cur", "mtrt", ("hook_path", "filter_misses"),
       lambda v: v + 10**9)]),
    ("hook.counters-reconcile", False,
     [("cur", "mtrt", ("hook_path", "counters_reconcile"), False)]),
    ("hook.unfiltered-vs-baseline", False,
     [("cur", "mtrt", ("hook_path", "live_unfiltered_events_per_sec"),
       1.0)]),
    ("provenance.keys", False,
     [("cur", "mtrt", ("provenance_ab", "overhead_ratio"), DELETE)]),
    ("provenance.agreement", False,
     [("cur", "mtrt", ("provenance_ab", "agreement"), False)]),
    ("provenance.on-throughput", False,
     [("cur", "mtrt", ("provenance_ab", "on_events_per_sec"), 0)]),
    ("provenance.accesses-observed", False,
     [("cur", "mtrt", ("provenance_ab", "accesses_observed"), 0)]),
    ("hook.hotfield-speedup", False,
     [("cur", "hotfield", ("hook_path", "speedup"), 0.5)]),
    ("hook.full-run-speedup", True,
     [("cur", "hotfield", ("hook_path", "speedup"), 1.2)]),
    ("hook.baseline-hotfield", False,
     [("base", "hotfield", ("hook_path",), DELETE)]),
    ("epoch.keys", False,
     [("cur", "mtrt", ("epoch_ab", "epoch_steady_events_per_sec"), DELETE)]),
    ("epoch.agreement", False,
     [("cur", "mtrt", ("epoch_ab", "agreement"), False)]),
    ("epoch.speedup", False, [("cur", "mtrt", ("epoch_ab", "speedup"), 0.5)]),
    ("epoch.steady-allocs", False,
     [("cur", "mtrt", ("epoch_ab", "steady_allocs_per_event"), 0.05)]),
    ("epoch.full-run-speedup", True,
     [("base", "refhot", ("epoch_ab", "speedup"), 2.0),
      ("cur", "refhot", ("epoch_ab", "speedup"), 2.5)]),
    ("epoch.full-run-steady-allocs", True,
     [("cur", "refhot", ("epoch_ab", "steady_allocs_per_event"), 0.01)]),
    ("epoch.baseline-refhot", False,
     [("base", "refhot", ("epoch_ab",), DELETE)]),
]


def mutated(full, edits):
    """(current, baseline) copies of the checked-in JSONs with `edits`."""
    reports = {"cur": copy.deepcopy(FULL if full else SMOKE),
               "base": copy.deepcopy(SMOKE)}
    for which, name, path, value in edits:
        trace = next(t for t in reports[which]["traces"] if t["name"] == name)
        *parents, key = path
        for p in parents:
            trace = trace[p]
        if value is DELETE:
            del trace[key]
        else:
            trace[key] = value(trace[key]) if callable(value) else value
    return reports["cur"], reports["base"]


def run_checker(current, baseline):
    """(exit code, output lines) of the checker on two in-memory reports."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, report in (("current.json", current),
                             ("baseline.json", baseline)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(report, f)
        proc = subprocess.run([sys.executable, CHECKER] + paths,
                              capture_output=True, text=True)
    return proc.returncode, (proc.stdout + proc.stderr).splitlines()


def failing_clauses(lines):
    return {line.split()[2].rstrip(":") for line in lines
            if line.startswith("FAIL")}


class PassingRuns(unittest.TestCase):
    def test_smoke_against_itself(self):
        code, lines = run_checker(SMOKE, SMOKE)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertEqual(failing_clauses(lines), set())

    def test_full_against_smoke_applies_full_only_rows(self):
        code, lines = run_checker(FULL, SMOKE)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertFalse([l for l in lines if l.startswith("skip")])
        for clause in gates.CLAUSES:
            if clause.full_only:
                self.assertTrue(
                    any(l.startswith("ok") and f" {clause.name}:" in l
                        for l in lines), clause.name)


class FailingRuns(unittest.TestCase):
    def test_every_clause_has_a_mutation(self):
        self.assertEqual(sorted(c.name for c in gates.CLAUSES),
                         sorted(m[0] for m in MUTATIONS))

    def test_each_mutation_fails_its_clause(self):
        for clause, full, edits in MUTATIONS:
            with self.subTest(clause=clause):
                code, lines = run_checker(*mutated(full, edits))
                self.assertEqual(code, 1, "\n".join(lines))
                self.assertIn(clause, failing_clauses(lines))

    def test_only_v7_is_accepted(self):
        old = copy.deepcopy(SMOKE)
        old["schema"] = "herd-bench-hotpath-v6"
        self.assertEqual(run_checker(old, SMOKE)[0], 2)
        self.assertEqual(run_checker(SMOKE, old)[0], 2)

    def test_usage_error(self):
        proc = subprocess.run([sys.executable, CHECKER], capture_output=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
