#!/usr/bin/env python3
"""Golden-output regression test for tools/dcpim_sa.py (run by ctest).

Runs the checker over the deliberately-violating fixture corpus in
tests/sa_fixtures/ and asserts the finding set matches the golden list
EXACTLY — every planted violation fires, and nothing else does. The
negative controls (suppressed escapes, exhaustive switches, cold-path
allocations) live in the same files, so a false positive fails the test
just as loudly as a miss.

Also covers the src/ contract: the checker must exit 0 on the real tree
with all rules enabled (every escape fixed or justified), the suppression
ratchet must hold against tools/sa_baseline.json, the lifetime ledger must
hold only justified sites, and the baseline-shrink CI guard must reject
growth. The per-line rules' scopes and the --root contract are pinned in
tests/test_lint_dcpim.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SA = REPO / "tools" / "dcpim_sa.py"
FIXTURES = REPO / "tests" / "sa_fixtures"

# (rule, fixture file, line) — the planted violations, nothing more.
GOLDEN = {
    ("determinism", "fixture_determinism.cpp", 31),   # std::random_device
    ("determinism", "fixture_determinism.cpp", 33),   # steady_clock wall read
    ("determinism", "fixture_determinism.cpp", 35),   # std::rand via helpers
    ("packet-switch", "fixture_switch.cpp", 20),      # kFixAck, no default
    ("packet-switch", "fixture_switch.cpp", 31),      # kFixNack behind default
    ("packet-switch", "fixture_switch.cpp", 86),      # grown enum, legacy switch
    ("hot-alloc", "fixture_hotalloc.cpp", 28),        # push_back under sa-hot
    ("hot-alloc", "fixture_hotalloc.cpp", 29),        # new under sa-hot
    ("hot-alloc", "fixture_hotalloc.cpp", 42),        # under malformed sa-ok
    ("hot-alloc", "fixture_hotalloc.cpp", 48),        # make_unique<T>
    ("sa-suppression", "fixture_hotalloc.cpp", 41),   # empty justification
    ("unit-raw", "fixture_unitraw.cpp", 22),          # direct .raw()
    ("unit-raw", "fixture_unitraw.cpp", 27),          # .raw() via auto copy
    ("unit-raw", "fixture_unitraw.cpp", 31),          # ->raw() via pointer
    ("unit-raw", "fixture_suppression.cpp", 21),      # blank justification
    ("unit-raw", "fixture_suppression.cpp", 26),      # unknown-rule comment
    ("sa-suppression", "fixture_suppression.cpp", 20),  # empty justification
    ("sa-suppression", "fixture_suppression.cpp", 25),  # unknown rule name
    ("sa-suppression", "fixture_suppression.cpp", 30),  # unused suppression
    ("sa-suppression", "fixture_suppression.cpp", 37),  # retired rule: pdes
    ("sa-suppression", "fixture_suppression.cpp", 38),  # retired: hot-cost
    ("sa-suppression", "fixture_suppression.cpp", 43),  # unsuppressible rule
    # sites outside function bodies, seen by the per-line scan only
    ("determinism", "fixture_determinism.cpp", 42),   # clock alias
    ("determinism", "fixture_determinism.cpp", 45),   # random_device member
    ("sa-suppression", "fixture_determinism.cpp", 51),  # sa-ok(determinism)
    ("determinism", "fixture_determinism.cpp", 52),   # ...and still reported
    ("lifetime", "fixture_lifetime.cpp", 68),  # make_unique in initialiser
    ("lifetime", "fixture_lifetime.cpp", 74),  # qualified packet type
    # per-line rules (fixture_lines.cpp)
    ("unordered-container", "fixture_lines.cpp", 15),  # header include
    ("naked-assert", "fixture_lines.cpp", 20),
    ("double-sim-time", "fixture_lines.cpp", 25),
    ("static-local", "fixture_lines.cpp", 35),
    ("namespace-state", "fixture_switch.cpp", 17),  # the mutable `sink`
    ("unordered-container", "fixture_lines.cpp", 51),  # member
    ("inline-scenario", "fixture_lines.cpp", 55),  # ExperimentConfig
    ("inline-scenario", "fixture_lines.cpp", 56),  # net::Network
    ("inline-scenario", "fixture_lines.cpp", 57),  # Topology::
    ("inline-scenario", "fixture_lines.cpp", 58),  # run_experiment
    # lifetime family (fixture_lifetime.cpp)
    ("lifetime", "fixture_lifetime.cpp", 29),  # [&] capture in schedule
    ("lifetime", "fixture_lifetime.cpp", 30),  # &local capture in schedule
    ("lifetime", "fixture_lifetime.cpp", 31),  # raw packet param by value
    ("lifetime", "fixture_lifetime.cpp", 36),  # new LifePacket off-factory
    ("lifetime", "fixture_lifetime.cpp", 40),  # make_unique off-factory
    ("lifetime", "fixture_lifetime.cpp", 55),  # under malformed sa-ok
    ("lifetime", "fixture_lifetime.cpp", 63),  # raw packet pointer field
    ("lifetime", "fixture_lifetime.cpp", 64),  # vector of raw packets
    ("sa-suppression", "fixture_lifetime.cpp", 54),  # empty justification
}


def run_sa(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(SA), *args],
        capture_output=True, text=True, cwd=cwd)


class FixtureCorpusTest(unittest.TestCase):
    def run_on_fixtures(self, *extra):
        with tempfile.TemporaryDirectory() as td:
            report_path = Path(td) / "report.json"
            proc = run_sa(
                "--files", *sorted(str(p) for p in FIXTURES.glob("*.cpp")),
                "--no-ratchet", "--json", str(report_path), *extra)
            report = json.loads(report_path.read_text())
        return proc, report

    def test_finds_exactly_the_planted_violations(self):
        proc, report = self.run_on_fixtures()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        got = {(f["rule"], Path(f["file"]).name, f["line"])
               for f in report["findings"]}
        missing = GOLDEN - got
        extra = got - GOLDEN
        self.assertFalse(missing, f"planted violations not found: {missing}")
        self.assertFalse(extra, f"false positives: {extra}")
        # One finding per golden entry — no duplicate reports either.
        self.assertEqual(len(report["findings"]), len(GOLDEN))

    def test_each_rule_fires(self):
        _, report = self.run_on_fixtures()
        fired = {f["rule"] for f in report["findings"]}
        self.assertEqual(
            fired, {"determinism", "packet-switch", "hot-alloc", "unit-raw",
                    "lifetime", "naked-assert", "double-sim-time",
                    "static-local", "namespace-state", "unordered-container",
                    "inline-scenario", "sa-suppression"})

    def test_rule_selection(self):
        proc, report = self.run_on_fixtures("--rules", "packet-switch")
        self.assertEqual(proc.returncode, 1)
        self.assertEqual({f["rule"] for f in report["findings"]},
                         {"packet-switch"})
        self.assertEqual(len(report["findings"]), 3)

    def test_call_paths_reported(self):
        _, report = self.run_on_fixtures()
        by_key = {(f["rule"], f["line"]): f for f in report["findings"]}
        rand = by_key[("determinism", 35)]
        self.assertIn("on_packet", rand.get("path", []))
        self.assertIn("draw_jitter", rand.get("path", []))
        alloc = by_key[("hot-alloc", 28)]
        self.assertEqual(alloc.get("path", []),
                         ["pump", "stage_one", "stage_two"])

    def test_suppressions_counted(self):
        _, report = self.run_on_fixtures()
        # Justified escapes in the fixtures: one per rule that has any,
        # plus the stale hot-alloc comment (counted even though it is also
        # a finding). Malformed and retired-rule comments are findings,
        # not counts.
        self.assertEqual(report["suppressions"],
                         {"packet-switch": 1, "hot-alloc": 2, "unit-raw": 1,
                          "lifetime": 1, "static-local": 1})

    def test_lifetime_json_keeps_suppressed_sites(self):
        with tempfile.TemporaryDirectory() as td:
            life_path = Path(td) / "sa_lifetime.json"
            report_path = Path(td) / "report.json"
            run_sa("--files",
                   *sorted(str(p) for p in FIXTURES.glob("*.cpp")),
                   "--no-ratchet", "--json", str(report_path),
                   "--lifetime-json", str(life_path))
            life = json.loads(life_path.read_text())
        sites = life["sites"]
        self.assertEqual(life["total_sites"], len(sites))
        # All three escape classes appear in the fixture corpus.
        self.assertEqual(set(life["by_class"]),
                         {"field-escape", "callback-capture", "factory"})
        # The justified capture in audited_park() is in the ledger, flagged
        # and quoted — the report is an audit trail, not a findings echo.
        suppressed = [s for s in sites if s["suppressed"]]
        self.assertTrue(suppressed)
        self.assertTrue(any("pins the packet" in s["justification"]
                            for s in suppressed))
        # Ledger rows carry enough to audit without rerunning.
        for s in sites:
            self.assertTrue(s["file"])
            self.assertGreater(s["line"], 0)
            self.assertTrue(s["detail"])


class SourceTreeTest(unittest.TestCase):
    def test_src_is_clean_with_all_rules(self):
        with tempfile.TemporaryDirectory() as td:
            report_path = Path(td) / "report.json"
            proc = run_sa("--json", str(report_path))
            report = json.loads(report_path.read_text())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(report["findings"], [])
        self.assertEqual(report["ratchet_failures"], [])
        self.assertEqual(
            sorted(report["rules"]),
            ["determinism", "double-sim-time", "hot-alloc", "inline-scenario",
             "lifetime", "naked-assert", "namespace-state", "packet-switch",
             "sa-suppression", "static-local", "unit-raw",
             "unordered-container"])
        # The checker really walked the tree, not an empty file list.
        self.assertGreater(report["files"], 50)
        self.assertGreater(report["functions"], 300)

    def test_src_lifetime_ledger_has_only_justified_sites(self):
        with tempfile.TemporaryDirectory() as td:
            life_path = Path(td) / "sa_lifetime.json"
            proc = run_sa("--no-ratchet", "--lifetime-json", str(life_path))
            life = json.loads(life_path.read_text())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        # Every escape on the real tree is justified — an unsuppressed row
        # here means a packet pointer can outlive its packet.
        for s in life["sites"]:
            self.assertTrue(s["suppressed"],
                            f"unjustified lifetime escape: {s}")
            self.assertTrue(s["justification"])
            self.assertTrue(s["file"].startswith("src/"))

    def test_ratchet_fails_on_regression(self):
        # A zeroed baseline must turn the existing suppressions into a
        # ratchet failure — proves the count comparison is live.
        with tempfile.TemporaryDirectory() as td:
            # Run against a copy of the tool so the baseline next to it can
            # be swapped without touching the real one.
            tool_dir = Path(td) / "tools"
            tool_dir.mkdir()
            (tool_dir / "dcpim_sa.py").write_text(SA.read_text())
            (tool_dir / "sa_baseline.json").write_text("{}")
            proc = subprocess.run(
                [sys.executable, str(tool_dir / "dcpim_sa.py"),
                 "--root", str(REPO)],
                capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("ratchet", proc.stdout)


class BaselineShrinkGuardTest(unittest.TestCase):
    """tools/check_baseline_shrink.py: the baseline file may only shrink."""

    CHECKER = REPO / "tools" / "check_baseline_shrink.py"

    def run_guard(self, old: dict, new: dict):
        with tempfile.TemporaryDirectory() as td:
            old_p = Path(td) / "old.json"
            new_p = Path(td) / "new.json"
            old_p.write_text(json.dumps(old))
            new_p.write_text(json.dumps(new))
            return subprocess.run(
                [sys.executable, str(self.CHECKER), str(old_p), str(new_p)],
                capture_output=True, text=True)

    def test_shrink_and_removal_pass(self):
        proc = self.run_guard({"unit-raw": 50, "hot-alloc": 5},
                              {"unit-raw": 49})
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("shrink: hot-alloc 5 -> 0", proc.stdout)

    def test_growth_fails(self):
        proc = self.run_guard({"unit-raw": 50}, {"unit-raw": 51})
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL: unit-raw grew 50 -> 51", proc.stdout)

    def test_new_family_can_enter_then_never_grow(self):
        # A rule family lands like any other: admitted once, then the
        # ratchet holds — growth from the admitted count is a failure.
        enter = self.run_guard({"unit-raw": 50},
                               {"unit-raw": 50, "lifetime": 2})
        self.assertEqual(enter.returncode, 0, enter.stdout + enter.stderr)
        self.assertIn("new rule family 'lifetime'", enter.stdout)
        grow = self.run_guard({"unit-raw": 50, "lifetime": 2},
                              {"unit-raw": 50, "lifetime": 3})
        self.assertEqual(grow.returncode, 1)
        self.assertIn("FAIL: lifetime grew 2 -> 3", grow.stdout)
        shrink = self.run_guard({"unit-raw": 50, "lifetime": 2},
                                {"unit-raw": 50})
        self.assertEqual(shrink.returncode, 0, shrink.stdout + shrink.stderr)

    def test_current_baseline_holds_against_itself(self):
        baseline = json.loads(
            (REPO / "tools" / "sa_baseline.json").read_text())
        proc = self.run_guard(baseline, baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
