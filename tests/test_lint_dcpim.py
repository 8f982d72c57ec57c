#!/usr/bin/env python3
"""Unit tests for tools/lint_dcpim.py (run by ctest).

Pins the --root contract: EXEMPT entries are repo-relative keys, so they
must keep applying when the linted checkout is named by a relative path, a
path with trailing slash or `..` segments, or a symlink — resolution
happens against --root, never against the repo the tool itself lives in.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "lint_dcpim.py"


def make_fake_repo(root: Path):
    """A minimal checkout exercising the EXEMPT entry: check.h carries a
    naked assert (allowed there — it defines the macros) and another file
    carries one that must still be flagged."""
    (root / "src" / "util").mkdir(parents=True)
    (root / "src" / "util" / "check.h").write_text(
        "#pragma once\n"
        "#define DCPIM_CHECK(c, m) assert(c)\n")
    (root / "src" / "util" / "other.h").write_text(
        "#pragma once\n"
        "inline void f(int x) { assert(x > 0); }\n")


def run_lint(root_arg, cwd):
    return subprocess.run(
        [sys.executable, str(LINT), "--root", str(root_arg)],
        capture_output=True, text=True, cwd=cwd)


def lint_tree(files: dict[str, str]):
    """Lints a throwaway checkout holding `files` (repo-relative path ->
    text) plus an empty src/ to satisfy the scope check."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        (root / "src").mkdir()
        for rel, text in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        return run_lint(td, td)


class ExemptResolutionTest(unittest.TestCase):
    def assert_exempt_applied(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        flagged = [ln.split(":", 1)[0]
                   for ln in proc.stdout.splitlines() if ln]
        self.assertNotIn("src/util/check.h", flagged,
                         "EXEMPT entry for src/util/check.h did not apply")
        self.assertIn("src/util/other.h", flagged,
                      "the non-exempt naked assert must still be flagged")

    def test_absolute_root(self):
        with tempfile.TemporaryDirectory() as td:
            make_fake_repo(Path(td))
            self.assert_exempt_applied(run_lint(td, td))

    def test_relative_root(self):
        with tempfile.TemporaryDirectory() as td:
            repo = Path(td) / "checkout"
            make_fake_repo(repo)
            self.assert_exempt_applied(run_lint("checkout", td))

    def test_trailing_slash_and_dotdot(self):
        with tempfile.TemporaryDirectory() as td:
            repo = Path(td) / "checkout"
            make_fake_repo(repo)
            self.assert_exempt_applied(
                run_lint(f"{repo}{os.sep}", td))
            self.assert_exempt_applied(
                run_lint(repo / "src" / ".." , td))

    def test_symlinked_root(self):
        with tempfile.TemporaryDirectory() as td:
            repo = Path(td) / "checkout"
            make_fake_repo(repo)
            link = Path(td) / "link"
            link.symlink_to(repo, target_is_directory=True)
            self.assert_exempt_applied(run_lint(link, td))

    def test_missing_src_is_usage_error(self):
        with tempfile.TemporaryDirectory() as td:
            proc = run_lint(td, td)
            self.assertEqual(proc.returncode, 2)


class PacketFactoryRuleTest(unittest.TestCase):
    """The packet-factory pre-filter: bare allocation of *Packet types is
    confined to the sanctioned factory files unless justified with
    `// sa-ok(lifetime):` (same grammar the dcpim-sa lifetime rule
    enforces semantically)."""

    def flagged(self, proc, rule="packet-factory"):
        return [ln for ln in proc.stdout.splitlines() if f"[{rule}]" in ln]

    def test_bare_allocations_flagged_outside_factories(self):
        proc = lint_tree({
            "src/proto/rogue.cpp":
                "void f() {\n"
                "  auto* a = new GrantPacket();\n"
                "  auto b = std::make_unique<proto::TokenPacket>();\n"
                "  auto c = std::make_shared<Packet>();\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(len(self.flagged(proc)), 3, proc.stdout)

    def test_int_packet_only_from_the_pool(self):
        # HPCC's IntPacket is a data packet: only PacketPool::acquire_int()
        # (behind Host::make_data_packet) may build one.
        proc = lint_tree({
            "src/proto/hpcc.cpp":
                "void f() {\n"
                "  auto* a = new net::IntPacket();\n"
                "  auto b = std::make_unique<IntPacket>();\n"
                "}\n",
            "src/net/packet_pool.cpp":
                "void g() { auto* p = new IntPacket(); }\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        flagged = self.flagged(proc)
        self.assertEqual(len(flagged), 2, proc.stdout)
        self.assertTrue(all("src/proto/hpcc.cpp" in ln for ln in flagged))

    def test_sanctioned_factories_and_justified_sites_clean(self):
        proc = lint_tree({
            "src/net/host.cpp": "void f() { auto* p = new Packet(); }\n",
            "src/net/packet_pool.cpp":
                "void g() { auto* p = new Packet(); }\n",
            "src/proto/justified.cpp":
                "void h() {\n"
                "  // sa-ok(lifetime): hand-built probe packet, never pooled.\n"
                "  auto p = std::make_unique<ProbePacket>();\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_non_packet_names_do_not_fire(self):
        proc = lint_tree({
            "src/net/other.cpp":
                "void f() {\n"
                "  auto a = std::make_unique<PacketPool>();\n"
                "  auto* b = new PacketLedger();\n"
                "  auto c = std::make_unique<int>(7);\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class InlineScenarioRuleTest(unittest.TestCase):
    """The inline-scenario rule: every bench binary has its hand-built
    ExperimentConfigs flagged, whether or not it calls
    `bench::run_spec("x")`, and a run_spec("x") without
    tests/campaign_specs/x.campaign is flagged."""

    def flagged(self, proc):
        return [ln for ln in proc.stdout.splitlines()
                if "[inline-scenario]" in ln]

    SPEC = "[campaign]\nname = figx\n"

    def test_spec_driven_binary_with_inline_config_flagged(self):
        proc = lint_tree({
            "tests/campaign_specs/figx.campaign": self.SPEC,
            "bench/figx_bench.cpp":
                "int main() {\n"
                "  harness::ExperimentConfig cfg;\n"
                "  cfg.load = 0.6;\n"
                "  const auto run = bench::run_spec(\"figx\");\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        flagged = self.flagged(proc)
        self.assertEqual(len(flagged), 1, proc.stdout)
        self.assertIn("bench/figx_bench.cpp:2:", flagged[0])
        self.assertIn("hand-built ExperimentConfig", flagged[0])

    def test_binary_without_run_spec_is_linted(self):
        proc = lint_tree({
            "bench/legacy.cpp":
                "int main() { harness::ExperimentConfig cfg; }\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        flagged = self.flagged(proc)
        self.assertEqual(len(flagged), 1, proc.stdout)
        self.assertIn("bench/legacy.cpp:1:", flagged[0])

    def test_comment_mentioning_the_type_is_not_flagged(self):
        proc = lint_tree({
            "tests/campaign_specs/figx.campaign": self.SPEC,
            "bench/figx_bench.cpp":
                "// Expands the spec into ExperimentConfigs.\n"
                "int main() {\n"
                "  const auto run = bench::run_spec(\"figx\");\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_run_spec_of_missing_spec_flagged(self):
        proc = lint_tree({
            "tests/campaign_specs/figx.campaign": self.SPEC,
            "bench/figy_bench.cpp":
                "int main() {\n"
                "  const auto run = bench::run_spec(\"figy\");\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        flagged = self.flagged(proc)
        self.assertEqual(len(flagged), 1, proc.stdout)
        self.assertIn("bench/figy_bench.cpp:2:", flagged[0])
        self.assertIn("figy.campaign does not exist", flagged[0])


class UnorderedContainerRuleTest(unittest.TestCase):
    """The unordered-container rule: no hashed container in src/, no
    escape tag; comments and strings do not count, and only src/ is
    linted."""

    @staticmethod
    def flagged(proc):
        return [ln for ln in proc.stdout.splitlines()
                if "[unordered-container]" in ln]

    def test_unordered_member_flagged(self):
        proc = lint_tree({
            "src/proto/table.h":
                "#pragma once\n"
                "struct Table {\n"
                "  std::unordered_map<int, int> by_id;\n"
                "};\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        flagged = self.flagged(proc)
        self.assertEqual(len(flagged), 1, proc.stdout)
        self.assertIn("src/proto/table.h:3:", flagged[0])

    def test_comment_mentioning_it_not_flagged(self):
        proc = lint_tree({
            "src/proto/table.h":
                "#pragma once\n"
                "// Ordered on purpose: no std::unordered_map here.\n"
                "const char* kWhy = \"not an unordered_set\";\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_tests_tree_not_linted(self):
        proc = lint_tree({
            "tests/test_table.cpp":
                "#include <unordered_set>\n"
                "std::unordered_set<int> seen;\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class RealTreeTest(unittest.TestCase):
    def test_repo_is_clean(self):
        proc = run_lint(REPO, REPO)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
