#!/usr/bin/env python3
"""Tests for the per-line rules of tools/dcpim_sa.py (run by ctest).

These rules read each line of a checkout, not parsed function bodies:
naked-assert, unordered-container, namespace-state and inline-scenario,
plus the per-line half of lifetime (bare packet allocation off the
factories). Throwaway checkouts pin the --root contract (path exemptions
keep applying however the root is named) and each rule's scope: which
files it reads, what it flags, and which escapes it accepts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SA = REPO / "tools" / "dcpim_sa.py"


def run_sa(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(SA), *args],
        capture_output=True, text=True, cwd=cwd)


def flagged(proc, rule):
    return [ln for ln in proc.stdout.splitlines() if f"[{rule}]" in ln]


def check_tree(files: dict[str, str]):
    """Checks a throwaway checkout holding `files` (repo-relative path ->
    text) plus an empty src/, the way the checker reads a real one."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        (root / "src").mkdir()
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return run_sa("--root", td, "--no-ratchet", cwd=td)


def make_fake_repo(root: Path):
    """A minimal checkout exercising the naked-assert exemption: check.h
    carries a naked assert (allowed there — it defines the macros) and
    another file carries one that must still be flagged."""
    (root / "src" / "util").mkdir(parents=True)
    (root / "src" / "util" / "check.h").write_text(
        "#pragma once\n"
        "#define DCPIM_CHECK(c, m) assert(c)\n")
    (root / "src" / "util" / "other.h").write_text(
        "#pragma once\n"
        "inline void f(int x) { assert(x > 0); }\n")


class RootExemptionTest(unittest.TestCase):
    """Path exemptions are repo-relative keys, so they must keep applying
    when the checked checkout is named by a relative path, a path with a
    trailing slash or `..` segments, or a symlink — resolution happens
    against --root, never against the repo the tool itself lives in."""

    def assert_exempt_applied(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        files = [ln.split(":", 1)[0] for ln in flagged(proc, "naked-assert")]
        self.assertNotIn("src/util/check.h", files,
                         "the src/util/check.h exemption did not apply")
        self.assertIn("src/util/other.h", files,
                      "the non-exempt naked assert must still be flagged")

    def run_root(self, root_arg, cwd):
        return run_sa("--root", str(root_arg), "--no-ratchet", cwd=cwd)

    def test_absolute_root(self):
        with tempfile.TemporaryDirectory() as td:
            make_fake_repo(Path(td))
            self.assert_exempt_applied(self.run_root(td, td))

    def test_relative_root(self):
        with tempfile.TemporaryDirectory() as td:
            make_fake_repo(Path(td) / "checkout")
            self.assert_exempt_applied(self.run_root("checkout", td))

    def test_trailing_slash_and_dotdot(self):
        with tempfile.TemporaryDirectory() as td:
            repo = Path(td) / "checkout"
            make_fake_repo(repo)
            self.assert_exempt_applied(self.run_root(f"{repo}{os.sep}", td))
            self.assert_exempt_applied(
                self.run_root(repo / "src" / "..", td))

    def test_symlinked_root(self):
        with tempfile.TemporaryDirectory() as td:
            repo = Path(td) / "checkout"
            make_fake_repo(repo)
            link = Path(td) / "link"
            link.symlink_to(repo, target_is_directory=True)
            self.assert_exempt_applied(self.run_root(link, td))

    def test_missing_src_is_usage_error(self):
        with tempfile.TemporaryDirectory() as td:
            self.assertEqual(self.run_root(td, td).returncode, 2)


class PacketFactoryTest(unittest.TestCase):
    """The lifetime rule's factory class: bare allocation of *Packet types
    is confined to the sanctioned factory files unless justified with
    `// sa-ok(lifetime):`."""

    def test_bare_allocations_flagged_outside_factories(self):
        proc = check_tree({
            "src/proto/rogue.cpp":
                "void f() {\n"
                "  auto* a = new GrantPacket();\n"
                "  auto b = std::make_unique<proto::TokenPacket>();\n"
                "  auto c = std::make_shared<Packet>();\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(len(flagged(proc, "lifetime")), 3, proc.stdout)

    def test_int_packet_only_from_the_host_factory(self):
        # HPCC's IntPacket is a data packet: only Host::make_data_packet
        # may build one, so the Network's data-packet ledger counts it.
        proc = check_tree({
            "src/proto/hpcc.cpp":
                "void f() {\n"
                "  auto* a = new net::IntPacket();\n"
                "  auto b = std::make_unique<IntPacket>();\n"
                "}\n",
            "src/net/network.h":
                "void g() { auto* p = new IntPacket(); }\n",
            "src/net/host.cpp":
                "void h() { auto* p = new IntPacket(); }\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        lines = flagged(proc, "lifetime")
        self.assertEqual(len(lines), 3, proc.stdout)
        self.assertFalse(any("src/net/host.cpp" in ln for ln in lines))

    def test_sanctioned_factories_and_justified_sites_clean(self):
        proc = check_tree({
            "src/net/host.cpp": "void f() { auto* p = new Packet(); }\n",
            "src/net/host.h":
                "void g() { auto p = std::make_unique<Packet>(); }\n",
            "src/proto/justified.cpp":
                "void h() {\n"
                "  // sa-ok(lifetime): hand-built probe packet, outside the "
                "ledger.\n"
                "  auto p = std::make_unique<ProbePacket>();\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_non_packet_names_do_not_fire(self):
        proc = check_tree({
            "src/net/other.cpp":
                "void f() {\n"
                "  auto a = std::make_unique<PacketPool>();\n"
                "  auto* b = new PacketLedger();\n"
                "  auto c = std::make_unique<int>(7);\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class InlineScenarioTest(unittest.TestCase):
    """Every bench binary has its hand-built scenario flagged."""

    def test_binary_with_inline_config_flagged(self):
        proc = check_tree({
            "bench/figx_bench.cpp":
                "int main() {\n"
                "  harness::ExperimentConfig cfg;\n"
                "  cfg.load = 0.6;\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        lines = flagged(proc, "inline-scenario")
        self.assertEqual(len(lines), 1, proc.stdout)
        self.assertIn("bench/figx_bench.cpp:2:", lines[0])
        self.assertIn("hand-built scenario (ExperimentConfig)", lines[0])

    def test_hand_built_network_and_run_flagged(self):
        proc = check_tree({
            "bench/legacy.cpp":
                "int main() {\n"
                "  auto network = std::make_unique<net::Network>(ncfg);\n"
                "  const auto topo = net::Topology::leaf_spine(*network);\n"
                "  const auto res = harness::run_experiment(cfg);\n"
                "}\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        lines = flagged(proc, "inline-scenario")
        self.assertEqual([ln.split(":")[1] for ln in lines],
                         ["2", "3", "4"], proc.stdout)

    def test_comment_mentioning_the_type_is_not_flagged(self):
        proc = check_tree({
            "bench/campaign.cpp":
                "// Expands the spec into ExperimentConfigs.\n"
                "int main() { return run(\"ExperimentConfig\"); }\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class UnorderedContainerTest(unittest.TestCase):
    """No hashed container in src/, with no escape; comments and strings
    do not count, and only src/ is checked."""

    def test_unordered_member_flagged(self):
        proc = check_tree({
            "src/proto/table.h":
                "#pragma once\n"
                "struct Table {\n"
                "  std::unordered_map<int, int> by_id;\n"
                "};\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        lines = flagged(proc, "unordered-container")
        self.assertEqual(len(lines), 1, proc.stdout)
        self.assertIn("src/proto/table.h:3:", lines[0])

    def test_comment_mentioning_it_not_flagged(self):
        proc = check_tree({
            "src/proto/table.h":
                "#pragma once\n"
                "// Ordered on purpose: no std::unordered_map here.\n"
                "const char* kWhy = \"not an unordered_set\";\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_tests_tree_not_checked(self):
        proc = check_tree({
            "tests/test_table.cpp":
                "#include <unordered_set>\n"
                "std::unordered_set<int> seen;\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_escape_comment_is_rejected(self):
        proc = check_tree({
            "src/proto/table.h":
                "// sa-ok(unordered-container): lookups only, never walked\n"
                "std::unordered_map<int, int> by_id;\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(len(flagged(proc, "unordered-container")), 1)
        self.assertEqual(len(flagged(proc, "sa-suppression")), 1)


class NamespaceStateTest(unittest.TestCase):
    """No mutable namespace-scope variable in src/ without a justification:
    sweep threads share it. Only column-0 object definitions count, and
    const or constexpr ones are fine."""

    def test_immutable_and_non_object_lines_clean(self):
        proc = check_tree({
            "src/util/consts.h":
                "#pragma once\n"
                "#include <cstdint>\n"
                "namespace dcpim {\n"
                "const int kRetries = 50;\n"
                "constexpr std::uint8_t kPriority = 1;\n"
                "inline constexpr double kHeadroom = 0.04;\n"
                "static const char* const kName = \"x\";\n"
                "using Id = std::uint64_t;\n"
                "int retries(int base);\n"
                "int retries(int base) { return base + kRetries; }\n"
                "struct Counter;\n"
                "struct Counter {\n"
                "  int hits = 0;\n"
                "};\n"
                "Counter& operator+=(Counter& c, int n);\n"
                "}  // namespace dcpim\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_static_global_and_atomic_flagged(self):
        proc = check_tree({
            "src/util/state.cpp":
                "#include <atomic>\n"
                "namespace dcpim {\n"
                "static int g_count = 0;\n"
                "std::atomic<int> g_level{0};\n"
                "int g_plain;\n"
                "}  // namespace dcpim\n",
        })
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        lines = flagged(proc, "namespace-state")
        self.assertEqual(
            [ln.split(": ", 1)[0] for ln in lines],
            ["src/util/state.cpp:3", "src/util/state.cpp:4",
             "src/util/state.cpp:5"], proc.stdout)

    def test_justified_global_clean(self):
        proc = check_tree({
            "src/util/state.cpp":
                "#include <atomic>\n"
                "// sa-ok(namespace-state): one level per process\n"
                "std::atomic<int> g_level{0};\n",
        })
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_tests_tree_not_checked(self):
        proc = check_tree({"tests/test_state.cpp": "int g_count = 0;\n"})
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
