#!/usr/bin/env python3
"""Negative-compile check for the -Wthread-safety annotation contract.

The capability annotations in src/util/thread_annotations.h are only worth
their keep if a violation actually breaks the build. This test proves it
three ways:

  1. a write to a DCPIM_GUARDED_BY field without the lock held must FAIL
     to compile under clang -Wthread-safety -Werror;
  2. the identical code with a MutexLock held must compile cleanly;
  3. the real annotated TU (harness/sweep.cpp) must be analysis-clean.

Clang is required for the analysis (the macros expand to nothing under
gcc); when no clang++ is on PATH the clang cases are skipped — CI's Werror
lane installs clang so they run there. A final case checks the gcc
fallback still compiles, so the annotations never fork the build.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
CLANG = shutil.which("clang++")
GCC = shutil.which("g++")

SNIPPET_UNLOCKED = """
#include "util/mutex.h"
using dcpim::util::Mutex;
struct Counter {
  Mutex mu;
  int value DCPIM_GUARDED_BY(mu) = 0;
  void bump_unlocked() { ++value; }  // must not compile: mu not held
};
int main() { Counter c; c.bump_unlocked(); }
"""

SNIPPET_LOCKED = """
#include "util/mutex.h"
using dcpim::util::Mutex;
using dcpim::util::MutexLock;
struct Counter {
  Mutex mu;
  int value DCPIM_GUARDED_BY(mu) = 0;
  void bump() {
    MutexLock lk(mu);
    ++value;
  }
};
int main() { Counter c; c.bump(); }
"""

def compile_snippet(compiler: str, code: str, *flags: str):
    with tempfile.TemporaryDirectory() as td:
        src = Path(td) / "snippet.cpp"
        src.write_text(code)
        return subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only", f"-I{SRC}",
             *flags, str(src)],
            capture_output=True, text=True)


@unittest.skipIf(CLANG is None, "clang++ not on PATH (CI installs it)")
class ClangThreadSafetyTest(unittest.TestCase):
    FLAGS = ("-Wthread-safety", "-Werror")

    def test_unguarded_write_fails_to_compile(self):
        proc = compile_snippet(CLANG, SNIPPET_UNLOCKED, *self.FLAGS)
        self.assertNotEqual(proc.returncode, 0,
                            "unguarded write compiled — annotations dead")
        self.assertIn("-Wthread-safety", proc.stderr)
        self.assertIn("value", proc.stderr)

    def test_guarded_write_compiles(self):
        proc = compile_snippet(CLANG, SNIPPET_LOCKED, *self.FLAGS)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_annotated_tu_is_analysis_clean(self):
        tu = "src/harness/sweep.cpp"
        proc = subprocess.run(
            [CLANG, "-std=c++20", "-fsyntax-only", f"-I{SRC}",
             "-Wthread-safety", "-Werror=thread-safety", str(REPO / tu)],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, f"{tu}:\n{proc.stderr}")


@unittest.skipIf(GCC is None, "g++ not on PATH")
class GccFallbackTest(unittest.TestCase):
    def test_annotations_vanish_under_gcc(self):
        proc = compile_snippet(GCC, SNIPPET_LOCKED, "-Wall", "-Werror")
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
