#!/usr/bin/env python3
"""Project-specific lint for the dcPIM simulator.

Enforces the repo rules that clang-tidy cannot express (fourth CI lane;
see .github/workflows/ci.yml):

  naked-assert      no C `assert(...)` outside util/check.h — invariants go
                    through DCPIM_CHECK/DCPIM_DCHECK so they survive NDEBUG
                    and report the simulated time (static_assert is fine).
  double-sim-time   no `double` declarations of sim-time state — simulation
                    time is exact int64 picoseconds behind the Time /
                    TimePoint strong types; doubles belong only at the
                    to_ns/to_us/... reporting boundary.
  nondeterminism    no `std::rand`/`srand`/`std::random_device` and no
                    wall-clock reads (std::chrono system/steady/
                    high_resolution clocks, gettimeofday, ::time()) in
                    src/ — all randomness flows through the seeded
                    util/rng.h (fault injection included: FaultPlans draw
                    from dedicated seeded streams, never entropy) and all
                    time through the Simulator clock, keeping runs
                    bit-for-bit reproducible.
  static-local      no `static` (or `static thread_local`) non-const local
                    state in src/ without a `// shared-ok:` justification —
                    function-local statics are process-wide mutable state
                    that leaks between experiments and breaks the parallel-
                    sweep isolation contract (harness/sweep.h). const/
                    constexpr statics are immutable and always fine. The
                    `// shared-ok:` comment covers its own line and the
                    lines below it up to the first blank line (bounded
                    reach), so one justification can cover a paragraph.
  unordered-container
                    no `unordered_*` token (std::unordered_map/set, their
                    headers) in src/, with no escape tag: hashed containers
                    walk in bucket order, which differs across standard
                    libraries and can leak into packet order. Use std::map/
                    std::set, or a std::vector where the key is already a
                    dense index (host id, flow id). Every container in the
                    simulator then iterates in a defined order.

  packet-factory    no bare `new`/`make_unique`/`make_shared` of a
                    `*Packet` type outside the sanctioned factories
                    (net/host.{h,cpp}) without an `// sa-ok(lifetime):`
                    justification — data packets (Packet, and HPCC's
                    IntPacket) must come from Host::make_data_packet, so
                    the Network's made/freed ledger counts every one
                    (DESIGN.md §13). This is the
                    fast regex pre-filter of the dcpim-sa `lifetime`
                    rule's factory-discipline class (tools/dcpim_sa.py
                    checks the same thing semantically, through typedefs).

  inline-scenario   no bench binary builds an `ExperimentConfig`: every
                    figure's scenario is a committed campaign spec that
                    the binary runs with `bench::run_spec("x")`, and a
                    run_spec("x") whose tests/campaign_specs/x.campaign
                    does not exist is flagged too. Keeps the committed
                    spec the single source of scenario truth instead of a
                    copy that drifts from the C++.

The historical unit-raw rule (every `.raw()` escape needs a justification)
moved to tools/dcpim_sa.py, which checks it semantically — including via
auto and templates — under the `sa-ok(unit-raw)` suppression grammar.

Scope: src/ only (tests/bench/examples may use raw() freely — the typed API
is the thing under test there), except inline-scenario, which by nature
lints the bench binaries (bench/*.cpp). Run from anywhere:

    python3 tools/lint_dcpim.py            # lint the repo it lives in
    python3 tools/lint_dcpim.py --root DIR # lint another checkout

Exit status 0 = clean, 1 = violations (printed one per line as
path:line: [rule] message).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".h", ".cpp"}

# Files exempt from a specific rule: (rule, path relative to repo root).
EXEMPT = {
    ("naked-assert", "src/util/check.h"),  # defines the check macros
    # Sanctioned packet factories: the only places allowed to allocate
    # packet types bare (mirrors SANCTIONED_FACTORY_FILES in dcpim_sa.py).
    ("packet-factory", "src/net/host.h"),
    ("packet-factory", "src/net/host.cpp"),
}

NAKED_ASSERT = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
STATIC_ASSERT = re.compile(r"static_assert\s*\(")

# A `double` declaration whose name smells like simulation time. The
# ps/ns/us/ms factories take `double v` parameters and the to_* helpers
# return double — those lines declare no time-named double variable, so the
# name filter keeps them clean without an exemption list. Rate names like
# `bytes_per_sec` are dimensionally per-time, not time, so `per_` names are
# excluded; a double *initialized* from a sanctioned to_* conversion is the
# reporting boundary itself and is likewise allowed.
DOUBLE_SIM_TIME = re.compile(
    r"\bdouble\s+(?!\w*per_)\w*(?:time|rtt|deadline|timestamp|horizon|epoch"
    r"|_ps|_ns|_us|_ms|_sec)\w*\s*[;={]",
    re.IGNORECASE,
)
SANCTIONED_TIME_CONVERSION = re.compile(r"=\s*to_(?:ns|us|ms|sec)\s*\(")

NONDETERMINISM = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "std::rand/srand"),
    (re.compile(r"\bstd::random_device\b|\brandom_device\s+\w"),
     "std::random_device"),
    (re.compile(r"\bstd::chrono::(system|steady|high_resolution)_clock\b"),
     "wall-clock read"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"(?<![_A-Za-z0-9:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "::time()"),
]

# How far below a justification comment its coverage can reach, bounded by
# the first blank line (keeps stale comments from silently covering new
# code paragraphs). tools/dcpim_sa.py mirrors this for sa-ok suppressions.
TAG_MAX_REACH = 12

# An indented (function/class scope — namespace scope is unindented in this
# codebase) `static` or `static thread_local` declaration of a non-const
# object. The trailing alternation requires the declarator to reach `=`,
# `{`, `;` or end-of-line without crossing a `(`, which excludes static
# member/free function declarations; `static_assert` fails the `\s+` after
# `static`. const/constexpr statics are immutable after their (thread-safe)
# initialization and are always fine.
STATIC_LOCAL = re.compile(
    r"^\s+static\s+(?:thread_local\s+)?(?!const\b|constexpr\b)"
    r"[\w:<>,*&\s]+?[\w_]+\s*(?:[={;]|$)")
SHARED_OK_TAG = "shared-ok:"

UNORDERED_CONTAINER = re.compile(r"\bunordered_\w+")

# Allocation of a type whose name ends in `Packet` (qualified or not), via
# bare `new` or the make_unique/make_shared factories. `\w*Packet\b` cannot
# land inside identifiers like PacketPool (no word boundary there).
PACKET_FACTORY = re.compile(
    r"\bnew\s+(?:[\w:]+::)?\w*Packet\b"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:[\w:]+::)?\w*Packet\s*[>,]")
SA_OK_LIFETIME_TAG = "sa-ok(lifetime):"

# A hand-built scenario in a bench binary. Matching the type name (rather
# than construction syntax) catches every variant: direct construction,
# copies being mutated, helper functions.
INLINE_SCENARIO = re.compile(r"\bExperimentConfig\b")
# The call that makes a bench binary spec-driven; group 1 is the spec name.
RUN_SPEC_CALL = re.compile(r'\bbench::run_spec\(\s*"([^"]+)"')


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (approximate,
    line-local: good enough for the patterns above, which never span
    lines in this codebase)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def tag_covered_lines(lines: list[str], tag: str) -> set[int]:
    """Lines justified by a `// <tag>` comment: the comment's own line and
    the lines below it up to the first blank line (bounded reach)."""
    covered: set[int] = set()
    for i, line in enumerate(lines):
        if tag not in line:
            continue
        covered.add(i)
        for j in range(i + 1, min(i + 1 + TAG_MAX_REACH, len(lines))):
            if not lines[j].strip():
                break
            covered.add(j)
    return covered


def lint_file(path: Path, rel: str) -> list[str]:
    violations: list[str] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    shared_ok = tag_covered_lines(lines, SHARED_OK_TAG)
    lifetime_ok = tag_covered_lines(lines, SA_OK_LIFETIME_TAG)

    for idx, line in enumerate(lines):
        where = f"{rel}:{idx + 1}"
        code = strip_comments_and_strings(line)

        if ("naked-assert", rel) not in EXEMPT:
            if NAKED_ASSERT.search(code) and not STATIC_ASSERT.search(code):
                violations.append(
                    f"{where}: [naked-assert] use DCPIM_CHECK/DCPIM_DCHECK "
                    f"from util/check.h instead of assert()")

        if (DOUBLE_SIM_TIME.search(code)
                and not SANCTIONED_TIME_CONVERSION.search(code)):
            violations.append(
                f"{where}: [double-sim-time] sim-time state must be the "
                f"integer Time/TimePoint types, not double")

        for pattern, what in NONDETERMINISM:
            if pattern.search(code):
                violations.append(
                    f"{where}: [nondeterminism] {what} breaks reproducible "
                    f"runs; use util/rng.h / the Simulator clock")

        if STATIC_LOCAL.search(code) and idx not in shared_ok:
            violations.append(
                f"{where}: [static-local] static non-const local state "
                f"breaks per-experiment isolation (harness/sweep.h); make "
                f"it per-experiment or justify with `// {SHARED_OK_TAG}`")

        if UNORDERED_CONTAINER.search(code):
            violations.append(
                f"{where}: [unordered-container] hashed containers iterate "
                f"in library-dependent order; use std::map/std::set, or a "
                f"std::vector indexed by a dense id")

        if (("packet-factory", rel) not in EXEMPT
                and PACKET_FACTORY.search(code)
                and idx not in lifetime_ok):
            violations.append(
                f"{where}: [packet-factory] packet types are allocated by "
                f"the Host factories only; route "
                f"through them or justify with `// {SA_OK_LIFETIME_TAG}`")

    return violations


def lint_inline_scenarios(root: Path) -> list[str]:
    violations: list[str] = []
    spec_dir = root / "tests" / "campaign_specs"
    for path in sorted((root / "bench").glob("*.cpp")):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for idx, line in enumerate(lines):
            code = strip_comments_and_strings(line)
            if INLINE_SCENARIO.search(code):
                violations.append(
                    f"{rel}:{idx + 1}: [inline-scenario] hand-built "
                    f"ExperimentConfig; put the scenario in "
                    f"tests/campaign_specs/ and run it with "
                    f"bench::run_spec (bench_common.h)")
            if line.lstrip().startswith("//"):
                continue
            for match in RUN_SPEC_CALL.finditer(line):
                spec_name = f"{match.group(1)}.campaign"
                if not (spec_dir / spec_name).is_file():
                    violations.append(
                        f"{rel}:{idx + 1}: [inline-scenario] "
                        f"tests/campaign_specs/{spec_name} does not exist; "
                        f"run_spec() would exit 2 at start-up")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's repo)")
    args = parser.parse_args()

    # Resolve the root before computing EXEMPT-relative paths: a relative,
    # symlinked, or `..`-laden --root must produce the same repo-relative
    # keys as running from the checkout itself, or exemptions silently stop
    # applying (see tests/test_lint_dcpim.py).
    root = args.root.resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"lint_dcpim: no src/ under {root}", file=sys.stderr)
        return 2

    files = sorted(
        p for p in src.rglob("*") if p.suffix in SOURCE_SUFFIXES)
    violations: list[str] = []
    for path in files:
        rel = path.resolve().relative_to(root).as_posix()
        violations.extend(lint_file(path, rel))
    violations.extend(lint_inline_scenarios(root))

    for v in violations:
        print(v)
    print(
        f"lint_dcpim: {len(files)} files, {len(violations)} violation(s)",
        file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
