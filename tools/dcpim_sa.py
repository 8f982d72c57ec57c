#!/usr/bin/env python3
"""dcpim-sa: the project checker for the dcPIM simulator (sixth CI lane).

It enforces the repo rules clang-tidy cannot express, over a per-file model
(function definitions, call sites, switch statements, declarations), a
whole-program call graph, and the source lines (DESIGN.md §8, §10, §13):

  determinism     no code in src/ may reach std::rand/srand/random_device or
                  a wall clock (std::chrono system/steady/high_resolution,
                  gettimeofday, ::time(), clock()). Findings reachable from
                  an event root (handlers, schedulers, and the fault-plan
                  constructors random_fault_plan/expand) carry the call
                  path. A per-line scan adds sites no function body holds
                  (a random_device member, a namespace-scope clock alias).
  packet-switch   every `switch` over a *Kind enum of src/proto/, src/core/
                  or src/sim/fault/ covers all enumerators; a bare
                  `default:` is not coverage.
  hot-alloc       functions marked `// sa-hot` must not transitively reach
                  allocation or container growth within src/net/ and
                  src/sim/ (protocol dispatch is the boundary).
  unit-raw        every `.raw()`/`->raw()` strong-type escape is justified.
  lifetime        packet/event escapes: (a) a class field holding a raw
                  packet pointer/reference; (b) a lambda handed to
                  schedule_at/schedule_after capturing by reference or
                  capturing a raw packet parameter; (c) new/make_unique/
                  make_shared of a packet type (through typedefs and base
                  classes, and per line for any `*Packet` name) outside
                  src/net/host.{h,cpp}, bypassing the data-packet ledger.
                  Every site, suppressed or not, lands in --lifetime-json.
  naked-assert    no C `assert(...)` outside src/util/check.h.
  double-sim-time no `double` declaration of sim-time state (a `per_` rate
                  or a to_ns/to_us/... conversion is fine).
  static-local    no mutable `static` (or `static thread_local`) local state
                  without a justification: it leaks between experiments.
  namespace-state no mutable namespace-scope variable (a column-0
                  definition that is neither `const` nor `constexpr`)
                  without a justification: sweep threads share it.
  unordered-container
                  no `unordered_*` token: hashed containers walk in
                  library-dependent order.
  inline-scenario no bench/*.cpp builds a scenario (`ExperimentConfig`,
                  `net::Network`, `Topology::`, `run_experiment`): every
                  figure is a tests/campaign_specs/ spec bench/campaign runs.

Suppression grammar (checked by the built-in `sa-suppression` meta-rule):

    // sa-ok(<rule>): <justification>

The justification is mandatory; the comment covers its own line and the
lines below it up to the first blank line (max 12). determinism,
naked-assert, double-sim-time, unordered-container and inline-scenario
take none.
Suppressions are counted per rule and ratcheted against
tools/sa_baseline.json: a count above the baseline fails the run, a count
below it prints a reminder to tighten. Unused and malformed suppressions
are findings, and so are ones naming an unknown or unsuppressible rule.

The frontend is a built-in tokenizer/parser, so the checker needs nothing
beyond python3; the fixture corpus regression-tests it.

Usage:
    tools/dcpim_sa.py [--root DIR]     # check a checkout (default: this one)
    tools/dcpim_sa.py --json build/sa_report.json \
        --lifetime-json build/sa_lifetime.json
    tools/dcpim_sa.py --files tests/sa_fixtures/*.cpp --no-ratchet

Without --files, the checker reads every .h/.cpp under <root>/src, plus
<root>/bench/*.cpp for inline-scenario. With --files, every rule runs on
every listed file and no file is a sanctioned packet factory.

Exit status: 0 clean, 1 findings (or ratchet regression), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# =============================================================================
# Configuration tables
# =============================================================================

RULES = ("determinism", "packet-switch", "hot-alloc", "unit-raw",
         "lifetime", "naked-assert", "double-sim-time", "static-local",
         "namespace-state", "unordered-container", "inline-scenario",
         "sa-suppression")
# Rules an sa-ok comment may not name: their sites have no sound escape.
UNSUPPRESSIBLE = {"determinism", "naked-assert", "double-sim-time",
                  "unordered-container", "inline-scenario", "sa-suppression"}

# Qualified token chains whose *call* is banned anywhere in src/.
BANNED_QUALIFIED = {
    ("std", "rand"): "std::rand",
    ("std", "srand"): "std::srand",
    ("std", "random_device"): "std::random_device",
    ("std", "chrono", "system_clock"): "wall clock (system_clock)",
    ("std", "chrono", "steady_clock"): "wall clock (steady_clock)",
    ("std", "chrono", "high_resolution_clock"):
        "wall clock (high_resolution_clock)",
    ("chrono", "system_clock"): "wall clock (system_clock)",
    ("chrono", "steady_clock"): "wall clock (steady_clock)",
    ("chrono", "high_resolution_clock"):
        "wall clock (high_resolution_clock)",
}

# Bare identifiers banned when they appear as a call (not behind . or ->).
BANNED_BARE_CALLS = {
    "rand": "rand()",
    "srand": "srand()",
    "rand_r": "rand_r()",
    "drand48": "drand48()",
    "lrand48": "lrand48()",
    "gettimeofday": "gettimeofday()",
    "random_device": "std::random_device",
}
# time(...) / clock() are only nondeterminism when called bare with a
# wall-clock-shaped argument list; member fns named time()/clock() are fine.
BANNED_TIME_LIKE = {"time", "clock"}

# Method names whose call means allocation/growth on the hot path.
ALLOC_CALLS = {
    "make_unique", "make_shared", "push_back", "emplace_back", "push_front",
    "emplace_front", "emplace", "insert", "resize", "reserve", "assign",
    "append", "to_string",
}

# Functions whose simple name marks an event-handler entry point. Any
# function that schedules simulator callbacks is also a root: its lambda
# bodies execute at event time and the text frontend attributes lambda-body
# calls to the enclosing function. The fault-plan constructors are roots
# too: random_fault_plan/expand run before the simulation starts, but the
# plans they draw feed wildcard resolution and per-port loss streams, so a
# nondeterminism leak there desynchronizes sweeps exactly like one at
# event time would (FaultInjector::install is already a root — it
# schedules).
EVENT_ROOT_NAMES = {"on_packet", "on_flow_arrival", "receive", "run",
                    "random_fault_plan", "expand"}
SCHEDULING_CALLS = {"schedule_at", "schedule_after"}

# Path prefixes (repo-relative, forward slashes) whose *Kind enums are
# packet/control-kind enums subject to the exhaustiveness rule. FaultKind
# (src/sim/fault/) rides the same rule: a `default:` swallowing a newly
# added fault verb would silently skip injecting it.
KIND_ENUM_PATHS = ("src/proto/", "src/core/", "src/sim/fault/")
KIND_ENUM_RE = re.compile(r"Kind$")

# --- lifetime rule tables ----------------------------------------------------
# The only files that may manufacture packet objects: the Host factories
# (make_data_packet / make_control). Everything else must go through them —
# that is what keeps the data-packet ledger whole.
# Empty in --files fixture mode, where every packet allocation is flagged.
SANCTIONED_FACTORY_FILES = ("src/net/host.h", "src/net/host.cpp")

# Owning wrappers whose presence in a field's type makes a packet member
# safe: the wrapper's destructor runs, so a freed packet cannot dangle it.
OWNING_WRAPPERS = {"unique_ptr", "shared_ptr", "PacketPtr"}

# hot-alloc traversal only descends into functions defined under these
# prefixes; a call out of scope is the accepted protocol-dispatch boundary.
HOT_SCOPE = ("src/net/", "src/sim/")

# The colon is part of the grammar: prose that *mentions* sa-ok(rule)
# without one (docs, this file) is not a suppression.
SA_OK_RE = re.compile(r"sa-ok\(([A-Za-z0-9_-]+)\)\s*:\s*(.*)")
SA_HOT_RE = re.compile(r"\bsa-hot\b")
SUPPRESSION_REACH = 12

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "case",
    "default", "do", "else", "new", "delete", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "catch", "throw", "decltype", "typeid",
    "noexcept", "static_assert", "alignas", "co_await", "co_return",
    "co_yield", "requires", "constexpr", "consteval", "constinit",
}

# --- per-line rule tables ----------------------------------------------------
# Files exempt from a per-line rule: (rule, repo-relative path).
LINE_EXEMPT = {("naked-assert", "src/util/check.h")}  # defines the macros

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

# Line-level twins of the determinism rule's banned calls: they also catch
# members, aliases and initialisers that no function body holds.
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

# An indented (function/class scope — namespace scope is unindented in this
# codebase) `static` or `static thread_local` declaration of a non-const
# object. The trailing alternation requires the declarator to reach `=`,
# `{`, `;` or end-of-line without crossing a `(`, which excludes static
# member/free function declarations; `static_assert` fails the `\s+` after
# `static`.
STATIC_LOCAL = re.compile(
    r"^\s+static\s+(?:thread_local\s+)?(?!const\b|constexpr\b)"
    r"[\w:<>,*&\s]+?[\w_]+\s*(?:[={;]|$)")

# A namespace-scope variable definition: an unindented line (namespace
# scope is unindented in this codebase) whose declarator reaches `=`, `{`
# or `;` without crossing a `(`, which leaves out function declarations
# and definitions. NOT_NAMESPACE_STATE drops what is not mutable state:
# `const`/`constexpr` objects after any `static`/`inline`/`thread_local`,
# declarations that define no object, and operator definitions.
NAMESPACE_DEF = re.compile(r"^[A-Za-z_][\w:<>,*&\s]*?\b\w+\s*[={;]")
NOT_NAMESPACE_STATE = re.compile(
    r"^(?:(?:static|inline|thread_local)\s+)*"
    r"(?:const|constexpr|extern|using|typedef|template|namespace|class"
    r"|struct|union|enum|concept)\b|\boperator\b")

UNORDERED_CONTAINER = re.compile(r"\bunordered_\w+")

# Line-level twin of the lifetime factory class: allocation of a type whose
# name ends in `Packet` (qualified or not). `\w*Packet\b` cannot land
# inside identifiers like PacketPool (no word boundary there).
PACKET_FACTORY = re.compile(
    r"\bnew\s+(?:[\w:]+::)?\w*Packet\b"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:[\w:]+::)?\w*Packet\s*[>,]")

# A hand-built scenario in a bench binary. Matching names (rather than
# construction syntax) catches every variant: direct construction, copies
# being mutated, helper functions.
INLINE_SCENARIO = re.compile(
    r"\bExperimentConfig\b|\bnet::Network\b|\bTopology::|\brun_experiment\b")


# =============================================================================
# Findings / report model
# =============================================================================

@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    path: list[str] = field(default_factory=list)  ##< call path, if any

    def to_json(self):
        d = {"rule": self.rule, "file": self.file, "line": self.line,
             "message": self.message}
        if self.path:
            d["path"] = self.path
        return d


@dataclass
class Suppression:
    rule: str
    file: str
    line: int
    justification: str
    used: bool = False


# =============================================================================
# Text frontend: tokenizer
# =============================================================================

@dataclass
class Tok:
    text: str
    line: int
    kind: str  # "id", "num", "punct"


def tokenize(source: str):
    """Lexes C++ source into tokens, and separately returns per-line comment
    text (for sa-ok / sa-hot annotations). String/char literal contents are
    dropped; the literal is kept as a single punct token so call argument
    shapes survive."""
    toks: list[Tok] = []
    comments: dict[int, str] = {}
    i, n, line = 0, len(source), 1
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            if j < 0:
                j = n
            comments[line] = comments.get(line, "") + source[i + 2:j]
            i = j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                j = n
            block = source[i + 2:j]
            # A block comment annotates the line it starts on.
            comments[line] = comments.get(line, "") + block
            line += block.count("\n")
            i = j + 2
            continue
        if c == "#":  # preprocessor directive: skip to end of (logical) line
            while i < n and source[i] != "\n":
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                i += 1
            continue
        if c in "\"'":
            # R"(...)" raw strings are not used in this codebase; plain scan.
            quote = c
            i += 1
            while i < n and source[i] != quote:
                if source[i] == "\\":
                    i += 1
                if i < n and source[i] == "\n":
                    line += 1
                i += 1
            i += 1
            toks.append(Tok('""' if quote == '"' else "''", line, "punct"))
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(Tok(source[i:j], line, "id"))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and (source[j].isalnum() or source[j] in "._'+-" and
                             (source[j] not in "+-" or
                              source[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok(source[i:j], line, "num"))
            i = j
            continue
        # multi-char punctuation we care about (longest match first)
        for multi in ("<<=", ">>=", "::", "->", "<<", ">>", "<=", ">=",
                      "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
                      "%=", "|=", "&=", "^=", "++", "--"):
            if source.startswith(multi, i):
                toks.append(Tok(multi, line, "punct"))
                i += len(multi)
                break
        else:
            toks.append(Tok(c, line, "punct"))
            i += 1
    return toks, comments


# =============================================================================
# Text frontend: TU model extraction
# =============================================================================

@dataclass
class FunctionDef:
    name: str          ##< qualified as written, e.g. "Simulator::heap_push"
    simple: str        ##< last component, e.g. "heap_push"
    file: str
    line: int
    calls: list = field(default_factory=list)       ##< (simple_name, line)
    banned: list = field(default_factory=list)      ##< (what, line)
    allocs: list = field(default_factory=list)      ##< (what, line)
    switches: list = field(default_factory=list)    ##< SwitchStmt
    is_hot: bool = False
    schedules: bool = False
    ##< typed allocations: (alloc_kind, type_name, line) for `new T`,
    ##< `make_unique<T>`, `make_shared<T>` — the lifetime factory rule
    ##< filters these against the packet-type registry
    typed_allocs: list = field(default_factory=list)
    ##< capture lists of lambdas passed to the scheduling API:
    ##< (list-of-capture-token-lists, line)
    sched_captures: list = field(default_factory=list)
    ##< parameter names declared as raw Packet*/Packet& (name-based:
    ##< `Packet` or `*Packet`; the owning PacketPtr never matches)
    packet_params: list = field(default_factory=list)


@dataclass
class ClassDef:
    name: str
    file: str
    bases: list = field(default_factory=list)      ##< direct base names
    fields: list = field(default_factory=list)     ##< (name, type_str, line)


@dataclass
class SwitchStmt:
    file: str
    line: int
    labels: set
    has_default: bool


@dataclass
class TUModel:
    file: str
    functions: list = field(default_factory=list)
    enums: dict = field(default_factory=dict)       ##< name -> [enumerators]
    classes: list = field(default_factory=list)      ##< ClassDef
    raw_calls: list = field(default_factory=list)   ##< lines with .raw()
    comments: dict = field(default_factory=dict)


def match_paren(toks, i):
    """toks[i] == '('; returns index of its matching ')'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "(":
            depth += 1
        elif toks[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def match_brace(toks, i):
    """toks[i] == '{'; returns index of its matching '}'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "{":
            depth += 1
        elif toks[i].text == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def parse_enums(toks, out: dict):
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text == "enum" and toks[i].kind == "id":
            j = i + 1
            if j < n and toks[j].text in ("class", "struct"):
                j += 1
            if j < n and toks[j].kind == "id":
                name = toks[j].text
                j += 1
                if j < n and toks[j].text == ":":  # underlying type
                    while j < n and toks[j].text != "{":
                        j += 1
                if j < n and toks[j].text == "{":
                    end = match_brace(toks, j)
                    enumerators = []
                    k = j + 1
                    expect_name = True
                    depth = 0
                    while k < end:
                        t = toks[k]
                        if t.text in ("(", "{", "["):
                            depth += 1
                        elif t.text in (")", "}", "]"):
                            depth -= 1
                        elif depth == 0 and t.text == ",":
                            expect_name = True
                        elif depth == 0 and expect_name and t.kind == "id":
                            enumerators.append(t.text)
                            expect_name = False
                        k += 1
                    if enumerators:
                        out[name] = enumerators
                    i = end
        i += 1


def parse_classes(toks, file, out: list, start=0, end=None):
    """Finds class/struct definitions in toks[start:end] (nested classes
    recursed) and records their line span, direct bases and mutable data
    members — the model behind the lifetime rule's packet-type registry
    and raw-packet field check."""
    if end is None:
        end = len(toks)
    i = start
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text in ("class", "struct") and \
                (i == 0 or toks[i - 1].text != "enum"):
            j = i + 1
            # skip an attribute-macro call between the keyword and the name
            # (e.g. `class DCPIM_CAPABILITY("mutex") Mutex`).
            name = None
            if j < end and toks[j].kind == "id":
                name = toks[j].text
                j += 1
                if j < end and toks[j].text == "(":
                    j = match_paren(toks, j) + 1
                    if j < end and toks[j].kind == "id":
                        name = toks[j].text
                        j += 1
            if name is not None:
                if j < end and toks[j].text == "final":
                    j += 1
                bases: list = []
                if j < end and toks[j].text == ":":
                    j += 1
                    depth = 0
                    while j < end and not (depth == 0 and
                                           toks[j].text == "{"):
                        tj = toks[j]
                        if tj.text == "<":
                            depth += 1
                        elif tj.text in (">", ">>"):
                            depth -= 2 if tj.text == ">>" else 1
                        elif depth <= 0 and tj.kind == "id" and tj.text \
                                not in ("public", "protected", "private",
                                        "virtual"):
                            bases.append(tj.text)
                        j += 1
                if j < end and toks[j].text == "{":
                    be = match_brace(toks, j)
                    cd = ClassDef(name=name, file=file, bases=bases)
                    scan_class_members(toks, j + 1, be, cd, file, out)
                    out.append(cd)
                    i = be
                    continue
        i += 1


def scan_class_members(toks, start, end, cd: ClassDef, file, out):
    """Walks one class body: fields and nested classes (recursed into `out`
    as their own ClassDefs)."""
    stmt: list = []
    i = start
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text in ("class", "struct") and \
                (i == 0 or toks[i - 1].text != "enum"):
            # nested class definition (or forward decl): recurse via
            # parse_classes, then skip to where it ended
            parse_classes(toks, file, out, i, end)
            # advance past the nested body if one was parsed
            k = i + 1
            while k < end and toks[k].text not in ("{", ";"):
                k += 1
            i = match_brace(toks, k) if k < end and toks[k].text == "{" \
                else k
            stmt = []
            i += 1
            continue
        if t.text == "{":
            prev = stmt[-1].text if stmt else ""
            if prev in (")", "const", "noexcept", "override", "final") or \
                    prev == ">":
                # method body: skip it whole, statement is done
                i = match_brace(toks, i) + 1
                classify_member(stmt, cd)
                stmt = []
                continue
            # brace initializer (`Bytes b{};`): consume without recording
            i = match_brace(toks, i) + 1
            continue
        if t.text == ";":
            classify_member(stmt, cd)
            stmt = []
            i += 1
            continue
        if t.text == ":" and len(stmt) == 1 and \
                stmt[0].text in ("public", "private", "protected"):
            stmt = []  # access specifiers are statement separators
            i += 1
            continue
        stmt.append(t)
        i += 1
    classify_member(stmt, cd)


def classify_member(stmt, cd: ClassDef):
    """Classifies one class-level statement as a field, a method, or
    noise. Angle-bracket depth is tracked so template arguments (including
    `std::function<void(int)>`) never look like parameter lists."""
    if not stmt:
        return
    first = stmt[0].text
    if first in ("public", "private", "protected", "using", "typedef",
                 "friend", "static_assert", "template", "enum", "operator"):
        return
    if any(t.text == "operator" for t in stmt):
        return  # operator overload declaration, never a field
    texts = []
    angle = 0
    has_paren = False
    last_id = None
    for k, t in enumerate(stmt):
        if t.text == "<" and k > 0 and stmt[k - 1].kind == "id":
            angle += 1
        elif t.text in (">", ">>") and angle > 0:
            angle -= 2 if t.text == ">>" else 1
            angle = max(angle, 0)
        elif angle == 0:
            if t.text == "(":
                has_paren = True
            elif t.text == "=":
                break
            elif t.kind == "id":
                last_id = t.text
        texts.append(t.text)
    if has_paren:
        return  # method declaration or definition, never a field
    if "static" in texts or "constexpr" in texts or "const" in texts[:-1]:
        return  # immutable or process-static: not mutable sim-state
    if last_id is None or len(stmt) < 2 or stmt[0].kind != "id":
        return
    type_str = " ".join(tt.text for tt in stmt
                        if tt.text != last_id)
    cd.fields.append((last_id, type_str, stmt[0].line))


def split_params(toks, lp, rp):
    """Splits the parameter list in toks[lp+1:rp] into per-parameter token
    lists at top-level commas (template args, nested parens, and brace
    defaults do not split)."""
    parts: list = []
    part: list = []
    depth = 0
    for k in range(lp + 1, rp):
        t = toks[k]
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "<" and k > lp + 1 and toks[k - 1].kind == "id":
            depth += 1
        elif t.text in (">", ">>") and depth > 0:
            depth -= 2 if t.text == ">>" else 1
        if t.text == "," and depth == 0:
            parts.append(part)
            part = []
        else:
            part.append(t)
    if part:
        parts.append(part)
    return parts


def raw_packet_params(toks, lp, rp):
    """Returns the names of parameters in toks[lp+1:rp] declared as raw
    packet pointers/references (`Packet* p`, `const Packet& p`). The owning
    `PacketPtr` never matches (name-based: `Packet` or `...Packet`); rvalue
    refs of owning types don't either. Used by the lifetime rule: capturing
    such a parameter by value in a scheduled lambda escapes the packet past
    its delivery scope."""
    out = []
    for p in split_params(toks, lp, rp):
        texts = [t.text for t in p]
        if "*" not in texts and "&" not in texts:
            continue
        if not any(t.kind == "id" and
                   (t.text == "Packet" or t.text.endswith("Packet"))
                   for t in p):
            continue
        name = ""
        for t in p:
            if t.text == "=":
                break
            if t.kind == "id":
                name = t.text
        if name and name != "Packet" and not name.endswith("Packet"):
            out.append(name)
    return out


def extract_switches(toks, start, end, file, out):
    """Collects switch statements (labels at the switch's own nesting level,
    nested switches recursed) in toks[start:end]."""
    i = start
    while i < end:
        if toks[i].text == "switch" and toks[i].kind == "id":
            line = toks[i].line
            lp = i + 1
            if lp < end and toks[lp].text == "(":
                rp = match_paren(toks, lp)
                b = rp + 1
                if b < end and toks[b].text == "{":
                    be = match_brace(toks, b)
                    labels: set = set()
                    has_default = False
                    k = b + 1
                    while k < be:
                        t = toks[k]
                        if t.text == "switch" and t.kind == "id":
                            # nested switch: recurse, then skip over it
                            nlp = k + 1
                            nrp = match_paren(toks, nlp)
                            nb = nrp + 1
                            if nb < be and toks[nb].text == "{":
                                extract_switches(toks, k, match_brace(
                                    toks, nb) + 1, file, out)
                                k = match_brace(toks, nb)
                        elif t.text == "case":
                            k += 1
                            last = None
                            while k < be and toks[k].text != ":":
                                if toks[k].kind == "id":
                                    last = toks[k].text
                                k += 1
                            if last is not None:
                                labels.add(last)
                        elif t.text == "default":
                            has_default = True
                        k += 1
                    out.append(SwitchStmt(file, line, labels, has_default))
                    i = be
        i += 1


def scan_body(fn: FunctionDef, toks, start, end):
    """Populates calls / banned constructs / allocations for a function
    body span (lambdas inside are attributed to the enclosing function)."""
    n = end
    i = start
    while i < n:
        t = toks[i]
        if t.kind == "id":
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            if t.text == "new" and prev != "operator":
                fn.allocs.append(("new", t.line))
                # allocated type for the lifetime factory rule: the last
                # identifier of the type chain (`new proto::TokenPacket(...)`
                # -> TokenPacket), skipping a placement-argument group
                k = i + 1
                if k < n and toks[k].text == "(":
                    k = match_paren(toks, k) + 1
                last_id = None
                while k < n and (toks[k].kind == "id" or
                                 toks[k].text == "::"):
                    if toks[k].kind == "id":
                        last_id = toks[k].text
                    k += 1
                if last_id is not None:
                    fn.typed_allocs.append(("new", last_id, t.line))
                i += 1
                continue
            if t.text in ("make_unique", "make_shared") and nxt == "<":
                # explicit-template-arg allocation: record the allocated
                # type (first identifier inside the angle brackets)
                k, depth, first_id = i + 1, 0, None
                while k < n:
                    tk = toks[k].text
                    if tk == "<":
                        depth += 1
                    elif tk in (">", ">>"):
                        depth -= 2 if tk == ">>" else 1
                        if depth <= 0:
                            break
                    elif toks[k].kind == "id" and first_id is None:
                        first_id = toks[k].text
                    k += 1
                if first_id is not None:
                    fn.typed_allocs.append(
                        (t.text + "<>", first_id, t.line))
                fn.allocs.append((t.text + "()", t.line))
            # qualified banned chains (std::rand, std::chrono::steady_clock)
            chain_hit = False
            for chain, what in BANNED_QUALIFIED.items():
                if t.text == chain[0]:
                    k, ok = i, True
                    for part in chain[1:]:
                        if k + 2 < n and toks[k + 1].text == "::" and \
                                toks[k + 2].text == part:
                            k += 2
                        else:
                            ok = False
                            break
                    if ok and prev != "::":
                        fn.banned.append((what, t.line))
                        # skip past the chain so its tail (e.g. `rand`)
                        # is not re-reported as a bare banned call
                        i = k + 1
                        chain_hit = True
                        break
            if chain_hit:
                continue
            if nxt == "(" and t.text not in CPP_KEYWORDS:
                bare = prev not in (".", "->", "::")
                global_scope = (prev == "::" and
                                (i < 2 or toks[i - 2].kind != "id"))
                if (bare or global_scope) and t.text in BANNED_BARE_CALLS:
                    fn.banned.append((BANNED_BARE_CALLS[t.text], t.line))
                elif (bare or global_scope) and t.text in BANNED_TIME_LIKE:
                    rp = match_paren(toks, i + 1)
                    args = [a.text for a in toks[i + 2:rp]]
                    if args in ([], ["NULL"], ["nullptr"], ["0"]):
                        fn.banned.append((t.text + "() wall clock", t.line))
                if t.text in ALLOC_CALLS:
                    fn.allocs.append((t.text + "()", t.line))
                fn.calls.append((t.text, t.line))
                if t.text in SCHEDULING_CALLS:
                    fn.schedules = True
                    scan_sched_captures(fn, toks, i + 1,
                                        match_paren(toks, i + 1))
        i += 1


def scan_sched_captures(fn: FunctionDef, toks, lp, rp):
    """Records the capture list of every lambda literal in the argument
    span toks[lp+1:rp] of a schedule_at/schedule_after call. A `[` opens a
    capture list only in expression position (after `(`/`,`/an operator);
    after an identifier or `)`/`]` it is a subscript."""
    k = lp + 1
    while k < rp:
        t = toks[k]
        if t.text == "[" and k > 0 and \
                toks[k - 1].kind not in ("id", "num") and \
                toks[k - 1].text not in (")", "]"):
            depth = 0
            close = k
            while close < rp:
                if toks[close].text == "[":
                    depth += 1
                elif toks[close].text == "]":
                    depth -= 1
                    if depth == 0:
                        break
                close += 1
            parts = [[tt.text for tt in p]
                     for p in split_params(toks, k, close)]
            fn.sched_captures.append((parts, t.line))
            k = close
        k += 1


def find_function_defs(toks, file, model: TUModel):
    """Scans the token stream for function definitions (free functions,
    out-of-line methods, class-inline methods) and hands each body to
    scan_body/extract_*. Function bodies are identified as
    `name ( ... ) [const|noexcept|override|final|-> T]* [: init-list] {`;
    everything inside the braces belongs to the function, including
    lambdas."""
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "(" and i > 0 and toks[i - 1].kind == "id" and \
                toks[i - 1].text not in CPP_KEYWORDS:
            rp = match_paren(toks, i)
            # scan what follows the parameter list
            j = rp + 1
            saw_init_list = False
            while j < n:
                tj = toks[j].text
                if tj in ("const", "noexcept", "override", "final",
                          "mutable"):
                    j += 1
                elif tj == "->":  # trailing return type
                    j += 1
                    while j < n and toks[j].text not in ("{", ";", "="):
                        j += 1
                elif tj == ":" and not saw_init_list:
                    saw_init_list = True
                    j += 1
                    # skip the ctor init list: consume balanced (...) / {...}
                    # pairs that directly follow an identifier or '>'
                    while j < n:
                        tt = toks[j].text
                        if tt == "(":
                            j = match_paren(toks, j) + 1
                        elif tt == "{" and j > 0 and (
                                toks[j - 1].kind == "id" or
                                toks[j - 1].text in (">", ">>")):
                            j = match_brace(toks, j) + 1
                        elif tt == "{":
                            break  # the body
                        elif tt == ";":
                            break
                        else:
                            j += 1
                elif tj == "noexcept" or tj == "(":
                    j += 1
                else:
                    break
            if j < n and toks[j].text == "{":
                # qualified name: walk back over id (:: id)* and ~dtor
                name_parts = [toks[i - 1].text]
                k = i - 1
                while k >= 2 and toks[k - 1].text == "::" and \
                        toks[k - 2].kind == "id":
                    name_parts.insert(0, toks[k - 2].text)
                    k -= 2
                if k >= 1 and toks[k - 1].text == "~":
                    name_parts[0] = "~" + name_parts[0]
                # reject control flow shapes and calls: the token before the
                # name must not suggest an expression context
                before = toks[k - 1].text if k >= 1 else ""
                if before in (".", "->", "=", "return", ",", "(", "&&",
                              "||", "!"):
                    i = rp
                    continue
                be = match_brace(toks, j)
                fn = FunctionDef(
                    name="::".join(name_parts), simple=name_parts[-1],
                    file=file, line=toks[i - 1].line)
                fn.packet_params = raw_packet_params(toks, i, rp)
                scan_body(fn, toks, j + 1, be)
                extract_switches(toks, j + 1, be, file, fn.switches)
                model.functions.append(fn)
                i = be
                continue
            i = rp
            continue
        i += 1


def text_parse_file(source: str, rel: str) -> TUModel:
    toks, comments = tokenize(source)
    model = TUModel(file=rel, comments=comments)
    parse_enums(toks, model.enums)
    parse_classes(toks, rel, model.classes)
    find_function_defs(toks, rel, model)
    # .raw() / ->raw() escapes, anywhere in the file
    for i, t in enumerate(toks):
        if t.text == "raw" and t.kind == "id" and i > 0 and \
                toks[i - 1].text in (".", "->") and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            model.raw_calls.append(t.line)
    # sa-hot annotations: a marker on the definition line or up to two
    # lines above it marks the function as a hot root.
    hot_lines = {ln for ln, c in comments.items() if SA_HOT_RE.search(c)}
    for fn in model.functions:
        if any(ln in hot_lines for ln in range(fn.line - 2, fn.line + 1)):
            fn.is_hot = True
    return model


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (approximate,
    line-local: good enough for the per-line patterns, which never span
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


# =============================================================================
# Suppressions
# =============================================================================

def collect_suppressions(model: TUModel):
    """Parses sa-ok(<rule>): comments; returns (suppressions, findings for
    malformed ones). Coverage: the comment's own line plus lines below to
    the first blank-of-comments... — reach is computed against the source
    lines at check time (see covered_lines)."""
    sups: list[Suppression] = []
    findings: list[Finding] = []
    for line, text in sorted(model.comments.items()):
        for m in SA_OK_RE.finditer(text):
            rule, just = m.group(1), m.group(2).strip()
            if rule not in RULES or rule in UNSUPPRESSIBLE:
                valid = [r for r in RULES if r not in UNSUPPRESSIBLE]
                findings.append(Finding(
                    "sa-suppression", model.file, line,
                    f"sa-ok names unknown or unsuppressible rule '{rule}' "
                    f"(valid: {', '.join(valid)})"))
                continue
            if not just:
                findings.append(Finding(
                    "sa-suppression", model.file, line,
                    f"sa-ok({rule}) carries no justification — write why "
                    f"the escape is sound"))
                continue
            sups.append(Suppression(rule, model.file, line, just))
    return sups, findings


def suppression_cover(sups, source_lines):
    """rule -> set of covered line numbers (1-based). A suppression covers
    its own line and the lines below it up to the first blank line, capped
    at SUPPRESSION_REACH (the historical unit-raw comment reach)."""
    cover: dict[str, dict[int, Suppression]] = {}
    # Later (nearer) suppressions override earlier ones on overlap, so a
    # finding is always charged to the closest justification above it —
    # otherwise stacked paragraphs mark the nearer comment unused.
    for s in sorted(sups, key=lambda s: s.line):
        lines = cover.setdefault(s.rule, {})
        lines[s.line] = s
        for ln in range(s.line + 1,
                        min(s.line + 1 + SUPPRESSION_REACH,
                            len(source_lines) + 1)):
            if not source_lines[ln - 1].strip():
                break
            lines[ln] = s
    return cover


# =============================================================================
# Rule engine
# =============================================================================

class Analyzer:
    def __init__(self, models, files_text, hot_scope, kind_enum_paths,
                 factory_files, bench_text):
        self.models = models
        self.files_text = files_text  ##< rel -> list of source lines
        ##< rel -> source lines with comments and literals stripped: the
        ##< input of the per-line rules
        self.code = {rel: [strip_comments_and_strings(ln) for ln in lines]
                     for rel, lines in files_text.items()}
        ##< rel -> source lines the inline-scenario rule checks
        self.bench_text = bench_text
        self.hot_scope = hot_scope
        self.kind_enum_paths = kind_enum_paths
        self.factory_files = set(factory_files)
        self.findings: list[Finding] = []
        self.suppressions: list[Suppression] = []
        self.cover: dict[str, dict[str, dict[int, Suppression]]] = {}
        # global indexes
        self.by_simple: dict[str, list[FunctionDef]] = {}
        self.enums: dict[str, tuple[str, list[str]]] = {}
        for m in models:
            for fn in m.functions:
                self.by_simple.setdefault(fn.simple, []).append(fn)
            for name, enumerators in m.enums.items():
                self.enums[name] = (m.file, enumerators)
        # class registry: the lifetime rule's packet types and fields
        self.classes: dict[str, ClassDef] = {}
        for m in models:
            for cd in m.classes:
                self.classes.setdefault(cd.name, cd)
        ##< lifetime escape sites for sa_lifetime.json — same contract:
        ##< every site, suppressed or not; the standing lifetime ledger
        self.lifetime_sites: list = []
        self._packet_type_memo: dict[str, bool] = {}

    def is_packet_type(self, name: str) -> bool:
        """Packet-type registry: the `Packet` base, anything whose name
        ends in `Packet` (the project's naming convention for every wire
        object), and anything whose base-class chain reaches either."""
        if name in self._packet_type_memo:
            return self._packet_type_memo[name]
        self._packet_type_memo[name] = False  # cycle guard
        result = name == "Packet" or name.endswith("Packet")
        if not result:
            cd = self.classes.get(name)
            if cd is not None:
                result = any(self.is_packet_type(b) for b in cd.bases)
        self._packet_type_memo[name] = result
        return result

    # --- helpers -----------------------------------------------------------

    def emit(self, finding: Finding):
        file_cover = self.cover.get(finding.file, {})
        sup = file_cover.get(finding.rule, {}).get(finding.line)
        if sup is not None:
            sup.used = True
            return
        self.findings.append(finding)

    def reachable_from(self, roots, scope_prefixes=None):
        seen = set()
        frontier = list(roots)
        while frontier:
            fn = frontier.pop()
            key = (fn.file, fn.name, fn.line)
            if key in seen:
                continue
            seen.add(key)
            for callee, _ in fn.calls:
                for target in self.by_simple.get(callee, ()):
                    if scope_prefixes is not None and not any(
                            target.file.startswith(p)
                            for p in scope_prefixes):
                        continue
                    frontier.append(target)
        return seen

    def find_path(self, root, goal_key, scope_prefixes=None):
        """BFS path of function names from root to the function with key
        goal_key, for diagnostics."""
        from collections import deque
        q = deque([(root, [root.name])])
        seen = set()
        while q:
            fn, path = q.popleft()
            key = (fn.file, fn.name, fn.line)
            if key == goal_key:
                return path
            if key in seen:
                continue
            seen.add(key)
            for callee, _ in fn.calls:
                for target in self.by_simple.get(callee, ()):
                    if scope_prefixes is not None and not any(
                            target.file.startswith(p)
                            for p in scope_prefixes):
                        continue
                    q.append((target, path + [target.name]))
        return []

    # --- rules -------------------------------------------------------------

    def run(self):
        for m in self.models:
            sups, malformed = collect_suppressions(m)
            self.suppressions.extend(sups)
            self.findings.extend(malformed)
            self.cover[m.file] = suppression_cover(
                sups, self.files_text[m.file])

        self.rule_determinism()
        self.rule_packet_switch()
        self.rule_hot_alloc()
        self.rule_unit_raw()
        self.rule_lifetime()
        self.rule_lines()
        self.rule_inline_scenario()
        self.rule_unused_suppressions()
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings

    def rule_determinism(self):
        roots = [fn for m in self.models for fn in m.functions
                 if fn.simple in EVENT_ROOT_NAMES or fn.schedules]
        reachable = self.reachable_from(roots)
        seen = set()  ##< (file, line) of every function-body finding
        for m in self.models:
            for fn in m.functions:
                key = (fn.file, fn.name, fn.line)
                in_event = key in reachable
                for what, line in fn.banned:
                    seen.add((fn.file, line))
                    path = []
                    if in_event:
                        for r in roots:
                            path = self.find_path(r, key)
                            if path:
                                break
                    self.emit(Finding(
                        "determinism", fn.file, line,
                        f"{what} breaks bit-reproducible runs; use "
                        f"util/rng.h / the Simulator clock"
                        + (f" [event-reachable via "
                           f"{' -> '.join(path)}]" if path else ""),
                        path))
        # Sites outside any function body: members, aliases, initialisers.
        for rel, code in self.code.items():
            for line, text in enumerate(code, 1):
                if (rel, line) in seen:
                    continue
                for pattern, what in NONDETERMINISM:
                    if pattern.search(text):
                        self.emit(Finding(
                            "determinism", rel, line,
                            f"{what} breaks bit-reproducible runs; use "
                            f"util/rng.h / the Simulator clock"))

    def rule_packet_switch(self):
        kind_enums = {
            name: enumerators
            for name, (file, enumerators) in self.enums.items()
            if KIND_ENUM_RE.search(name) and
            (not self.kind_enum_paths or
             any(file.startswith(p) for p in self.kind_enum_paths))}
        label_owner = {}
        for name, enumerators in kind_enums.items():
            for e in enumerators:
                label_owner[e] = name
        for m in self.models:
            for fn in m.functions:
                for sw in fn.switches:
                    owners = {label_owner[lb] for lb in sw.labels
                              if lb in label_owner}
                    if len(owners) != 1:
                        continue
                    enum_name = owners.pop()
                    missing = [e for e in kind_enums[enum_name]
                               if e not in sw.labels]
                    if not missing:
                        continue
                    if sw.has_default:
                        msg = (f"switch over {enum_name} hides "
                               f"{', '.join(missing)} behind its default — "
                               f"enumerate them or audit the default with "
                               f"sa-ok(packet-switch)")
                    else:
                        msg = (f"switch over {enum_name} does not handle "
                               f"{', '.join(missing)} and has no default")
                    self.emit(Finding("packet-switch", sw.file, sw.line, msg))

    def rule_hot_alloc(self):
        hot_roots = [fn for m in self.models for fn in m.functions
                     if fn.is_hot]
        reachable = self.reachable_from(hot_roots, self.hot_scope)
        reported = set()
        for m in self.models:
            for fn in m.functions:
                key = (fn.file, fn.name, fn.line)
                if key not in reachable:
                    continue
                for what, line in fn.allocs:
                    if (fn.file, line, what) in reported:
                        continue
                    reported.add((fn.file, line, what))
                    path = []
                    for r in hot_roots:
                        path = self.find_path(r, key, self.hot_scope)
                        if path:
                            break
                    via = (f" [hot path: {' -> '.join(path)}]"
                           if len(path) > 1 else "")
                    self.emit(Finding(
                        "hot-alloc", fn.file, line,
                        f"{what} allocates on the sa-hot per-packet path "
                        f"{fn.name}(){via} — preallocate, pool, or justify "
                        f"with sa-ok(hot-alloc)", path))

    def rule_unit_raw(self):
        for m in self.models:
            for line in m.raw_calls:
                self.emit(Finding(
                    "unit-raw", m.file, line,
                    ".raw() strong-type escape without an sa-ok(unit-raw) "
                    "justification"))

    def _lifetime_site(self, escape_class, file, line, msg):
        """Records one lifetime escape: a row in the sa_lifetime.json
        ledger (suppressed or not) and, when unjustified, a finding."""
        sup = self.cover.get(file, {}).get("lifetime", {}).get(line)
        self.lifetime_sites.append({
            "class": escape_class,
            "file": file,
            "line": line,
            "detail": msg,
            "suppressed": sup is not None,
            "justification": sup.justification if sup is not None else "",
        })
        self.emit(Finding(
            "lifetime", file, line,
            msg + " — or justify with sa-ok(lifetime)"))

    def rule_lifetime(self):
        """Flow-insensitive escape analysis for packets and event
        callbacks (DESIGN.md §13). The contract: a packet's lifetime
        ends when its PacketPtr is destroyed (delivery, drop, or fault
        kill), at which point it is freed — so nothing may hold a
        raw pointer/reference past that instant. Three escape classes:
        raw packet fields, by-reference (or raw-packet-by-value) captures
        in scheduled lambdas, and packet allocation outside the factory
        files that keep the data-packet ledger."""
        reported = set()
        # (a) field-escape: declaration-based — *having* a raw packet
        # field is the hazard; flow-insensitivity means we never have to
        # prove a store happens, the field's existence is the finding.
        for cd in self.classes.values():
            for fname, ftype, fline in cd.fields:
                ttoks = ftype.split()
                if "*" not in ttoks and "&" not in ttoks:
                    continue
                if any(w in ttoks for w in OWNING_WRAPPERS):
                    continue
                if not any(tt[0].isalpha() and self.is_packet_type(tt)
                           for tt in ttoks if tt):
                    continue
                if (cd.file, fline, "field-escape") in reported:
                    continue
                reported.add((cd.file, fline, "field-escape"))
                self._lifetime_site(
                    "field-escape", cd.file, fline,
                    f"field {cd.name}::{fname} holds a raw packet "
                    f"pointer/reference ({ftype.strip()}) that survives "
                    f"the delivery call chain — a freed packet leaves "
                    f"it dangling; own it via PacketPtr or copy what you "
                    f"need")
        for m in self.models:
            for fn in m.functions:
                # (b) callback-capture-escape: scheduled lambdas run at
                # event time, after the scheduling frame is gone.
                pparams = set(fn.packet_params)
                for parts, line in fn.sched_captures:
                    for p in parts:
                        if not p or p[0] in ("this", "*", "="):
                            # [=] copies; [this]/[*this] pin the object,
                            # whose lifetime the scheduler already owns
                            continue
                        key = (fn.file, line, "callback-capture")
                        if p[0] == "&" and len(p) == 1:
                            if key in reported:
                                continue
                            reported.add(key)
                            self._lifetime_site(
                                "callback-capture", fn.file, line,
                                f"lambda scheduled from {fn.name}() "
                                f"default-captures by reference — every "
                                f"capture dangles once the scheduling "
                                f"frame returns; capture by value/move")
                        elif p[0] == "&" and len(p) >= 2:
                            if key in reported:
                                continue
                            reported.add(key)
                            self._lifetime_site(
                                "callback-capture", fn.file, line,
                                f"lambda scheduled from {fn.name}() "
                                f"captures '&{p[1]}' — the reference "
                                f"dangles once the scheduling frame "
                                f"returns; capture by value/move")
                        elif p[0] in pparams and "=" not in p:
                            if key in reported:
                                continue
                            reported.add(key)
                            self._lifetime_site(
                                "callback-capture", fn.file, line,
                                f"lambda scheduled from {fn.name}() "
                                f"captures raw packet parameter "
                                f"'{p[0]}' by value — the packet is "
                                f"freed when its owner releases it, "
                                f"before the event fires; move the "
                                f"PacketPtr in or copy the fields")
                # (c) factory-discipline: packet allocation outside the
                # sanctioned factory files bypasses the data-packet ledger.
                for what, tname, line in fn.typed_allocs:
                    if not self.is_packet_type(tname):
                        continue
                    if fn.file in self.factory_files:
                        continue
                    key = (fn.file, line, "factory")
                    if key in reported:
                        continue
                    reported.add(key)
                    self._lifetime_site(
                        "factory", fn.file, line,
                        f"{what} allocates packet type {tname} in "
                        f"{fn.name}() outside the sanctioned factory "
                        f"(src/net/host.{{h,cpp}}) — the data-packet "
                        f"ledger is bypassed; go through the Host "
                        f"factories")
        # The same class per line, for allocations no function body holds
        # (member initialisers) or whose type the body scan does not name.
        for rel, code in self.code.items():
            if rel in self.factory_files:
                continue
            for line, text in enumerate(code, 1):
                if PACKET_FACTORY.search(text) and \
                        (rel, line, "factory") not in reported:
                    reported.add((rel, line, "factory"))
                    self._lifetime_site(
                        "factory", rel, line,
                        "allocates a packet type outside the sanctioned "
                        "factory (src/net/host.{h,cpp}) — the data-packet "
                        "ledger is bypassed; go through the Host factories")

    def rule_lines(self):
        """naked-assert, double-sim-time, static-local, namespace-state
        and unordered-container over the stripped source lines."""
        for rel, code in self.code.items():
            for line, text in enumerate(code, 1):
                if (NAKED_ASSERT.search(text)
                        and not STATIC_ASSERT.search(text)
                        and ("naked-assert", rel) not in LINE_EXEMPT):
                    self.emit(Finding(
                        "naked-assert", rel, line,
                        "use DCPIM_CHECK/DCPIM_DCHECK from util/check.h "
                        "instead of assert()"))
                if (DOUBLE_SIM_TIME.search(text)
                        and not SANCTIONED_TIME_CONVERSION.search(text)):
                    self.emit(Finding(
                        "double-sim-time", rel, line,
                        "sim-time state must be the integer Time/TimePoint "
                        "types, not double"))
                if STATIC_LOCAL.search(text):
                    self.emit(Finding(
                        "static-local", rel, line,
                        "static non-const local state breaks "
                        "per-experiment isolation (harness/sweep.h); make "
                        "it per-experiment or justify with "
                        "sa-ok(static-local)"))
                if (NAMESPACE_DEF.search(text)
                        and not NOT_NAMESPACE_STATE.search(text)):
                    self.emit(Finding(
                        "namespace-state", rel, line,
                        "mutable namespace-scope state is shared by every "
                        "sweep thread (harness/sweep.h); make it "
                        "per-experiment or const, or justify with "
                        "sa-ok(namespace-state)"))
                if UNORDERED_CONTAINER.search(text):
                    self.emit(Finding(
                        "unordered-container", rel, line,
                        "hashed containers iterate in library-dependent "
                        "order; use std::map/std::set, or a std::vector "
                        "indexed by a dense id"))

    def rule_inline_scenario(self):
        """Bench binaries build no scenario: figures are committed specs."""
        for rel, lines in self.bench_text.items():
            for line, text in enumerate(lines, 1):
                m = INLINE_SCENARIO.search(strip_comments_and_strings(text))
                if m:
                    self.emit(Finding(
                        "inline-scenario", rel, line,
                        f"hand-built scenario ({m.group(0)}); put it in "
                        f"tests/campaign_specs/ and run it with "
                        f"bench/campaign"))

    def rule_unused_suppressions(self):
        for s in self.suppressions:
            if not s.used:
                self.emit(Finding(
                    "sa-suppression", s.file, s.line,
                    f"sa-ok({s.rule}) suppresses nothing — the code it "
                    f"covered moved or was fixed; delete the comment"))


# =============================================================================
# Driver
# =============================================================================

def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--files", nargs="*", type=Path,
                        help="explicit file list (fixture/test mode)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--json", type=Path, help="write JSON report here")
    parser.add_argument("--no-ratchet", action="store_true",
                        help="skip the suppression-count baseline check")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite tools/sa_baseline.json from this run")
    parser.add_argument("--rules", default=",".join(RULES),
                        help="comma-separated rules to enable")
    parser.add_argument("--lifetime-json", type=Path,
                        help="write the lifetime escape ledger here "
                             "(every site, suppressed or not)")
    args = parser.parse_args()

    # Resolve the root before computing repo-relative paths: a relative,
    # symlinked, or `..`-laden --root must produce the same keys as running
    # from the checkout itself, or path exemptions silently stop applying.
    root = args.root.resolve()
    if args.files:
        files = [f.resolve() for f in args.files]
        kind_paths: tuple = ()
        factory_files: tuple = ()  # fixtures: every packet alloc flagged
        hot_scope = None  # fixtures: hot-alloc traverses everywhere
    else:
        src = root / "src"
        if not src.is_dir():
            print(f"dcpim_sa: no src/ under {root}", file=sys.stderr)
            return 2
        files = sorted(p.resolve() for p in src.rglob("*")
                       if p.suffix in (".h", ".cpp"))
        kind_paths = KIND_ENUM_PATHS
        factory_files = SANCTIONED_FACTORY_FILES
        hot_scope = HOT_SCOPE

    def read(paths):
        out = {}
        for f in paths:
            rel = f.relative_to(root).as_posix() if f.is_relative_to(root) \
                else f.as_posix()
            out[rel] = f.read_text(encoding="utf-8")
        return out

    sources = read(files)
    models = [text_parse_file(text, rel) for rel, text in sources.items()]
    files_text = {rel: text.splitlines() for rel, text in sources.items()}
    # inline-scenario checks the bench binaries; in --files mode, every file.
    bench_text = files_text if args.files else {
        rel: text.splitlines()
        for rel, text in read(sorted((root / "bench").glob("*.cpp"))).items()}

    enabled = set(args.rules.split(","))
    analyzer = Analyzer(models, files_text, hot_scope, kind_paths,
                        factory_files, bench_text)
    findings = [f for f in analyzer.run() if f.rule in enabled]

    sup_counts: dict[str, int] = {}
    for s in analyzer.suppressions:
        sup_counts[s.rule] = sup_counts.get(s.rule, 0) + 1

    ratchet_failures = []
    baseline_path = Path(__file__).resolve().parent / "sa_baseline.json"
    if args.write_baseline:
        baseline_path.write_text(
            json.dumps(sup_counts, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    elif not args.no_ratchet and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        for rule, count in sorted(sup_counts.items()):
            allowed = baseline.get(rule, 0)
            if count > allowed:
                ratchet_failures.append(
                    f"{rule}: {count} suppressions > baseline {allowed} — "
                    f"fix the new escape or consciously raise "
                    f"tools/sa_baseline.json")
            elif count < allowed:
                print(f"dcpim_sa: ratchet can tighten — {rule} has {count} "
                      f"suppressions, baseline allows {allowed} "
                      f"(tools/dcpim_sa.py --write-baseline)")

    if args.lifetime_json:
        sites = sorted(
            analyzer.lifetime_sites,
            key=lambda s: (s["class"], s["file"], s["line"]))
        by_class: dict[str, int] = {}
        for s in sites:
            by_class[s["class"]] = by_class.get(s["class"], 0) + 1
        args.lifetime_json.parent.mkdir(parents=True, exist_ok=True)
        args.lifetime_json.write_text(
            json.dumps({
                "total_sites": len(sites),
                "by_class": by_class,
                "sites": sites,
            }, indent=2) + "\n", encoding="utf-8")

    report = {
        "files": len(files),
        "functions": sum(len(m.functions) for m in models),
        "rules": sorted(enabled & set(RULES)),
        "findings": [f.to_json() for f in findings],
        "suppressions": sup_counts,
        "ratchet_failures": ratchet_failures,
        "clean": not findings and not ratchet_failures,
    }
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n",
                             encoding="utf-8")

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    for r in ratchet_failures:
        print(f"ratchet: {r}")
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    detail = ", ".join(f"{r}={n}" for r, n in sorted(by_rule.items())) \
        or "clean"
    print(f"dcpim_sa: {len(files)} files, "
          f"{report['functions']} functions, {len(findings)} finding(s) "
          f"({detail}), suppressions "
          f"{json.dumps(sup_counts, sort_keys=True)}", file=sys.stderr)
    return 1 if findings or ratchet_failures else 0


if __name__ == "__main__":
    sys.exit(main())
