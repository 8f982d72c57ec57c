"""Roll a gprof flat profile up to the simulator's layers.

Each profiled symbol is charged to the layer of the ``dcpim::<module>::``
name it belongs to:

* the symbol's own qualified name, when it lives in a simulator module;
* otherwise (``std::`` containers, ``dcpim::UniqueFunction`` and other
  util wrappers) the first function the symbol wraps, such as the lambda's
  enclosing function in ``UniqueFunction<...>::invoke_inline<F>``;
* otherwise the first simulator type among its template arguments, as in
  ``std::_Hashtable<..., dcpim::net::FlowRxState, ...>::find``.

``net`` splits into ``net.port``, ``net.switch``, ``net.host`` and
``net.other`` by class. ``audit`` gathers the auditor (``sim::Auditor``,
``sim::Audit*`` types, ``audit_*`` member hooks) and everything defined in
src/harness/audit_probes.cpp; ``faults`` gathers ``sim::fault`` and
everything defined in src/harness/fault_injector.cpp. Names defined in
those two files are read from the source, so a new probe or fault verb
lands in the right layer without an edit here. Symbols of no simulator
module (libstdc++ instantiations over plain types, the benchmark driver)
go to ``other``.
"""

import os
import re

LAYERS = ("sim", "net.port", "net.switch", "net.host", "net.other", "core",
          "proto", "audit", "faults", "workload", "stats", "harness",
          "campaign", "util", "other")

# src/matching is not on the simulation path (dcPIM matches inside
# core::DcpimHost), so it has no layer; its symbols would count as util.
MODULES = {"sim", "net", "core", "proto", "workload", "stats", "harness",
           "campaign", "util", "check_detail"}

NET_CLASSES = {"Port": "net.port", "Switch": "net.switch",
               "Host": "net.host", "FlowRxState": "net.host"}

# Hot functions whose exact call counts the traced run reports. Each regex
# is searched in the demangled name; the counts of all matches add up.
HOT_CALLS = {
    "sim.heap_pop.calls": r"^dcpim::sim::Simulator::heap_pop\(",
    "net.port.try_transmit.calls": r"^dcpim::net::Port::try_transmit\(",
    "net.switch.select_egress.calls": r"^dcpim::net::Switch::select_egress\(",
    "net.host.rx_lookup.calls":
        r"^std::_Hashtable<[^,]+, std::pair<[^,]+, dcpim::net::FlowRxState>"
        r".*::find\(",
    "core.on_packet.calls": r"^dcpim::core::DcpimHost::on_packet\(",
    "core.issue_token.calls": r"^dcpim::core::DcpimHost::issue_token\(",
}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNED_FILES = {"audit": "src/harness/audit_probes.cpp",
               "faults": "src/harness/fault_injector.cpp"}

# A definition starts in column 0: `struct X`, or an optional return type,
# then the (possibly qualified) name and its parameter list.
_DEF_RE = re.compile(r"^(?:struct|class)\s+(\w+)|"
                     r"^(?:[A-Za-z_][\w:<>,*& ]*?\s+[*&]*)?([A-Za-z_]\w*)"
                     r"(?:::~?\w+)*\s*\(")
_OPERATOR_RE = re.compile(r"operator\s*(?:\(\)|\[\]|<=>|<<=?|>>=?|<=|>=|->\*?|"
                          r"[<>])")
_NAME_RE = re.compile(r"dcpim::((?:~?\w+::)*)(~?\w+)(\()?")


def defined_names(path):
    """Top-level names (functions, classes) a source file defines."""
    names = set()
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                m = _DEF_RE.match(line)
                if m:
                    names.add(m.group(1) or m.group(2))
    except OSError:
        pass
    return names


def _owned_names(root):
    return {layer: defined_names(os.path.join(root, rel))
            for layer, rel in OWNED_FILES.items()}


def _strip_nested(s):
    """Drops the text inside <...> and (...), keeping the brackets."""
    out, depth = [], 0
    for c in s:
        if c in "<(":
            if depth == 0:
                out.append(c)
            depth += 1
        elif c in ">)":
            depth = max(depth - 1, 0)
            if depth == 0:
                out.append(c)
        elif depth == 0:
            out.append(c)
    return "".join(out)


class Classifier:
    def __init__(self, root=REPO_ROOT):
        self.owned = _owned_names(root)

    def _layer(self, scopes, name):
        """Layer of dcpim::<scopes><name>, or None for util-only names."""
        parts = [p for p in scopes.split("::") if p and p != "anon"]
        module = parts[0] if parts else None
        rest = parts[1:] + [name]
        if module not in MODULES or module in ("util", "check_detail"):
            return None  # dcpim::UniqueFunction, dcpim::TimePoint, ...
        first = rest[0]
        if module == "sim":
            if first == "fault":
                return "faults"
            if first.startswith("Audit"):
                return "audit"
            return "sim"
        if module == "harness":
            for layer, names in self.owned.items():
                if first in names:
                    return layer
            return "harness"
        if any(p.startswith("audit_") for p in rest):
            return "audit"
        if module == "net":
            return NET_CLASSES.get(first, "net.other")
        return module

    def _mentions(self, text, functions_only):
        for m in _NAME_RE.finditer(text):
            if functions_only and not m.group(3):
                continue
            layer = self._layer(m.group(1), m.group(2))
            if layer:
                yield layer

    def classify(self, symbol):
        s = symbol.replace("(anonymous namespace)", "anon")
        s = _OPERATOR_RE.sub("operator_", s)
        head = _strip_nested(s)
        for text, functions_only in ((head, False), (s, True), (s, False)):
            layer = next(self._mentions(text, functions_only), None)
            if layer:
                return layer
        return "util" if "dcpim::" in s else "other"


_FLAT_ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)"
                       r"(?:\s+(\d+)\s+[\d.]+\s+[\d.]+)?\s+(\S.*)$")


def parse_flat_profile(text):
    """Rows of `gprof -b -p`: (self_seconds, calls, demangled name)."""
    rows = []
    for line in text.splitlines():
        m = _FLAT_ROW.match(line)
        if m:
            calls = int(m.group(4)) if m.group(4) else 0
            rows.append((float(m.group(3)), calls, m.group(5).strip()))
    return rows


def roll_up(rows, classifier=None):
    """Per-layer self seconds and call counts, plus the hot-call counts."""
    classifier = classifier or Classifier()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    hot = dict.fromkeys(HOT_CALLS, 0)
    hot_re = {k: re.compile(v) for k, v in HOT_CALLS.items()}
    for seconds, n, name in rows:
        layer = classifier.classify(name)
        self_s[layer] += seconds
        calls[layer] += n
        for key, rx in hot_re.items():
            if rx.search(name):
                hot[key] += n
    return self_s, calls, hot
