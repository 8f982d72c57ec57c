#include "campaign/grid.h"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "util/check.h"
#include "util/env.h"

namespace dcpim::campaign {

namespace {

// ---- constraint predicate expressions --------------------------------------
//
// pred    := or
// or      := and ( '|' and )*
// and     := unary ( '&' unary )*
// unary   := '!' unary | primary
// primary := '(' pred ')' | '@' name | key '=' value
//
// Atom values compare as canonical tokens (string equality against the
// cell's merged key -> token map), which keeps evaluation independent of
// key types. `@name` references another named predicate; cycles are
// detected at compile time.

struct Pred {
  enum class Kind { Atom, Ref, Not, And, Or };
  Kind kind = Kind::Atom;
  std::string key, value;            // Atom
  std::string ref;                   // Ref
  std::vector<Pred> kids;            // Not (1), And/Or (2)
};

class PredParser {
 public:
  explicit PredParser(const std::string& text) : text_(text) {}

  Pred parse() {
    Pred p = parse_or();
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::invalid_argument("unexpected '" +
                                  std::string(1, text_[pos_]) +
                                  "' in constraint expression");
    }
    return p;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static bool token_char(char c) {
    return c != ' ' && c != '\t' && c != '&' && c != '|' && c != '!' &&
           c != '(' && c != ')';
  }

  std::string read_token(const char* what) {
    skip_ws();
    std::string out;
    while (pos_ < text_.size() && token_char(text_[pos_])) {
      out += text_[pos_++];
    }
    if (out.empty()) {
      throw std::invalid_argument(std::string("expected ") + what +
                                  " in constraint expression");
    }
    return out;
  }

  Pred parse_or() {
    Pred left = parse_and();
    while (eat('|')) {
      Pred node;
      node.kind = Pred::Kind::Or;
      node.kids.push_back(std::move(left));
      node.kids.push_back(parse_and());
      left = std::move(node);
    }
    return left;
  }

  Pred parse_and() {
    Pred left = parse_unary();
    while (eat('&')) {
      Pred node;
      node.kind = Pred::Kind::And;
      node.kids.push_back(std::move(left));
      node.kids.push_back(parse_unary());
      left = std::move(node);
    }
    return left;
  }

  Pred parse_unary() {
    if (eat('!')) {
      Pred node;
      node.kind = Pred::Kind::Not;
      node.kids.push_back(parse_unary());
      return node;
    }
    if (eat('(')) {
      Pred inner = parse_or();
      if (!eat(')')) {
        throw std::invalid_argument(
            "missing ')' in constraint expression");
      }
      return inner;
    }
    if (eat('@')) {
      Pred node;
      node.kind = Pred::Kind::Ref;
      node.ref = read_token("predicate name after '@'");
      return node;
    }
    const std::string token = read_token("`key=value` atom");
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      throw std::invalid_argument("atom '" + token +
                                  "' is not `key=value`");
    }
    Pred node;
    node.kind = Pred::Kind::Atom;
    node.key = token.substr(0, eq);
    node.value = token.substr(eq + 1);
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Compiled constraint set: named predicates + excludes, reference-checked.
struct CompiledConstraints {
  std::map<std::string, Pred> named;
  std::vector<Pred> excludes;
};

void collect_refs(const Pred& p, std::vector<std::string>& out) {
  if (p.kind == Pred::Kind::Ref) out.push_back(p.ref);
  for (const Pred& kid : p.kids) collect_refs(kid, out);
}

void collect_atom_keys(const Pred& p, std::vector<std::string>& out) {
  if (p.kind == Pred::Kind::Atom) out.push_back(p.key);
  for (const Pred& kid : p.kids) collect_atom_keys(kid, out);
}

/// DFS cycle check over @references. Returns the cycle path ("a -> b -> a")
/// or empty when acyclic from `name`.
std::string find_cycle(const std::string& name,
                       const CompiledConstraints& cc,
                       std::map<std::string, int>& color,
                       std::vector<std::string>& stack) {
  color[name] = 1;  // in progress
  stack.push_back(name);
  std::vector<std::string> refs;
  collect_refs(cc.named.at(name), refs);
  for (const std::string& ref : refs) {
    if (cc.named.count(ref) == 0) continue;  // unknown refs reported earlier
    if (color[ref] == 1) {
      std::string path;
      bool in_cycle = false;
      for (const std::string& n : stack) {
        if (n == ref) in_cycle = true;
        if (in_cycle) path += n + " -> ";
      }
      return path + ref;
    }
    if (color[ref] == 0) {
      const std::string cycle = find_cycle(ref, cc, color, stack);
      if (!cycle.empty()) return cycle;
    }
  }
  stack.pop_back();
  color[name] = 2;
  return "";
}

CompiledConstraints compile_constraints(const CampaignSpec& spec) {
  CompiledConstraints cc;
  const auto fail = [&](const ConstraintDef& def, const std::string& msg) {
    throw CampaignError(spec.file, def.line,
                        "constraint '" + def.name + "': " + msg);
  };

  // Which keys may appear in atoms: anything the spec sets or sweeps.
  const auto key_known = [&](const std::string& key) {
    if (spec.base.count(key) != 0) return true;
    for (const Axis& axis : spec.axes) {
      if (axis.key == key) return true;
    }
    return false;
  };

  const auto compile_one = [&](const ConstraintDef& def) {
    Pred p;
    try {
      p = PredParser(def.expr).parse();
    } catch (const std::invalid_argument& e) {
      fail(def, e.what());
    }
    std::vector<std::string> keys;
    collect_atom_keys(p, keys);
    for (const std::string& key : keys) {
      if (!is_registered_key(key)) {
        fail(def, "unknown key '" + key + "' in atom");
      }
      if (!key_known(key)) {
        fail(def, "key '" + key + "' is neither set nor swept");
      }
    }
    return p;
  };

  for (const ConstraintDef& def : spec.predicates) {
    cc.named.emplace(def.name, compile_one(def));
  }
  for (const ConstraintDef& def : spec.excludes) {
    cc.excludes.push_back(compile_one(def));
  }

  // Unknown @references (named predicates must exist) ...
  const auto check_refs = [&](const ConstraintDef& def, const Pred& p) {
    std::vector<std::string> refs;
    collect_refs(p, refs);
    for (const std::string& ref : refs) {
      if (cc.named.count(ref) == 0) {
        fail(def, "unknown predicate '@" + ref + "'");
      }
    }
  };
  for (const ConstraintDef& def : spec.predicates) {
    check_refs(def, cc.named.at(def.name));
  }
  for (std::size_t i = 0; i < spec.excludes.size(); ++i) {
    check_refs(spec.excludes[i], cc.excludes[i]);
  }

  // ... and reference cycles get a one-line path diagnostic.
  std::map<std::string, int> color;
  for (const ConstraintDef& def : spec.predicates) {
    if (color[def.name] != 0) continue;
    std::vector<std::string> stack;
    const std::string cycle = find_cycle(def.name, cc, color, stack);
    if (!cycle.empty()) {
      fail(def, "cyclic predicate reference (" + cycle + ")");
    }
  }
  return cc;
}

bool eval_pred(const Pred& p, const CompiledConstraints& cc,
               const std::map<std::string, std::string>& cell) {
  switch (p.kind) {
    case Pred::Kind::Atom: {
      const auto it = cell.find(p.key);
      return it != cell.end() && it->second == p.value;
    }
    case Pred::Kind::Ref:
      return eval_pred(cc.named.at(p.ref), cc, cell);
    case Pred::Kind::Not:
      return !eval_pred(p.kids[0], cc, cell);
    case Pred::Kind::And:
      return eval_pred(p.kids[0], cc, cell) &&
             eval_pred(p.kids[1], cc, cell);
    case Pred::Kind::Or:
      return eval_pred(p.kids[0], cc, cell) ||
             eval_pred(p.kids[1], cc, cell);
  }
  return false;
}

}  // namespace

void validate_constraints(const CampaignSpec& spec) {
  (void)compile_constraints(spec);
}

std::string cell_spec_text(
    const CampaignSpec& spec,
    const std::vector<std::pair<std::string, std::string>>& assignment) {
  // The cell is the base spec with the assignment merged over it; reuse the
  // canonical emitter on a campaign-less, sweep-less, constraint-less copy
  // so the fingerprint text has exactly one possible form.
  CampaignSpec cell;
  cell.scaled_timing = spec.scaled_timing;
  cell.base = spec.base;
  for (const auto& [key, value] : assignment) {
    cell.base[key] = value;
  }
  return to_spec(cell);
}

std::vector<Cell> expand(const CampaignSpec& spec) {
  const CompiledConstraints cc = compile_constraints(spec);
  const double scale = bench_scale();

  std::vector<Cell> cells;
  std::vector<std::size_t> odometer(spec.axes.size(), 0);
  while (true) {
    Cell cell;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      cell.assignment.emplace_back(spec.axes[a].key,
                                   spec.axes[a].values[odometer[a]]);
    }

    // Merged key -> token view of the cell, for constraint evaluation.
    std::map<std::string, std::string> merged = spec.base;
    for (const auto& [key, value] : cell.assignment) merged[key] = value;

    bool excluded = false;
    for (const Pred& ex : cc.excludes) {
      if (eval_pred(ex, cc, merged)) {
        excluded = true;
        break;
      }
    }
    if (!excluded) {
      for (const auto& [key, value] : cell.assignment) {
        if (!cell.label.empty()) cell.label += ' ';
        cell.label += key + "=" + value;
      }
      cell.fingerprint = fnv1a(cell_spec_text(spec, cell.assignment));

      // Base first, axis assignment second: axis values win. Tokens were
      // validated at parse time, so apply_key cannot throw here.
      for (const auto& [key, value] : spec.base) {
        apply_key(cell.config, key, value);
      }
      for (const auto& [key, value] : cell.assignment) {
        apply_key(cell.config, key, value);
      }
      if (spec.scaled_timing) {
        // Horizons stretch with DCPIM_BENCH_SCALE; util_bin and protocol
        // timers stay put.
        auto& c = cell.config;
        c.gen_stop = TimePoint(c.gen_stop.since_start() * scale);
        c.horizon = TimePoint(c.horizon.since_start() * scale);
        c.measure_start = TimePoint(c.measure_start.since_start() * scale);
        c.measure_end = TimePoint(c.measure_end.since_start() * scale);
      }
      cell.index = cells.size();
      cells.push_back(std::move(cell));
    }

    // Advance the odometer, last axis fastest.
    if (spec.axes.empty()) break;
    std::size_t a = spec.axes.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < spec.axes[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return cells;
    }
  }
  return cells;
}

std::string format_cell_line(std::size_t index, const std::string& label,
                             std::uint64_t result_fnv) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "cell %03zu ", index);
  std::string out(buf);
  if (!label.empty()) out += label + " ";
  std::snprintf(buf, sizeof(buf), "result=%016llx",
                static_cast<unsigned long long>(result_fnv));
  return out + buf;
}

}  // namespace dcpim::campaign
