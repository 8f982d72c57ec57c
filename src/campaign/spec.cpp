#include "campaign/spec.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "campaign/grid.h"
#include "harness/report.h"
#include "sim/fault/fault_plan.h"

namespace dcpim::campaign {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// ---- token parsers (throw std::invalid_argument; the spec parser wraps
// ---- the message into a one-line file:line CampaignError) ------------------

long long parse_int_token(const std::string& t) {
  char* end = nullptr;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (t.empty() || end != t.c_str() + t.size()) {
    throw std::invalid_argument("'" + t + "' is not an integer");
  }
  return v;
}

std::uint64_t parse_u64_token(const std::string& t) {
  if (t.empty() || t[0] == '-') {
    throw std::invalid_argument("'" + t + "' is not a non-negative integer");
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size()) {
    throw std::invalid_argument("'" + t + "' is not a non-negative integer");
  }
  return v;
}

double parse_double_token(const std::string& t) {
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (t.empty() || end != t.c_str() + t.size()) {
    throw std::invalid_argument("'" + t + "' is not a number");
  }
  return v;
}

bool parse_bool_token(const std::string& t) {
  if (t == "true") return true;
  if (t == "false") return false;
  throw std::invalid_argument("'" + t + "' is not `true` or `false`");
}

Time parse_time_token(const std::string& t) {
  return sim::fault::parse_time_literal(t);  // throws with its own message
}

harness::Protocol parse_protocol_token(const std::string& t) {
  using harness::Protocol;
  if (t == "dcpim") return Protocol::Dcpim;
  if (t == "phost") return Protocol::Phost;
  if (t == "homa") return Protocol::Homa;
  if (t == "homa_aeolus") return Protocol::HomaAeolus;
  if (t == "ndp") return Protocol::Ndp;
  if (t == "hpcc") return Protocol::Hpcc;
  if (t == "dctcp") return Protocol::Dctcp;
  if (t == "tcp") return Protocol::Tcp;
  if (t == "fastpass") return Protocol::Fastpass;
  throw std::invalid_argument(
      "unknown protocol '" + t +
      "' (dcpim|phost|homa|homa_aeolus|ndp|hpcc|dctcp|tcp|fastpass)");
}

/// `auto` clears lb_policy (the protocol's canonical policy); any other
/// token names an explicit policy. Applied via the lb_policy registry row.
void apply_lb_policy_token(harness::ExperimentConfig& c,
                           const std::string& t) {
  using net::LbPolicy;
  if (t == "auto") {
    c.lb_policy.reset();
  } else if (t == "spray") {
    c.lb_policy = LbPolicy::kSpray;
  } else if (t == "ecmp_flow") {
    c.lb_policy = LbPolicy::kEcmpFlow;
  } else if (t == "flowlet") {
    c.lb_policy = LbPolicy::kFlowlet;
  } else if (t == "ecmp_weighted") {
    c.lb_policy = LbPolicy::kEcmpWeighted;
  } else {
    throw std::invalid_argument(
        "unknown lb_policy '" + t +
        "' (auto|spray|ecmp_flow|flowlet|ecmp_weighted)");
  }
}

harness::TopoKind parse_topo_token(const std::string& t) {
  using harness::TopoKind;
  if (t == "leaf_spine") return TopoKind::LeafSpine;
  if (t == "oversubscribed") return TopoKind::Oversubscribed;
  if (t == "fat_tree") return TopoKind::FatTree;
  if (t == "testbed") return TopoKind::Testbed;
  throw std::invalid_argument(
      "unknown topology '" + t +
      "' (leaf_spine|oversubscribed|fat_tree|testbed)");
}

harness::Pattern parse_pattern_token(const std::string& t) {
  using harness::Pattern;
  if (t == "all_to_all") return Pattern::AllToAll;
  if (t == "bursty") return Pattern::Bursty;
  if (t == "dense_tm") return Pattern::DenseTM;
  if (t == "incast") return Pattern::Incast;
  throw std::invalid_argument("unknown pattern '" + t +
                              "' (all_to_all|bursty|dense_tm|incast)");
}

void check_workload_token(const std::string& t) {
  if (t != "imc10" && t != "websearch" && t != "datamining") {
    throw std::invalid_argument("unknown workload '" + t +
                                "' (imc10|websearch|datamining)");
  }
}

void check_fault_plan_token(const std::string& t) {
  sim::fault::parse_fault_spec(t);  // throws with a position-annotated item
}

void check_unit_interval(double v, const std::string& t) {
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument("'" + t + "' is outside [0, 1]");
  }
}

// ---- the key registry ------------------------------------------------------
//
// One row per base key: canonical name, home section, validator+setter.
// Table order IS the canonical emission order of to_spec(). `name` and
// `scaled` are spec fields, not ExperimentConfig fields — their apply is
// null and the parser routes them specially.

using Config = harness::ExperimentConfig;

struct KeyInfo {
  const char* name;
  const char* section;
  bool sweepable;
  void (*apply)(Config&, const std::string&);
};

const KeyInfo kRegistry[] = {
    {"name", "campaign", false, nullptr},

    {"topo", "topology", true,
     [](Config& c, const std::string& t) { c.topo = parse_topo_token(t); }},
    {"racks", "topology", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("racks must be >= 1");
       c.racks = static_cast<int>(v);
     }},
    {"hosts_per_rack", "topology", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("hosts_per_rack must be >= 1");
       c.hosts_per_rack = static_cast<int>(v);
     }},
    {"spines", "topology", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("spines must be >= 1");
       c.spines = static_cast<int>(v);
     }},
    {"fat_tree_k", "topology", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 2) throw std::invalid_argument("fat_tree_k must be >= 2");
       c.fat_tree_k = static_cast<int>(v);
     }},
    {"lb_policy", "topology", true, apply_lb_policy_token},
    {"flowlet_gap", "topology", true,
     [](Config& c, const std::string& t) {
       const Time v = parse_time_token(t);
       if (v <= Time{}) {
         throw std::invalid_argument("flowlet_gap must be > 0");
       }
       c.flowlet_gap = v;
     }},

    {"scaled", "timing", false, nullptr},
    {"gen_stop", "timing", true,
     [](Config& c, const std::string& t) {
       c.gen_stop = TimePoint(parse_time_token(t));
     }},
    {"horizon", "timing", true,
     [](Config& c, const std::string& t) {
       c.horizon = TimePoint(parse_time_token(t));
     }},
    {"measure_start", "timing", true,
     [](Config& c, const std::string& t) {
       c.measure_start = TimePoint(parse_time_token(t));
     }},
    {"measure_end", "timing", true,
     [](Config& c, const std::string& t) {
       c.measure_end = TimePoint(parse_time_token(t));
     }},
    {"util_bin", "timing", true,
     [](Config& c, const std::string& t) {
       c.util_bin = parse_time_token(t);
     }},

    {"pattern", "traffic", true,
     [](Config& c, const std::string& t) {
       c.pattern = parse_pattern_token(t);
     }},
    {"workload", "traffic", true,
     [](Config& c, const std::string& t) {
       check_workload_token(t);
       c.workload = t;
     }},
    {"load", "traffic", true,
     [](Config& c, const std::string& t) {
       const double v = parse_double_token(t);
       if (v <= 0.0 || v > 1.0) {
         throw std::invalid_argument("load must be in (0, 1]");
       }
       c.load = v;
     }},
    {"fixed_size", "traffic", true,
     [](Config& c, const std::string& t) {
       // -1 is the BDP+1 worst-case sentinel (harness/experiment.h).
       c.fixed_size = Bytes{parse_int_token(t)};
     }},
    {"seed", "traffic", true,
     [](Config& c, const std::string& t) { c.seed = parse_u64_token(t); }},
    {"incast_fanin", "traffic", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("incast_fanin must be >= 1");
       c.incast_fanin = static_cast<int>(v);
     }},
    {"incast_size", "traffic", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("incast_size must be >= 1");
       c.incast_size = Bytes{v};
     }},
    {"incast_interval", "traffic", true,
     [](Config& c, const std::string& t) {
       c.incast_interval = parse_time_token(t);
     }},
    {"incast_bursts", "traffic", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 0) throw std::invalid_argument("incast_bursts must be >= 0");
       c.incast_bursts = static_cast<int>(v);
     }},
    {"dense_flow_size", "traffic", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("dense_flow_size must be >= 1");
       c.dense_flow_size = Bytes{v};
     }},
    {"loss_rate", "traffic", true,
     [](Config& c, const std::string& t) {
       const double v = parse_double_token(t);
       check_unit_interval(v, t);
       c.loss_rate = v;
     }},

    {"protocol", "protocol", true,
     [](Config& c, const std::string& t) {
       c.protocol = parse_protocol_token(t);
     }},
    {"dcpim.rounds", "protocol", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("dcpim.rounds must be >= 1");
       c.dcpim.rounds = static_cast<int>(v);
     }},
    {"dcpim.channels", "protocol", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) throw std::invalid_argument("dcpim.channels must be >= 1");
       c.dcpim.channels = static_cast<int>(v);
     }},
    {"dcpim.beta", "protocol", true,
     [](Config& c, const std::string& t) {
       const double v = parse_double_token(t);
       if (v < 1.0) throw std::invalid_argument("dcpim.beta must be >= 1");
       c.dcpim.beta = v;
     }},
    {"dcpim.fct_optimizing_first_round", "protocol", true,
     [](Config& c, const std::string& t) {
       c.dcpim.fct_optimizing_first_round = parse_bool_token(t);
     }},
    {"dcpim.flow_size_aware", "protocol", true,
     [](Config& c, const std::string& t) {
       c.dcpim.flow_size_aware = parse_bool_token(t);
     }},
    {"dcpim.pipeline_phases", "protocol", true,
     [](Config& c, const std::string& t) {
       c.dcpim.pipeline_phases = parse_bool_token(t);
     }},
    {"dcpim.clock_jitter", "protocol", true,
     [](Config& c, const std::string& t) {
       c.dcpim.clock_jitter = parse_time_token(t);
     }},
    {"dcpim.long_flow_priorities", "protocol", true,
     [](Config& c, const std::string& t) {
       const long long v = parse_int_token(t);
       if (v < 1) {
         throw std::invalid_argument(
             "dcpim.long_flow_priorities must be >= 1");
       }
       c.dcpim.long_flow_priorities = static_cast<int>(v);
     }},

    {"plan", "faults", true,
     [](Config& c, const std::string& t) {
       check_fault_plan_token(t);
       c.faults = t;
     }},
    {"fault_seed", "faults", true,
     [](Config& c, const std::string& t) {
       c.fault_seed = parse_u64_token(t);
     }},

    {"audit", "harness", true,
     [](Config& c, const std::string& t) {
       c.audit = parse_bool_token(t);
     }},
};

const KeyInfo* find_key(const std::string& name) {
  for (const KeyInfo& k : kRegistry) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

/// Sections in canonical emission order; [sweep] and [constraints] follow.
const char* const kSections[] = {"campaign", "topology", "timing",
                                 "traffic",  "protocol", "faults",
                                 "harness"};

bool known_section(const std::string& s) {
  for (const char* name : kSections) {
    if (s == name) return true;
  }
  return s == "sweep" || s == "constraints" || s == "report";
}

bool valid_identifier(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Validates one value token for `info` by applying it to a scratch config.
/// Throws std::invalid_argument with a single-line message.
void validate_token(const KeyInfo& info, const std::string& token) {
  if (info.apply == nullptr) return;  // spec fields are validated in place
  Config scratch;
  info.apply(scratch, token);
}

void need(bool ok, const std::string& message) {
  if (!ok) throw std::invalid_argument(message);
}

/// Splits a `table =` value into its metric tokens and keyword fields;
/// what they name is checked once the axes are known (check_table).
ReportTable parse_table(const std::string& value, int line) {
  ReportTable t;
  t.line = line;
  const auto by = value.find(" by ");
  need(by != std::string::npos, "expected `<metrics> by <axis|cell> ...`");
  std::istringstream metrics(value.substr(0, by));
  std::string token;
  while (std::getline(metrics, token, ',')) {
    t.metrics.push_back(trim(token));
    need(!t.metrics.back().empty(), "empty metric in table");
  }
  std::istringstream words(value.substr(by + 4));
  need(static_cast<bool>(words >> t.rows), "`by` needs an axis or `cell`");
  std::string word;
  while (words >> word) {
    std::string* field = word == "x"           ? &t.columns
                         : word == "per"       ? &t.per
                         : word == "normalize" ? &t.normalize
                         : word == "knee"      ? &t.knee
                         : word == "steady"    ? &t.steady
                                               : nullptr;
    need(field != nullptr, "unknown table keyword '" + word + "'");
    need(field->empty(), "duplicate `" + word + "`");
    need(static_cast<bool>(words >> *field), "`" + word + "` needs a value");
  }
  return t;
}

/// Checks a [report] table against the metric table and the axes.
void check_table(const CampaignSpec& spec, const ReportTable& t) {
  bool scalars = true;
  bool util = false;
  for (const std::string& token : t.metrics) {
    const auto [name, digits] = split_metric(token);
    need(digits >= -1, "'" + token + "': decimals must be 0-9");
    need(name != "buckets" || t.metrics.size() == 1,
         "`buckets` must be the only metric of its table");
    const bool special = name == "buckets" || name == "util_series";
    util = util || name == "util_series";
    scalars = scalars && !special;
    need(special || harness::find_metric(name) != nullptr,
         "unknown metric '" + name +
             "' (a CSV result column, buckets or util_series)");
  }
  std::vector<std::string> named;
  for (const std::string* key : {&t.rows, &t.columns, &t.per}) {
    if (key->empty() || *key == "cell") continue;
    need(find_axis(spec, *key) != nullptr,
         "axis '" + *key + "' is not in [sweep]");
    named.push_back(*key);
  }
  if (t.rows == "cell") {
    need(named.empty(), "`by cell` takes no `x` or `per`");
  } else {
    for (const Axis& axis : spec.axes) {
      need(std::count(named.begin(), named.end(), axis.key) > 0,
           "table leaves sweep axis '" + axis.key +
               "' out (name it in by, x or per)");
    }
    need(named.size() == spec.axes.size(), "table names an axis twice");
  }
  if (t.columns.empty()) {
    need(t.normalize.empty() && t.knee.empty(),
         "`normalize` and `knee` need a column axis (`x`)");
  } else {
    need(t.metrics.size() == 1 && scalars,
         "`x` takes exactly one scalar metric");
    const std::vector<std::string>& values = find_axis(spec, t.columns)->values;
    need(t.normalize.empty() || std::count(values.begin(), values.end(),
                                           t.normalize) > 0,
         "normalize value '" + t.normalize + "' is not on axis '" +
             t.columns + "'");
  }
  if (!t.knee.empty()) (void)parse_double_token(t.knee);
  need(t.steady.empty() || util, "`steady` needs util_series");
  need(t.steady.empty() || parse_int_token(t.steady) >= 0,
       "steady must be >= 0");
}

}  // namespace

const Axis* find_axis(const CampaignSpec& spec, const std::string& key) {
  for (const Axis& axis : spec.axes) {
    if (axis.key == key) return &axis;
  }
  return nullptr;
}

std::string table_text(const ReportTable& table) {
  std::string out;
  for (const std::string& metric : table.metrics) {
    if (!out.empty()) out += ", ";
    out += metric;
  }
  out += " by " + table.rows;
  const auto option = [&out](const char* keyword, const std::string& value) {
    if (!value.empty()) out += std::string(" ") + keyword + " " + value;
  };
  option("x", table.columns);
  option("per", table.per);
  option("normalize", table.normalize);
  option("knee", table.knee);
  option("steady", table.steady);
  return out;
}

std::pair<std::string, int> split_metric(const std::string& token) {
  const auto colon = token.find(':');
  if (colon == std::string::npos) return {token, -1};
  const std::string digits = token.substr(colon + 1);
  const bool one_digit = digits.size() == 1 && digits[0] >= '0' &&
                         digits[0] <= '9';
  return {token.substr(0, colon), one_digit ? digits[0] - '0' : -2};
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool is_registered_key(const std::string& key) {
  return find_key(key) != nullptr;
}

void apply_key(harness::ExperimentConfig& config, const std::string& key,
               const std::string& value) {
  const KeyInfo* info = find_key(key);
  if (info == nullptr || info->apply == nullptr) {
    throw std::invalid_argument("unknown experiment key '" + key + "'");
  }
  info->apply(config, value);
}

CampaignSpec parse_campaign_spec(const std::string& text,
                                 const std::string& file) {
  CampaignSpec spec;
  spec.file = file;
  std::istringstream in(text);
  std::string raw;
  std::string section;
  int lineno = 0;
  int campaign_line = 1;  // for the missing-name diagnostic

  const auto fail = [&](int line, const std::string& msg) {
    throw CampaignError(file, line, msg);
  };

  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(lineno, "unterminated [section] header");
      section = trim(line.substr(1, line.size() - 2));
      if (!known_section(section)) {
        fail(lineno, "unknown section [" + section + "]");
      }
      if (section == "campaign") campaign_line = lineno;
      if (section == "report" && spec.report.line == 0) {
        spec.report.line = lineno;
      }
      continue;
    }

    if (section.empty()) {
      fail(lineno, "key before any [section] header");
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(lineno, "expected `key = value`");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(lineno, "empty key before `=`");

    if (section == "sweep") {
      const KeyInfo* info = find_key(key);
      if (info == nullptr) {
        fail(lineno, "unknown sweep axis '" + key + "'");
      }
      if (!info->sweepable) {
        fail(lineno, "key '" + key + "' cannot be swept");
      }
      for (const Axis& axis : spec.axes) {
        if (axis.key == key) {
          fail(lineno, "duplicate axis '" + key + "'");
        }
      }
      Axis axis;
      axis.key = key;
      axis.line = lineno;
      std::size_t pos = 0;
      while (pos <= value.size()) {
        const auto comma = value.find(',', pos);
        const std::string token =
            trim(value.substr(pos, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - pos));
        if (token.empty()) {
          fail(lineno, "empty value in axis '" + key + "'");
        }
        try {
          validate_token(*info, token);
        } catch (const std::invalid_argument& e) {
          fail(lineno, "axis '" + key + "': " + e.what());
        }
        for (const std::string& prev : axis.values) {
          if (prev == token) {
            fail(lineno, "duplicate value '" + token + "' in axis '" + key +
                             "' (cells would collide in the journal)");
          }
        }
        axis.values.push_back(token);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      spec.axes.push_back(std::move(axis));
      continue;
    }

    if (section == "constraints") {
      if (value.empty()) fail(lineno, "empty constraint expression");
      ConstraintDef def;
      def.name = key;
      def.expr = value;
      def.line = lineno;
      if (key == "exclude") {
        spec.excludes.push_back(std::move(def));
      } else {
        if (!valid_identifier(key)) {
          fail(lineno, "invalid predicate name '" + key + "'");
        }
        for (const ConstraintDef& prev : spec.predicates) {
          if (prev.name == key) {
            fail(lineno, "duplicate predicate '" + key + "'");
          }
        }
        spec.predicates.push_back(std::move(def));
      }
      continue;
    }

    if (section == "report") {
      if (key == "table") {
        try {
          spec.report.tables.push_back(parse_table(value, lineno));
        } catch (const std::invalid_argument& e) {
          fail(lineno, e.what());
        }
      } else if (key == "title" || key == "paper") {
        std::string& field =
            key == "title" ? spec.report.title : spec.report.paper;
        if (!field.empty()) fail(lineno, "duplicate key '" + key + "'");
        if (value.empty()) fail(lineno, "empty " + key);
        field = value;
      } else {
        fail(lineno, "unknown [report] key '" + key +
                         "' (title, paper, table)");
      }
      continue;
    }

    // Base sections: [campaign] fields or registry keys.
    const KeyInfo* info = find_key(key);
    if (info == nullptr) {
      fail(lineno, "unknown key '" + key +
                       "' (key registry: DESIGN.md §14 / campaign/spec.cpp)");
    }
    if (section != info->section) {
      fail(lineno, "key '" + key + "' belongs in [" +
                       std::string(info->section) + "], not [" + section +
                       "]");
    }
    if (key == "name") {
      if (!spec.name.empty()) fail(lineno, "duplicate key 'name'");
      if (!valid_identifier(value)) {
        fail(lineno, "campaign name '" + value +
                         "' must be [A-Za-z0-9_.-]+ (it names files)");
      }
      spec.name = value;
      continue;
    }
    if (key == "scaled") {
      try {
        spec.scaled_timing = parse_bool_token(value);
      } catch (const std::invalid_argument& e) {
        fail(lineno, std::string("key 'scaled': ") + e.what());
      }
      continue;
    }
    if (spec.base.count(key) != 0) {
      fail(lineno, "duplicate key '" + key + "'");
    }
    try {
      validate_token(*info, value);
    } catch (const std::invalid_argument& e) {
      fail(lineno, "key '" + key + "': " + e.what());
    }
    spec.base.emplace(key, value);
  }

  if (spec.name.empty()) {
    fail(campaign_line, "missing required key: [campaign] name");
  }

  // Compile every constraint once so unknown keys, unknown @references and
  // reference cycles surface at parse time with file:line diagnostics.
  validate_constraints(spec);
  const ReportSpec& report = spec.report;
  if (report.line != 0 && report.title.empty()) {
    fail(report.line, "[report] needs a title");
  }
  if (report.line != 0 && report.tables.empty()) {
    fail(report.line, "[report] needs a table");
  }
  for (const ReportTable& table : report.tables) {
    try {
      check_table(spec, table);
    } catch (const std::invalid_argument& e) {
      fail(table.line, e.what());
    }
  }
  return spec;
}

std::string to_spec(const CampaignSpec& spec) {
  std::ostringstream os;
  bool first_section = true;
  const auto open_section = [&](const char* name) {
    if (!first_section) os << "\n";
    first_section = false;
    os << "[" << name << "]\n";
  };

  for (const char* section : kSections) {
    // Does this section have anything to emit?
    bool any = false;
    for (const KeyInfo& k : kRegistry) {
      if (std::string(k.section) != section) continue;
      if (k.apply == nullptr) {
        any = any || (std::string(k.name) == "name" && !spec.name.empty()) ||
              (std::string(k.name) == "scaled" && spec.scaled_timing);
      } else {
        any = any || spec.base.count(k.name) != 0;
      }
    }
    if (!any) continue;
    open_section(section);
    for (const KeyInfo& k : kRegistry) {
      if (std::string(k.section) != section) continue;
      const std::string name(k.name);
      if (name == "name") {
        if (!spec.name.empty()) os << "name = " << spec.name << "\n";
      } else if (name == "scaled") {
        if (spec.scaled_timing) os << "scaled = true\n";
      } else {
        const auto it = spec.base.find(name);
        if (it != spec.base.end()) {
          os << name << " = " << it->second << "\n";
        }
      }
    }
  }

  if (!spec.axes.empty()) {
    open_section("sweep");
    for (const Axis& axis : spec.axes) {
      os << axis.key << " = ";
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        if (i > 0) os << ", ";
        os << axis.values[i];
      }
      os << "\n";
    }
  }

  if (!spec.predicates.empty() || !spec.excludes.empty()) {
    open_section("constraints");
    for (const ConstraintDef& def : spec.predicates) {
      os << def.name << " = " << def.expr << "\n";
    }
    for (const ConstraintDef& def : spec.excludes) {
      os << "exclude = " << def.expr << "\n";
    }
  }

  const ReportSpec& report = spec.report;
  if (!report.title.empty() || !report.tables.empty()) {
    open_section("report");
    if (!report.title.empty()) os << "title = " << report.title << "\n";
    if (!report.paper.empty()) os << "paper = " << report.paper << "\n";
    for (const ReportTable& table : report.tables) {
      os << "table = " << table_text(table) << "\n";
    }
  }
  return os.str();
}

}  // namespace dcpim::campaign
