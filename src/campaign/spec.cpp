#include "campaign/spec.h"

#include <cstdlib>
#include <sstream>

#include "campaign/grid.h"
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
  return s == "sweep" || s == "constraints";
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

}  // namespace

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
  return os.str();
}

}  // namespace dcpim::campaign
