// Tests for the campaign layer (src/campaign): the golden spec corpus, the
// parse -> expand -> to_spec pipeline, the grid property suite, and the
// journal resume contract.
//
// Golden corpus: every *.campaign file under tests/campaign_specs/
// (compile-time DCPIM_CAMPAIGN_SPEC_DIR) must round-trip BYTE-EXACTLY
// through parse_campaign_spec + to_spec, once its `#` comment lines (and
// the blank lines right after them) are set aside. Every figure
// binary reads these same files, so there is no second copy to drift.
//
// Property suite: 200 seeded random specs are checked against a brute-force
// odometer oracle — expansion count equals the axis-size product minus the
// constraint-excluded combinations, in exactly last-axis-fastest order —
// plus canonical-form idempotence and fingerprint uniqueness.
//
// Resume contract: run_campaign with a journal, interrupted via max_cells
// (the same simulated kill the CI smoke lane uses, plus a literal torn
// journal tail), must produce bit-identical outcomes and merged CSV to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "harness/report.h"

namespace dcpim {
namespace {

using campaign::CampaignError;
using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::CampaignSpec;
using campaign::Cell;

#ifndef DCPIM_CAMPAIGN_SPEC_DIR
#error "build must define DCPIM_CAMPAIGN_SPEC_DIR"
#endif

std::string spec_dir() { return DCPIM_CAMPAIGN_SPEC_DIR; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every committed spec, sorted by file name.
std::vector<std::filesystem::path> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(spec_dir())) {
    if (entry.path().extension() == ".campaign") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// `text` without its `#` comment lines and the blank lines that follow
/// them: what to_spec() would emit for a canonically ordered spec.
std::string strip_comments(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  bool after_comment = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') {
      after_comment = true;
    } else if (line.empty() && after_comment) {
      // The blank line that closes a comment block.
    } else {
      after_comment = false;
      out += line + "\n";
    }
  }
  return out;
}

// ---- golden corpus ---------------------------------------------------------

TEST(CampaignGolden, CorpusRoundTripsByteExactly) {
  const std::vector<std::filesystem::path> paths = corpus();
  ASSERT_FALSE(paths.empty()) << "no specs under " << spec_dir();
  for (const std::filesystem::path& file : paths) {
    const std::string path = file.string();
    const std::string name = file.filename().string();
    const std::string raw = read_file(path);
    const std::string text = strip_comments(raw);
    ASSERT_FALSE(text.empty()) << path;
    const CampaignSpec spec = campaign::parse_campaign_spec(raw, path);
    EXPECT_EQ(campaign::to_spec(spec), text)
        << name << " is not in canonical form";
    // Idempotence: canonical text parses back to the same canonical text.
    const CampaignSpec again =
        campaign::parse_campaign_spec(campaign::to_spec(spec), path);
    EXPECT_EQ(campaign::to_spec(again), text);
  }
}

/// A figure spec and the grid its hand-built C++ scenario used to run.
struct LegacyGrid {
  const char* spec;
  std::size_t cells;
  std::vector<std::pair<std::size_t, std::string>> labels;  ///< index, label
  Time gen_stop, horizon, measure_start, measure_end;  ///< at scale 1
  /// The fields the hand-built C++ set, checked on every cell.
  void (*fields)(const harness::ExperimentConfig&);
};

TEST(CampaignGolden, FigureSpecsExpandToLegacyGrids) {
  using harness::Protocol;
  using harness::ExperimentConfig;
  const LegacyGrid grids[] = {
      // Protocol axis outer, load axis fastest — the legacy loop nesting.
      {"fig3a", 28,
       {{0, "protocol=dcpim load=0.5"},
        {6, "protocol=dcpim load=0.92"},
        {7, "protocol=homa_aeolus load=0.5"},
        {27, "protocol=hpcc load=0.92"}},
       ms(2.5), ms(2.5), ms(1.25), ms(2.5),
       [](const ExperimentConfig& c) { EXPECT_EQ(c.workload, "imc10"); }},
      {"fig4a", 4,
       {{0, "protocol=dcpim"}, {3, "protocol=hpcc"}},
       ms(1), ms(1), Time{}, ms(1),
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.pattern, harness::Pattern::Bursty);
         EXPECT_EQ(c.dense_flow_size, kMB * 4);
         EXPECT_EQ(c.incast_fanin, 50);
         EXPECT_EQ(c.incast_size, kKB * 128);
         EXPECT_EQ(c.incast_interval, us(100));
         EXPECT_EQ(c.incast_bursts, 6);
         EXPECT_EQ(c.util_bin, us(50));
       }},
      {"fig5ab", 12,
       {{0, "protocol=dcpim workload=imc10"},
        {5, "protocol=homa_aeolus workload=datamining"},
        {11, "protocol=hpcc workload=datamining"}},
       ms(1.2), ms(3), us(300), ms(1.2),
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.topo, harness::TopoKind::Oversubscribed);
         EXPECT_DOUBLE_EQ(c.load, 0.5);
       }},
      {"related_fastpass", 3,
       {{0, "protocol=dcpim"}, {1, "protocol=fastpass"}, {2, "protocol=phost"}},
       us(400), ms(10), Time{}, us(400),
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.racks, 4);
         EXPECT_EQ(c.hosts_per_rack, 8);
         EXPECT_EQ(c.spines, 2);
         EXPECT_EQ(c.seed, 11u);
         EXPECT_EQ(c.workload, "imc10");
         EXPECT_DOUBLE_EQ(c.load, 0.5);
       }},
      {"fig5cd", 12,
       {{0, "protocol=dcpim workload=imc10"},
        {11, "protocol=hpcc workload=datamining"}},
       us(700), ms(2), us(200), us(700),
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.topo, harness::TopoKind::FatTree);
         EXPECT_EQ(c.fat_tree_k, 8);
         EXPECT_DOUBLE_EQ(c.load, 0.6);
       }},
      // One knob at a time: 5 + 4 + 4 cells with the default point once.
      {"fig6", 11,
       {{0, "dcpim.rounds=1 dcpim.channels=4 dcpim.beta=1.3"},
        {3, "dcpim.rounds=4 dcpim.channels=1 dcpim.beta=1.3"},
        {5, "dcpim.rounds=4 dcpim.channels=4 dcpim.beta=1.0"},
        {7, "dcpim.rounds=4 dcpim.channels=4 dcpim.beta=1.3"},
        {10, "dcpim.rounds=5 dcpim.channels=4 dcpim.beta=1.3"}},
       ms(2), ms(2), ms(1), ms(2),
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.protocol, Protocol::Dcpim);
         EXPECT_EQ(c.workload, "imc10");
         EXPECT_DOUBLE_EQ(c.load, 0.54);
         const int at_default = (c.dcpim.rounds == 4) +
                                (c.dcpim.channels == 4) +
                                (c.dcpim.beta == 1.3);
         EXPECT_GE(at_default, 2);
       }},
      {"fig6_ablations", 3,
       {{0, "dcpim.fct_optimizing_first_round=false "
            "dcpim.pipeline_phases=true dcpim.clock_jitter=0ns"},
        {1, "dcpim.fct_optimizing_first_round=true "
            "dcpim.pipeline_phases=false dcpim.clock_jitter=0ns"},
        {2, "dcpim.fct_optimizing_first_round=true "
            "dcpim.pipeline_phases=true dcpim.clock_jitter=500ns"}},
       ms(2), ms(2), ms(1), ms(2),
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.protocol, Protocol::Dcpim);
         EXPECT_EQ(c.workload, "imc10");
         EXPECT_DOUBLE_EQ(c.load, 0.54);
         const int off = !c.dcpim.fct_optimizing_first_round +
                         !c.dcpim.pipeline_phases +
                         (c.dcpim.clock_jitter == ns(500));
         EXPECT_EQ(off, 1);
       }},
  };
  for (const LegacyGrid& grid : grids) {
    SCOPED_TRACE(grid.spec);
    const std::string file = std::string(grid.spec) + ".campaign";
    const CampaignSpec spec = campaign::parse_campaign_spec(
        read_file(spec_dir() + "/" + file), file);
    EXPECT_EQ(spec.name, grid.spec);
    const std::vector<Cell> cells = campaign::expand(spec);
    ASSERT_EQ(cells.size(), grid.cells);
    for (const auto& [index, label] : grid.labels) {
      EXPECT_EQ(cells[index].label, label) << "cell " << index;
    }
    for (const Cell& cell : cells) {
      const ExperimentConfig& cfg = cell.config;
      EXPECT_EQ(cfg.gen_stop.since_start(), grid.gen_stop);
      EXPECT_EQ(cfg.horizon.since_start(), grid.horizon);
      EXPECT_EQ(cfg.measure_start.since_start(), grid.measure_start);
      EXPECT_EQ(cfg.measure_end.since_start(), grid.measure_end);
      grid.fields(cfg);
    }
  }
}

TEST(CampaignGolden, LbPolicyAutoIsUnsetAndExplicitPolicyIsKept) {
  const auto spec_with = [](const std::string& policy) {
    return "[campaign]\nname = x\n\n[topology]\nlb_policy = " + policy +
           "\n";
  };
  // `auto` leaves the config on its protocol's canonical policy, and resets
  // a policy applied before it (axis values are applied after the base).
  const CampaignSpec auto_spec =
      campaign::parse_campaign_spec(spec_with("auto"));
  EXPECT_EQ(campaign::to_spec(auto_spec), spec_with("auto"));
  const std::vector<Cell> auto_cells = campaign::expand(auto_spec);
  ASSERT_EQ(auto_cells.size(), 1u);
  EXPECT_FALSE(auto_cells[0].config.lb_policy.has_value());
  harness::ExperimentConfig cfg;
  campaign::apply_key(cfg, "lb_policy", "spray");
  campaign::apply_key(cfg, "lb_policy", "auto");
  EXPECT_FALSE(cfg.lb_policy.has_value());

  const CampaignSpec ecmp_spec =
      campaign::parse_campaign_spec(spec_with("ecmp_flow"));
  EXPECT_EQ(campaign::to_spec(ecmp_spec), spec_with("ecmp_flow"));
  const std::vector<Cell> ecmp_cells = campaign::expand(ecmp_spec);
  ASSERT_EQ(ecmp_cells.size(), 1u);
  EXPECT_EQ(ecmp_cells[0].config.lb_policy, net::LbPolicy::kEcmpFlow);
}

TEST(CampaignGolden, ConstrainedSpecDropsExcludedCells) {
  const CampaignSpec spec = campaign::parse_campaign_spec(
      read_file(spec_dir() + "/constrained.campaign"), "constrained.campaign");
  const std::vector<Cell> cells = campaign::expand(spec);
  std::vector<std::string> labels;
  for (const Cell& cell : cells) labels.push_back(cell.label);
  // 3x3 grid minus hpcc@{0.7,0.9} minus ndp@0.9.
  EXPECT_EQ(labels, (std::vector<std::string>{
                        "protocol=dcpim load=0.5", "protocol=dcpim load=0.7",
                        "protocol=dcpim load=0.9", "protocol=ndp load=0.5",
                        "protocol=ndp load=0.7", "protocol=hpcc load=0.5"}));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

// ---- diagnostics -----------------------------------------------------------

/// Asserts `text` fails to parse with a one-line `file:line:` diagnostic.
void expect_error(const std::string& text, int line,
                  const std::string& fragment) {
  try {
    campaign::parse_campaign_spec(text, "bad.campaign");
    FAIL() << "expected CampaignError containing '" << fragment << "'";
  } catch (const CampaignError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    const std::string prefix = "bad.campaign:" + std::to_string(line) + ": ";
    EXPECT_EQ(what.rfind(prefix, 0), 0u)
        << "diagnostic '" << what << "' does not start with '" << prefix
        << "'";
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "diagnostic '" << what << "' lacks '" << fragment << "'";
  }
}

TEST(CampaignDiagnostics, UnknownKey) {
  expect_error("[campaign]\nname = x\n\n[traffic]\nloda = 0.5\n", 5,
               "unknown key");
  // No shuffle_load knob: the bursty pattern's shuffle is a dense TM of
  // dense_flow_size flows.
  expect_error("[campaign]\nname = x\n\n[traffic]\nshuffle_load = 0.5\n", 5,
               "unknown key");
  // No token-pacing knob: the headroom is a constant of the dcPIM host.
  expect_error(
      "[campaign]\nname = x\n\n[protocol]\n"
      "dcpim.token_pacing_headroom = 0.04\n",
      5, "unknown key");
}

TEST(CampaignDiagnostics, KeyInWrongSection) {
  expect_error("[campaign]\nname = x\n\n[topology]\nload = 0.5\n", 5,
               "belongs in [traffic]");
}

TEST(CampaignDiagnostics, DuplicateBaseKey) {
  expect_error("[campaign]\nname = x\n\n[traffic]\nload = 0.5\nload = 0.6\n",
               6, "duplicate");
}

TEST(CampaignDiagnostics, DuplicateAxis) {
  expect_error(
      "[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.6\nload = 0.7\n", 6,
      "duplicate");
}

TEST(CampaignDiagnostics, DuplicateAxisValue) {
  expect_error("[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.5\n", 5,
               "duplicate");
}

TEST(CampaignDiagnostics, BadValueToken) {
  expect_error("[campaign]\nname = x\n\n[traffic]\nload = fast\n", 5, "load");
}

TEST(CampaignDiagnostics, BadTimeLiteral) {
  expect_error("[campaign]\nname = x\n\n[timing]\ngen_stop = 12parsecs\n", 5,
               "gen_stop");
}

TEST(CampaignDiagnostics, BadFaultPlan) {
  // `verb:args@start:dur` with an unknown verb must die at parse time with
  // the fault-plan grammar error, not at experiment time.
  expect_error("[campaign]\nname = x\n\n[faults]\nplan = melt:7@1us:2us\n", 5,
               "plan");
}

TEST(CampaignDiagnostics, UnknownSection) {
  expect_error("[campaign]\nname = x\n\n[cheese]\nkind = brie\n", 4,
               "unknown section");
}

TEST(CampaignDiagnostics, MissingName) {
  expect_error("[traffic]\nload = 0.5\n", 1, "name");
}

TEST(CampaignDiagnostics, UnsweepableKey) {
  expect_error("[campaign]\nname = x\n\n[sweep]\nname = a, b\n", 5,
               "cannot be swept");
}

TEST(CampaignDiagnostics, ConstraintUnknownKey) {
  expect_error(
      "[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.6\n\n[constraints]\n"
      "exclude = loda=0.5\n",
      8, "unknown key");
}

TEST(CampaignDiagnostics, ConstraintKeyNotSetOrSwept) {
  expect_error(
      "[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.6\n\n[constraints]\n"
      "exclude = protocol=ndp\n",
      8, "neither set nor swept");
}

TEST(CampaignDiagnostics, ConstraintUnknownReference) {
  expect_error(
      "[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.6\n\n[constraints]\n"
      "exclude = @heavy\n",
      8, "unknown predicate");
}

TEST(CampaignDiagnostics, CyclicConstraint) {
  expect_error(
      "[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.6\n\n[constraints]\n"
      "a = @b | load=0.5\nb = @a\n",
      8, "cyclic");
}

TEST(CampaignDiagnostics, ConstraintSyntaxError) {
  expect_error(
      "[campaign]\nname = x\n\n[sweep]\nload = 0.5, 0.6\n\n[constraints]\n"
      "exclude = (load=0.5\n",
      8, "')'");
}

TEST(CampaignDiagnostics, OverrideBadFaultPlan) {
  CampaignSpec spec = campaign::parse_campaign_spec("[campaign]\nname = x\n");
  EXPECT_THROW(campaign::apply_overrides(spec, false, "melt:7@1us:2us", 1),
               CampaignError);
}

// ---- property suite --------------------------------------------------------

struct RandomAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One random exclude: a conjunction of (axis, value) atoms, optionally
/// routed through a named predicate. The oracle evaluates the atom list
/// directly; the spec renders it through the expression grammar.
struct RandomExclude {
  std::vector<std::pair<std::string, std::string>> atoms;
  bool via_predicate = false;
};

struct RandomCampaign {
  std::string text;
  std::vector<RandomAxis> axes;
  std::vector<RandomExclude> excludes;
};

RandomCampaign make_random_campaign(std::mt19937_64& rng) {
  const std::vector<RandomAxis> pool = {
      {"protocol", {"dcpim", "ndp", "hpcc", "phost", "dctcp"}},
      {"load", {"0.3", "0.5", "0.7", "0.9"}},
      {"seed", {"1", "2", "3"}},
      {"incast_fanin", {"2", "4", "8"}},
      {"workload", {"imc10", "websearch", "datamining"}},
  };
  const auto rand_int = [&](int lo, int hi) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)) +
           lo;
  };

  RandomCampaign out;
  const int n_axes = rand_int(1, 3);
  std::vector<int> chosen;
  while (static_cast<int>(chosen.size()) < n_axes) {
    const int pick = rand_int(0, static_cast<int>(pool.size()) - 1);
    bool seen = false;
    for (int c : chosen) seen = seen || c == pick;
    if (!seen) chosen.push_back(pick);
  }
  for (int c : chosen) {
    RandomAxis axis = pool[c];
    // Random nonempty prefix-ish subset: drop each value with p=1/3, keep
    // at least two so the axis is a real axis.
    RandomAxis kept{axis.key, {}};
    for (const std::string& v : axis.values) {
      if (rand_int(0, 2) != 0) kept.values.push_back(v);
    }
    while (kept.values.size() < 2) {
      kept.values = axis.values;
    }
    out.axes.push_back(kept);
  }

  const int n_excludes = rand_int(0, 2);
  for (int e = 0; e < n_excludes; ++e) {
    RandomExclude ex;
    const int n_atoms = rand_int(1, 2);
    for (int a = 0; a < n_atoms; ++a) {
      const RandomAxis& axis =
          out.axes[rand_int(0, static_cast<int>(out.axes.size()) - 1)];
      ex.atoms.emplace_back(
          axis.key,
          axis.values[rand_int(0, static_cast<int>(axis.values.size()) - 1)]);
    }
    ex.via_predicate = rand_int(0, 1) == 1;
    out.excludes.push_back(ex);
  }

  std::ostringstream os;
  os << "[campaign]\nname = prop\n\n[topology]\nracks = 2\n"
        "hosts_per_rack = 4\nspines = 2\n\n[timing]\ngen_stop = 100us\n"
        "horizon = 2ms\nmeasure_start = 20us\nmeasure_end = 100us\n\n"
        "[sweep]\n";
  for (const RandomAxis& axis : out.axes) {
    os << axis.key << " = ";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) os << ", ";
      os << axis.values[i];
    }
    os << "\n";
  }
  if (!out.excludes.empty()) {
    os << "\n[constraints]\n";
    int pred = 0;
    for (const RandomExclude& ex : out.excludes) {
      std::string expr;
      for (std::size_t a = 0; a < ex.atoms.size(); ++a) {
        if (a > 0) expr += " & ";
        expr += ex.atoms[a].first + "=" + ex.atoms[a].second;
      }
      if (ex.via_predicate) {
        const std::string name = "p" + std::to_string(pred++);
        os << name << " = " << expr << "\n";
        os << "exclude = @" << name << "\n";
      } else {
        os << "exclude = " << expr << "\n";
      }
    }
  }
  out.text = os.str();
  return out;
}

TEST(CampaignProperty, TwoHundredRandomSpecsMatchTheOracle) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    std::mt19937_64 rng(trial);
    const RandomCampaign rc = make_random_campaign(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + "\n" + rc.text);

    const CampaignSpec spec =
        campaign::parse_campaign_spec(rc.text, "prop.campaign");
    const std::vector<Cell> cells = campaign::expand(spec);

    // Brute-force oracle: walk the full product, last axis fastest, and
    // evaluate the exclude conjunctions directly.
    std::vector<std::string> expected_labels;
    std::vector<std::size_t> odometer(rc.axes.size(), 0);
    while (true) {
      std::map<std::string, std::string> assignment;
      std::string label;
      for (std::size_t a = 0; a < rc.axes.size(); ++a) {
        assignment[rc.axes[a].key] = rc.axes[a].values[odometer[a]];
        if (!label.empty()) label += ' ';
        label += rc.axes[a].key + "=" + rc.axes[a].values[odometer[a]];
      }
      bool excluded = false;
      for (const RandomExclude& ex : rc.excludes) {
        bool all = true;
        for (const auto& [key, value] : ex.atoms) {
          all = all && assignment[key] == value;
        }
        excluded = excluded || all;
      }
      if (!excluded) expected_labels.push_back(label);
      std::size_t a = rc.axes.size();
      bool done = true;
      while (a > 0) {
        --a;
        if (++odometer[a] < rc.axes[a].values.size()) {
          done = false;
          break;
        }
        odometer[a] = 0;
      }
      if (done) break;
    }

    std::vector<std::string> actual_labels;
    for (const Cell& cell : cells) actual_labels.push_back(cell.label);
    EXPECT_EQ(actual_labels, expected_labels);

    // Expansion is deterministic and fingerprints are unique per cell.
    const std::vector<Cell> cells2 = campaign::expand(spec);
    ASSERT_EQ(cells2.size(), cells.size());
    std::map<std::uint64_t, int> seen;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].label, cells2[i].label);
      EXPECT_EQ(cells[i].fingerprint, cells2[i].fingerprint);
      EXPECT_EQ(seen.count(cells[i].fingerprint), 0u)
          << "fingerprint collision at cell " << i;
      seen[cells[i].fingerprint] = 1;
    }

    // Canonical-form idempotence.
    const std::string canon = campaign::to_spec(spec);
    const CampaignSpec again =
        campaign::parse_campaign_spec(canon, "prop.campaign");
    EXPECT_EQ(campaign::to_spec(again), canon);
  }
}

TEST(CampaignProperty, FingerprintInvalidationSemantics) {
  const std::string base_text =
      "[campaign]\nname = fp\n\n[traffic]\nload = 0.5\n\n[sweep]\n"
      "protocol = dcpim, ndp\nseed = 1, 2\n";
  const CampaignSpec spec = campaign::parse_campaign_spec(base_text);
  const std::vector<Cell> cells = campaign::expand(spec);
  ASSERT_EQ(cells.size(), 4u);

  // Renaming the campaign invalidates nothing.
  CampaignSpec renamed = spec;
  renamed.name = "totally_different";
  const std::vector<Cell> renamed_cells = campaign::expand(renamed);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(renamed_cells[i].fingerprint, cells[i].fingerprint);
  }

  // Adding a never-matching constraint invalidates nothing either.
  CampaignSpec constrained = campaign::parse_campaign_spec(
      base_text + "\n[constraints]\nexclude = protocol=dcpim & protocol=ndp\n");
  const std::vector<Cell> constrained_cells = campaign::expand(constrained);
  ASSERT_EQ(constrained_cells.size(), 4u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(constrained_cells[i].fingerprint, cells[i].fingerprint);
  }

  // Editing a base key invalidates every cell.
  CampaignSpec edited = spec;
  edited.base["load"] = "0.6";
  const std::vector<Cell> edited_cells = campaign::expand(edited);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NE(edited_cells[i].fingerprint, cells[i].fingerprint);
  }

  // Editing one axis value invalidates exactly the cells that used it.
  CampaignSpec axis_edited = spec;
  axis_edited.axes[1].values[1] = "3";  // seed 2 -> 3
  const std::vector<Cell> axis_cells = campaign::expand(axis_edited);
  EXPECT_EQ(axis_cells[0].fingerprint, cells[0].fingerprint);  // seed=1
  EXPECT_NE(axis_cells[1].fingerprint, cells[1].fingerprint);  // seed=2->3
  EXPECT_EQ(axis_cells[2].fingerprint, cells[2].fingerprint);
  EXPECT_NE(axis_cells[3].fingerprint, cells[3].fingerprint);
}

// ---- journal + runner ------------------------------------------------------

/// Tiny but real campaign (2 cells) the runner tests execute. Kept minimal:
/// each cell is a full simulation.
std::string tiny_campaign_text() {
  return "[campaign]\nname = tiny\n\n[topology]\nracks = 2\n"
         "hosts_per_rack = 4\nspines = 2\n\n[timing]\ngen_stop = 60us\n"
         "horizon = 2ms\nmeasure_start = 10us\nmeasure_end = 60us\n\n"
         "[traffic]\nload = 0.4\n\n[sweep]\nprotocol = dcpim, ndp\n";
}

std::string temp_path(const std::string& stem) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + stem;
}

TEST(CampaignRunner, JobsOneAndFourAreBitIdentical) {
  const CampaignSpec spec =
      campaign::parse_campaign_spec(tiny_campaign_text());
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 4;
  const CampaignReport a = campaign::run_campaign(spec, serial);
  const CampaignReport b = campaign::run_campaign(spec, parallel);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].result_fnv, b.outcomes[i].result_fnv);
    EXPECT_EQ(a.outcomes[i].csv_row, b.outcomes[i].csv_row);
    EXPECT_EQ(a.outcomes[i].label, b.outcomes[i].label);
  }
}

TEST(CampaignRunner, JournalResumeIsBitIdentical) {
  const CampaignSpec spec =
      campaign::parse_campaign_spec(tiny_campaign_text());
  const std::string journal = temp_path("test_campaign_resume.journal");
  std::remove(journal.c_str());

  // Uninterrupted reference run (no journal).
  const CampaignReport reference = campaign::run_campaign(spec, {});
  ASSERT_TRUE(reference.complete());

  // Simulated kill: one cell, then stop.
  CampaignOptions first;
  first.journal_path = journal;
  first.max_cells = 1;
  const CampaignReport partial = campaign::run_campaign(spec, first);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.executed, 1u);
  EXPECT_EQ(partial.skipped, 1u);
  EXPECT_EQ(campaign::load_journal(journal).size(), 1u);

  // A torn tail (kill mid-append) must be tolerated on reload.
  {
    std::ofstream out(journal, std::ios::app);
    out << "cell 0123456789abcdef 01234";  // no newline, no row
  }

  // Resume: the finished cell comes from the journal, the rest executes.
  CampaignOptions second;
  second.journal_path = journal;
  const CampaignReport resumed = campaign::run_campaign(spec, second);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.cached, 1u);
  EXPECT_EQ(resumed.executed, 1u);
  ASSERT_EQ(resumed.outcomes.size(), reference.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].result_fnv,
              reference.outcomes[i].result_fnv);
    EXPECT_EQ(resumed.outcomes[i].csv_row, reference.outcomes[i].csv_row);
  }

  // Merged CSVs are byte-identical too.
  const std::string dir = temp_path("test_campaign_csv");
  std::remove((dir + "/tiny.csv").c_str());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(campaign::write_merged_csv(dir, reference));
  const std::string ref_csv = read_file(dir + "/tiny.csv");
  ASSERT_TRUE(campaign::write_merged_csv(dir, resumed));
  EXPECT_EQ(read_file(dir + "/tiny.csv"), ref_csv);
  EXPECT_EQ(ref_csv.rfind(harness::csv_header() + "\n", 0), 0u);

  // A third run is fully cached — nothing executes, outcomes unchanged.
  const CampaignReport cached = campaign::run_campaign(spec, second);
  EXPECT_EQ(cached.executed, 0u);
  EXPECT_EQ(cached.cached, 2u);
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(cached.outcomes[i].result_fnv,
              reference.outcomes[i].result_fnv);
  }
  std::remove(journal.c_str());
}

TEST(CampaignRunner, IncompleteReportRefusesToWriteCsv) {
  CampaignReport report;
  report.name = "partial";
  report.skipped = 1;
  EXPECT_FALSE(campaign::write_merged_csv(temp_path(""), report));
}

TEST(CampaignJournal, MalformedLinesAreSkipped) {
  const std::string path = temp_path("test_campaign_journal.txt");
  {
    std::ofstream out(path);
    out << "# dcpim-campaign-journal v1\n";
    out << "cell 00000000000000aa 00000000000000bb row,1\n";
    out << "not a journal line\n";
    out << "cell zzzz bad hex\n";
    out << "cell 00000000000000cc 00000000000000dd\n";  // no row: torn
    out << "cell 00000000000000aa 00000000000000ee row,2\n";  // dup: wins
    out << "cell 0123456789abcdef 0123";  // torn tail
  }
  const auto entries = campaign::load_journal(path);
  ASSERT_EQ(entries.size(), 1u);
  const campaign::JournalEntry& entry = entries.at(0xaa);
  EXPECT_EQ(entry.result_fnv, 0xeeu);
  EXPECT_EQ(entry.csv_row, "row,2");
  std::remove(path.c_str());
}

TEST(CampaignJournal, MissingFileIsEmpty) {
  EXPECT_TRUE(campaign::load_journal(temp_path("nonexistent.journal"))
                  .empty());
}

}  // namespace
}  // namespace dcpim
