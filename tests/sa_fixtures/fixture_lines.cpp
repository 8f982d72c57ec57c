// dcpim-sa fixture: planted per-line rule violations.
//
// Golden expectations (tests/test_dcpim_sa.py):
//   - naked-assert: a C assert (static_assert is clean)
//   - double-sim-time: a time-named double (a rate and a to_* conversion
//     are clean)
//   - static-local: a mutable local static (const/constexpr statics and an
//     sa-ok(static-local)-justified one are clean)
//   - unordered-container: a hashed-container header and member (a comment
//     and a string naming one are clean)
//   - inline-scenario: a hand-built config, network, topology and
//     run_experiment call, and a run_spec of a missing spec (a run_spec of
//     a committed spec is clean)
#include <cassert>
#include <unordered_map>  // planted: hashed-container header

namespace fixture {

void check_positive(int v) {
  assert(v > 0);  // planted: naked assert
  static_assert(sizeof(int) == 4, "int is 32 bits");
}

struct Timer {
  double start_time = 0;  // planted: time-named double
  double bytes_per_sec = 1;
};

double reported(long ps) {
  const double elapsed_us = to_us(ps);
  return elapsed_us;
}

int next_id() {
  static int counter = 0;  // planted: mutable local static
  static constexpr int kStep = 1;
  static const int kBase = 0;
  return kBase + (counter += kStep);
}

int justified_count() {
  // sa-ok(static-local): fixture counter, read by one thread only.
  static int calls = 0;
  return ++calls;
}

// Ordered on purpose: no std::unordered_set here.
const char* kWhy = "not an unordered_set";

struct Table {
  std::unordered_map<int, int> by_id;  // planted: hashed container
};

int scenario() {
  harness::ExperimentConfig cfg;                    // planted
  net::Network network(cfg.net);                    // planted
  auto topo = net::Topology::leaf_spine(network);   // planted
  auto res = harness::run_experiment(cfg);          // planted
  auto missing = bench::run_spec("no_such_spec");   // planted: no spec
  auto present = bench::run_spec("fig4a");          // committed spec: clean
  return 0;
}

}  // namespace fixture
