// dcpim-sa fixture: planted determinism violations.
//
// Golden expectations (tests/test_dcpim_sa.py):
//   - std::rand reached through a two-deep helper chain from an event root
//   - an unseeded std::random_device
//   - a wall-clock read (std::chrono::steady_clock)
//
// This file is analyzed standalone (never compiled into the simulator).
#include <cstdlib>
#include <chrono>
#include <random>

namespace fixture {

struct Event {
  int kind = 0;
};

class DetHost {
 public:
  // Event root by name: `on_packet` seeds the reachability walk.
  void on_packet(const Event& e) {
    if (e.kind > 0) jitter_helper();
  }

 private:
  // Two-deep chain: on_packet -> jitter_helper -> draw_jitter -> std::rand.
  void jitter_helper() { last_jitter_ = draw_jitter(); }

  int draw_jitter() {
    std::random_device rd;  // planted: unseeded random_device
    (void)rd;
    const auto t = std::chrono::steady_clock::now();  // planted: wall clock
    (void)t;
    return std::rand();  // planted: std::rand three calls from the root
  }

  int last_jitter_ = 0;
};

}  // namespace fixture
