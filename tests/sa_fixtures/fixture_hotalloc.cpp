// dcpim-sa fixture: planted hot-path allocation violations.
//
// Golden expectations (tests/test_dcpim_sa.py):
//   - a push_back reached from an sa-hot root through a helper
//   - a bare `new` in a function transitively called from the root
//   - an sa-ok(hot-alloc)-suppressed growth call that must NOT fire
//   - the same allocation pattern in a cold function that must NOT fire
#include <vector>

namespace fixture {

class HotPath {
 public:
  // sa-hot
  void pump(int v) {
    stage_one(v);
    buffered_suppressed(v);
  }

  void cold_path(int v) {
    scratch_.push_back(v);  // identical call, not hot-reachable: clean
  }

 private:
  void stage_one(int v) { stage_two(v); }

  void stage_two(int v) {
    scratch_.push_back(v);  // planted: growth two calls below the root
    leak_ = new int(v);     // planted: raw allocation on the hot path
  }

  void buffered_suppressed(int v) {
    // sa-ok(hot-alloc): amortized growth; capacity is reached in warmup.
    scratch_.push_back(v);
  }

  // A malformed (justification-less) suppression suppresses nothing: both
  // the comment and the growth call below it fire.
  // sa-hot
  void pump_sloppy(int v) {
    // sa-ok(hot-alloc):
    scratch_.push_back(v);  // planted: empty justification suppresses nothing
  }

  // Explicit template arguments do not hide an allocation.
  // sa-hot
  void pump_boxed(int v) {
    box_ = std::make_unique<int>(v);  // planted: make_unique<T> under sa-hot
  }

  std::vector<int> scratch_;
  int* leak_ = nullptr;
  std::unique_ptr<int> box_;
};

}  // namespace fixture
