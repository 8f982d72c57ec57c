// Tests for the always-on invariant macros (util/check.h). The death tests
// prove DCPIM_CHECK fires in the default RelWithDebInfo build — the whole
// point of the layer is that release binaries keep their guardrails.
#include <gtest/gtest.h>

#include <memory>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace dcpim {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  DCPIM_CHECK(true, "never fires");
  DCPIM_CHECK_EQ(2 + 2, 4, "arithmetic");
  DCPIM_CHECK_LT(1, 2, "ordering");
  DCPIM_DCHECK(true, "never fires");
  DCPIM_DCHECK_GE(5, 5, "ordering");
}

TEST(CheckDeathTest, FiresInDefaultBuild) {
  // This test runs in the tier-1 RelWithDebInfo lane; if DCPIM_CHECK were
  // compiled out (like assert under NDEBUG) the death expectation fails.
  EXPECT_DEATH(DCPIM_CHECK(false, "forced failure"), "forced failure");
}

TEST(CheckDeathTest, OpVariantPrintsOperands) {
  const int lhs = 3;
  const int rhs = 7;
  EXPECT_DEATH(DCPIM_CHECK_EQ(lhs, rhs, "operand dump"), "3 vs 7");
}

TEST(CheckDeathTest, FailureReportsSimTimeWhenRunning) {
  sim::Simulator sim;
  sim.schedule_at(TimePoint(us(42)), []() { DCPIM_CHECK(false, "inside event"); });
  EXPECT_DEATH(sim.run(), "sim time 42000000 ps");
}

TEST(CheckDeathTest, NetworkInvariantFiresOnBadFlow) {
  // A concrete migrated assert: zero-size flows violate the model and must
  // abort even in release builds instead of corrupting packet math.
  net::Network net{net::NetConfig{}};
  EXPECT_DEATH(net.create_flow(0, 1, /*size=*/Bytes{}, /*start=*/TimePoint{}),
               "flows must carry payload");
}

TEST(CheckDeathTest, FabricConstantsNeedATopology) {
  // BDP and RTTs exist only once a topology has measured the fabric.
  net::Network net{net::NetConfig{}};
  EXPECT_DEATH((void)net.bdp(),
               "fabric constants read before a topology set them");
}

TEST(CheckTest, DcheckSideEffectFreeWhenDisabled) {
  // Whatever the build type, DCPIM_DCHECK must never evaluate its condition
  // twice, and in NDEBUG builds it must not evaluate it at all — but it
  // must still compile against the names it mentions.
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return true;
  };
  DCPIM_DCHECK(touch(), "side-effect probe");
#ifdef NDEBUG
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
#endif
}

}  // namespace
}  // namespace dcpim
