/// Promotes the sim_validation bench verdict to a real test: the
/// analytical PFH bound (Eq. 2) must be consistent with the failure
/// count observed by the simulator, judged against the *exact* Poisson
/// (Garwood) interval on the rate. The normal-approximation band used
/// before collapsed to +-0 at zero observed failures, certifying the
/// bound vacuously; these tests also pin the non-vacuity of the fix.
#include <gtest/gtest.h>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/ft_task.hpp"
#include "ftmc/prob/poisson.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc {
namespace {

core::FtTaskSet validation_set(double f) {
  const auto task = [f](const char* name, Millis period, Millis wcet,
                        Dal dal) {
    return core::FtTask{name, period, period, wcet, dal, f};
  };
  return core::FtTaskSet({task("hi1", 100, 4, Dal::B),
                          task("hi2", 60, 2, Dal::B),
                          task("lo1", 80, 6, Dal::C),
                          task("lo2", 120, 8, Dal::C)},
                         {Dal::B, Dal::C});
}

TEST(SimValidation, BoundConsistentWithExactPoissonInterval) {
  // f is inflated to 1e-2 so failures are observable within the two
  // simulated hours this test can afford (expected ~19 HI, ~15 LO).
  const core::FtTaskSet ts = validation_set(1e-2);
  const int n_hi = 2, n_lo = 2;
  const auto n = core::uniform_profile(ts, n_hi, n_lo);
  const double hours = 2.0;

  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  cfg.adaptation = AdaptationKind::kNone;
  cfg.horizon = static_cast<sim::Tick>(hours * sim::kTicksPerHour);
  cfg.seed = 424242;
  sim::Simulator simulator(
      sim::build_sim_tasks(ts, n_hi, n_lo, n_hi, 1.0), cfg);
  const sim::SimStats stats = simulator.run();

  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const double bound = core::pfh_plain(ts, n, level);
    const std::uint64_t k = simulator.failure_count(stats, level);
    const prob::PoissonInterval ci = prob::poisson_interval(k, 0.95);

    // The failure process must actually produce events here, otherwise
    // this test degenerates to the vacuous check it replaces.
    ASSERT_GE(k, 1u) << to_string(level);

    // The bound is an upper bound on the true rate: consistency means
    // it is not below the interval's lower edge.
    EXPECT_GE(bound, ci.lower / hours) << to_string(level) << " k=" << k;

    // Non-vacuity: with k >= 1 the lower edge is strictly positive, so
    // a bound that is wrong by three orders of magnitude IS refuted.
    EXPECT_GT(ci.lower, 0.0);
    EXPECT_LT(bound / 1000.0, ci.lower / hours)
        << "a deliberately broken bound must fail the check";
  }
}

TEST(SimValidation, ZeroFailuresYieldInformativeInterval) {
  // With f = 0 nothing ever fails: the old normal band was +-0 and any
  // bound passed trivially. The Garwood interval still has a positive
  // upper edge (3.689 events), which is what makes "no failures in h
  // hours" an informative statement about rates up to 3.689/h.
  const core::FtTaskSet ts = validation_set(0.0);
  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  cfg.adaptation = AdaptationKind::kNone;
  cfg.horizon = static_cast<sim::Tick>(0.1 * sim::kTicksPerHour);
  cfg.seed = 7;
  sim::Simulator simulator(sim::build_sim_tasks(ts, 2, 2, 2, 1.0), cfg);
  const sim::SimStats stats = simulator.run();

  const std::uint64_t k = simulator.failure_count(stats, CritLevel::HI);
  ASSERT_EQ(k, 0u);
  const prob::PoissonInterval ci = prob::poisson_interval(k, 0.95);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_NEAR(ci.upper, 3.68888, 1e-4);
}

}  // namespace
}  // namespace ftmc
