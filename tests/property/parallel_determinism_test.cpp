/// Property test for the acceptance gate of the parallel runtime: for
/// the same base seed, a campaign sharded over N > 1 workers must equal
/// the serial campaign bit for bit — every counter and every double.
/// Same for design-space exploration.
#include <gtest/gtest.h>

#include "ftmc/core/design_space.hpp"
#include "ftmc/sim/monte_carlo.hpp"

namespace ftmc {
namespace {

rt::HostTask task(const std::string& name, sim::Tick period, sim::Tick wcet,
                  CritLevel crit, int max_attempts, int adapt_threshold,
                  double f) {
  rt::HostTask t;
  t.name = name;
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = crit;
  t.max_attempts = max_attempts;
  t.adapt_threshold = adapt_threshold;
  t.failure_prob = f;
  t.virtual_deadline = period;
  return t;
}

void expect_bit_identical(const sim::MonteCarloResult& a,
                          const sim::MonteCarloResult& b) {
  EXPECT_EQ(a.trigger.successes, b.trigger.successes);
  EXPECT_EQ(a.trigger.trials, b.trigger.trials);
  EXPECT_EQ(a.job_failure_hi.successes, b.job_failure_hi.successes);
  EXPECT_EQ(a.job_failure_hi.trials, b.job_failure_hi.trials);
  EXPECT_EQ(a.job_failure_lo.successes, b.job_failure_lo.successes);
  EXPECT_EQ(a.job_failure_lo.trials, b.job_failure_lo.trials);
  // EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".
  EXPECT_EQ(a.simulated_hours, b.simulated_hours);
  EXPECT_EQ(a.pfh_hi, b.pfh_hi);
  EXPECT_EQ(a.pfh_lo, b.pfh_lo);
}

TEST(ParallelDeterminism, MonteCarloCampaignMatchesSerialBitForBit) {
  const std::vector<rt::HostTask> tasks = {
      task("h1", 50'000, 2'000, CritLevel::HI, 3, 1, 0.05),
      task("h2", 120'000, 5'000, CritLevel::HI, 2, 1, 0.02),
      task("l1", 80'000, 3'000, CritLevel::LO, 2, 2, 0.08),
      task("l2", 200'000, 9'000, CritLevel::LO, 1, 1, 0.01)};

  for (const std::uint64_t seed : {1ull, 2ull, 20140601ull}) {
    sim::SimConfig cfg;
    cfg.policy = PolicyKind::kEdfVd;
    cfg.adaptation = AdaptationKind::kKilling;
    cfg.random_phasing = true;

    sim::MonteCarloOptions opt;
    opt.missions = 97;  // not a multiple of the chunk size
    opt.mission_length = 400'000;
    opt.seed = seed;

    opt.threads = 1;
    const auto serial = monte_carlo_campaign(tasks, cfg, opt);
    for (const int threads : {2, 4, 0 /* hardware */}) {
      opt.threads = threads;
      const auto parallel = monte_carlo_campaign(tasks, cfg, opt);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      expect_bit_identical(serial, parallel);
    }
  }
}

TEST(ParallelDeterminism, CampaignsWithDifferentSeedsDiffer) {
  // Sanity for the independence fix: adjacent base seeds should no
  // longer share (missions - 1) of their mission streams, so aggregate
  // statistics over many stochastic missions should differ.
  const std::vector<rt::HostTask> tasks = {
      task("h", 50'000, 2'000, CritLevel::HI, 3, 1, 0.1),
      task("l", 70'000, 2'500, CritLevel::LO, 2, 2, 0.1)};
  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  sim::MonteCarloOptions opt;
  opt.missions = 200;
  opt.mission_length = 500'000;
  opt.seed = 1;
  const auto a = monte_carlo_campaign(tasks, cfg, opt);
  opt.seed = 2;
  const auto b = monte_carlo_campaign(tasks, cfg, opt);
  EXPECT_TRUE(a.job_failure_hi.successes != b.job_failure_hi.successes ||
              a.job_failure_lo.successes != b.job_failure_lo.successes ||
              a.trigger.successes != b.trigger.successes);
}

TEST(ParallelDeterminism, DesignSpaceMatchesSerial) {
  const core::FtTaskSet ts(
      {core::FtTask{"tau1", 60, 60, 5, Dal::B, 1e-5},
       core::FtTask{"tau2", 25, 25, 4, Dal::B, 1e-5},
       core::FtTask{"tau3", 40, 40, 7, Dal::D, 1e-5},
       core::FtTask{"tau4", 90, 90, 6, Dal::D, 1e-5}},
      DualCriticalityMapping{Dal::B, Dal::D});

  core::DesignSpaceOptions opt;
  opt.degradation_factors = {2.0, 3.0, 6.0, 12.0};
  opt.segment_counts = {1, 2, 4};

  opt.threads = 1;
  const auto serial = core::explore_design_space(ts, opt);
  opt.threads = 4;
  const auto parallel = core::explore_design_space(ts, opt);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(serial[i].kind, parallel[i].kind);
    EXPECT_EQ(serial[i].degradation_factor, parallel[i].degradation_factor);
    EXPECT_EQ(serial[i].segments, parallel[i].segments);
    EXPECT_EQ(serial[i].certifiable, parallel[i].certifiable);
    EXPECT_EQ(serial[i].n_adapt, parallel[i].n_adapt);
    EXPECT_EQ(serial[i].pfh_lo, parallel[i].pfh_lo);
    EXPECT_EQ(serial[i].u_mc, parallel[i].u_mc);
    EXPECT_EQ(serial[i].service_quality, parallel[i].service_quality);
    EXPECT_EQ(serial[i].safety_margin_orders,
              parallel[i].safety_margin_orders);
    EXPECT_EQ(serial[i].schedulability_margin,
              parallel[i].schedulability_margin);
  }
  EXPECT_EQ(core::pareto_front(serial), core::pareto_front(parallel));
}

}  // namespace
}  // namespace ftmc
