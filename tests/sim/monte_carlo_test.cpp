#include "ftmc/sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ftmc/common/contracts.hpp"
#include "ftmc/core/analysis.hpp"
#include "ftmc/exec/seed.hpp"

namespace ftmc::sim {
namespace {

rt::HostTask task(const std::string& name, Tick period, Tick wcet,
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

TEST(Wilson, DegenerateCases) {
  BinomialEstimate none;
  EXPECT_DOUBLE_EQ(none.rate(), 0.0);
  EXPECT_DOUBLE_EQ(none.wilson_lower(), 0.0);
  EXPECT_DOUBLE_EQ(none.wilson_upper(), 1.0);
}

TEST(Wilson, IntervalContainsRateAndIsOrdered) {
  BinomialEstimate e{30, 100};
  EXPECT_DOUBLE_EQ(e.rate(), 0.3);
  EXPECT_LT(e.wilson_lower(), 0.3);
  EXPECT_GT(e.wilson_upper(), 0.3);
  EXPECT_GE(e.wilson_lower(), 0.0);
  EXPECT_LE(e.wilson_upper(), 1.0);
}

TEST(Wilson, KnownValue) {
  // p = 0.5, n = 100, z = 1.96: interval ~ [0.404, 0.596].
  BinomialEstimate e{50, 100};
  EXPECT_NEAR(e.wilson_lower(), 0.404, 0.002);
  EXPECT_NEAR(e.wilson_upper(), 0.596, 0.002);
}

TEST(Wilson, ShrinksWithSampleSize) {
  BinomialEstimate small{5, 10};
  BinomialEstimate large{500, 1000};
  EXPECT_LT(large.wilson_upper() - large.wilson_lower(),
            small.wilson_upper() - small.wilson_lower());
}

TEST(Wilson, ZeroSuccessesStillHavePositiveUpperBound) {
  BinomialEstimate e{0, 100};
  EXPECT_DOUBLE_EQ(e.rate(), 0.0);
  EXPECT_GT(e.wilson_upper(), 0.0);  // "rule of three" flavor
  EXPECT_LT(e.wilson_upper(), 0.06);
}

TEST(MonteCarlo, TriggerRateBracketsTrueProbability) {
  // Single HI task, n' = 1, f = 0.1, mission = 10 rounds: true trigger
  // probability = 1 - (1-0.1)^10 ~ 0.651. The 95% interval over 300
  // missions must contain it.
  std::vector<rt::HostTask> tasks = {
      task("h", 100'000, 1'000, CritLevel::HI, 3, 1, 0.1)};
  SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  cfg.adaptation = AdaptationKind::kKilling;
  MonteCarloOptions opt;
  opt.missions = 300;
  // 10 first attempts complete strictly inside [0, horizon): the last
  // job releases at 900000 and its attempt ends at 901000, so any
  // horizon above that sees all 10 Bernoulli trials.
  opt.mission_length = 950'000;
  opt.seed = 7;
  const MonteCarloResult r = monte_carlo_campaign(tasks, cfg, opt);
  const double truth = 1.0 - std::pow(0.9, 10.0);
  EXPECT_GE(truth, r.trigger.wilson_lower());
  EXPECT_LE(truth, r.trigger.wilson_upper());
}

TEST(MonteCarlo, JobFailureRateMatchesFPowerN) {
  std::vector<rt::HostTask> tasks = {
      task("l", 10'000, 100, CritLevel::LO, 2, 2, 0.2)};
  SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  MonteCarloOptions opt;
  opt.missions = 50;
  opt.mission_length = 10'000'000;  // 1000 jobs per mission
  const MonteCarloResult r = monte_carlo_campaign(tasks, cfg, opt);
  // True per-job failure prob = 0.2^2 = 0.04; 50k jobs -> tight interval.
  EXPECT_GE(0.04, r.job_failure_lo.wilson_lower());
  EXPECT_LE(0.04, r.job_failure_lo.wilson_upper());
  EXPECT_EQ(r.job_failure_hi.trials, 0u);
}

TEST(MonteCarlo, EmpiricalPfhBelowAnalyticalBound) {
  core::FtTaskSet ts(
      {core::FtTask{"h", 100.0, 100.0, 5.0, Dal::B, 1e-2},
       core::FtTask{"l", 200.0, 200.0, 8.0, Dal::C, 1e-2}},
      DualCriticalityMapping{Dal::B, Dal::C});
  const auto n = core::uniform_profile(ts, 2, 2);
  const double bound_hi = core::pfh_plain(ts, n, CritLevel::HI);
  const double bound_lo = core::pfh_plain(ts, n, CritLevel::LO);

  SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  MonteCarloOptions opt;
  opt.missions = 20;
  opt.mission_length = kTicksPerHour;
  const MonteCarloResult r = monte_carlo_campaign(
      build_sim_tasks(ts, 2, 2, 2, 1.0), cfg, opt);
  EXPECT_GT(r.simulated_hours, 19.9);
  EXPECT_LE(r.pfh_hi, bound_hi * 1.3 + 0.2);
  EXPECT_LE(r.pfh_lo, bound_lo * 1.3 + 0.2);
  EXPECT_GT(r.pfh_hi + r.pfh_lo, 0.0);  // faults happen at f = 1%
}

TEST(MonteCarlo, DeterministicGivenSeed) {
  std::vector<rt::HostTask> tasks = {
      task("h", 100'000, 1'000, CritLevel::HI, 2, 1, 0.2)};
  SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  MonteCarloOptions opt;
  opt.missions = 40;
  opt.mission_length = 1'000'000;
  const auto a = monte_carlo_campaign(tasks, cfg, opt);
  const auto b = monte_carlo_campaign(tasks, cfg, opt);
  EXPECT_EQ(a.trigger.successes, b.trigger.successes);
  EXPECT_DOUBLE_EQ(a.pfh_hi, b.pfh_hi);
}

TEST(MonteCarlo, AdjacentBaseSeedsUseIndependentMissionStreams) {
  // Regression: mission seeds used to be `seed + m`, so campaign(seed=1)
  // mission 1 and campaign(seed=2) mission 0 shared one RNG stream (and
  // adjacent campaigns shared all but one). With SplitMix64 derivation
  // the two streams must differ.
  const std::uint64_t s11 = exec::derive_seed(1, 1);
  const std::uint64_t s20 = exec::derive_seed(2, 0);
  ASSERT_NE(s11, s20);
  std::mt19937_64 stream_a(s11);
  std::mt19937_64 stream_b(s20);
  bool differs = false;
  for (int i = 0; i < 8; ++i) differs |= stream_a() != stream_b();
  EXPECT_TRUE(differs);
}

TEST(MonteCarlo, ParallelShardingMatchesSerial) {
  std::vector<rt::HostTask> tasks = {
      task("h", 100'000, 1'000, CritLevel::HI, 2, 1, 0.2),
      task("l", 130'000, 1'500, CritLevel::LO, 2, 2, 0.1)};
  SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  MonteCarloOptions opt;
  opt.missions = 33;
  opt.mission_length = 1'000'000;
  opt.threads = 1;
  const auto serial = monte_carlo_campaign(tasks, cfg, opt);
  opt.threads = 4;
  const auto parallel = monte_carlo_campaign(tasks, cfg, opt);
  EXPECT_EQ(serial.trigger.successes, parallel.trigger.successes);
  EXPECT_EQ(serial.job_failure_lo.trials, parallel.job_failure_lo.trials);
  EXPECT_EQ(serial.simulated_hours, parallel.simulated_hours);
  EXPECT_EQ(serial.pfh_hi, parallel.pfh_hi);
  EXPECT_EQ(serial.pfh_lo, parallel.pfh_lo);
}

TEST(MonteCarlo, RejectsBadOptions) {
  std::vector<rt::HostTask> tasks = {
      task("h", 100'000, 1'000, CritLevel::HI, 2, 1, 0.2)};
  SimConfig cfg;
  MonteCarloOptions opt;
  opt.missions = 0;
  EXPECT_THROW((void)monte_carlo_campaign(tasks, cfg, opt),
               ContractViolation);
  opt = MonteCarloOptions{};
  opt.mission_length = 0;
  EXPECT_THROW((void)monte_carlo_campaign(tasks, cfg, opt),
               ContractViolation);
}

}  // namespace
}  // namespace ftmc::sim
