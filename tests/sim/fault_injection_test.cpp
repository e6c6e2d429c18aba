#include <gtest/gtest.h>

#include <cmath>

#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {
namespace {

rt::HostTask task(Tick period, Tick wcet, int max_attempts, double f,
                  CritLevel crit = CritLevel::LO, int adapt_threshold = -1) {
  rt::HostTask t;
  t.name = "t";
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = crit;
  t.max_attempts = max_attempts;
  t.adapt_threshold = adapt_threshold < 0 ? max_attempts : adapt_threshold;
  t.failure_prob = f;
  t.virtual_deadline = period;
  return t;
}

SimConfig config(Tick horizon, std::uint64_t seed = 1) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = horizon;
  c.seed = seed;
  return c;
}

TEST(FaultInjection, FaultRateMatchesFailureProbability) {
  // 100k attempts at f = 0.2: fault count within 4 sigma of the mean.
  const double f = 0.2;
  const SimStats s =
      Simulator({task(1000, 10, 1, f)}, config(100'000'000)).run();
  const double n = static_cast<double>(s.per_task[0].attempts);
  const double expected = n * f;
  const double sigma = std::sqrt(n * f * (1 - f));
  EXPECT_NEAR(static_cast<double>(s.per_task[0].faults), expected,
              4.0 * sigma);
}

TEST(FaultInjection, ReexecutionRecoversMostJobs) {
  // f = 0.3, up to 4 attempts: job failure prob = 0.3^4 = 0.81%.
  const SimStats s =
      Simulator({task(1000, 10, 4, 0.3)}, config(100'000'000)).run();
  const double released = static_cast<double>(s.per_task[0].released);
  const double failures = static_cast<double>(s.per_task[0].job_failures);
  const double rate = failures / released;
  EXPECT_NEAR(rate, 0.0081, 0.002);
  EXPECT_EQ(s.per_task[0].completed + s.per_task[0].job_failures,
            s.per_task[0].released);
}

TEST(FaultInjection, SingleAttemptJobFailureRateIsF) {
  const SimStats s =
      Simulator({task(1000, 10, 1, 0.25)}, config(100'000'000)).run();
  const double rate = static_cast<double>(s.per_task[0].job_failures) /
                      static_cast<double>(s.per_task[0].released);
  EXPECT_NEAR(rate, 0.25, 0.01);
}

TEST(FaultInjection, AttemptsPerJobMatchGeometricExpectation) {
  // E[attempts per job] with cap n: sum_{k=0}^{n-1} f^k.
  const double f = 0.4;
  const int n = 3;
  const SimStats s =
      Simulator({task(1000, 10, n, f)}, config(100'000'000)).run();
  const double expected = 1.0 + f + f * f;
  const double mean = static_cast<double>(s.per_task[0].attempts) /
                      static_cast<double>(s.per_task[0].released);
  EXPECT_NEAR(mean, expected, 0.02);
}

TEST(FaultInjection, ZeroFailureProbabilityNeverFaults) {
  const SimStats s =
      Simulator({task(1000, 10, 3, 0.0)}, config(10'000'000)).run();
  EXPECT_EQ(s.per_task[0].faults, 0u);
  EXPECT_EQ(s.per_task[0].attempts, s.per_task[0].released);
}

TEST(FaultInjection, ReexecutionConsumesProcessorTime) {
  // busy time = attempts * wcet under kAlwaysWcet.
  const SimStats s =
      Simulator({task(1000, 10, 5, 0.5)}, config(10'000'000)).run();
  EXPECT_EQ(s.busy_time,
            static_cast<Tick>(s.per_task[0].attempts) * 10);
}

TEST(FaultInjection, EmpiricalPfhCountsTemporalFailures) {
  SimConfig c = config(10 * kTicksPerHour);
  Simulator sim({task(1'000'000, 10, 1, 0.5)}, c);  // 1 s period
  const SimStats s = sim.run();
  const double pfh = sim.empirical_pfh(s, CritLevel::LO);
  // ~3600 jobs/hour at 50% failure: PFH ~ 1800.
  EXPECT_NEAR(pfh, 1800.0, 150.0);
  EXPECT_DOUBLE_EQ(sim.empirical_pfh(s, CritLevel::HI), 0.0);
}

}  // namespace
}  // namespace ftmc::sim
