#include "ftmc/sim/partitioned_sim.hpp"

#include <gtest/gtest.h>

#include "ftmc/common/contracts.hpp"

namespace ftmc::sim {
namespace {

rt::HostTask task(const std::string& name, Tick period, Tick wcet,
                  CritLevel crit = CritLevel::LO, int max_attempts = 1,
                  int adapt_threshold = 1, double f = 0.0) {
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

SimConfig config(Tick horizon) {
  SimConfig c;
  c.policy = PolicyKind::kEdfVd;
  c.adaptation = AdaptationKind::kKilling;
  c.horizon = horizon;
  return c;
}

TEST(PartitionedSim, IndependentCoresCarryOverload) {
  // Each task alone uses 80% of a core; together they overload one core
  // but run cleanly on two.
  const std::vector<rt::HostTask> tasks = {task("a", 1000, 800),
                                      task("b", 1000, 800)};
  const auto one_core =
      simulate_partitioned(tasks, {0, 0}, 1, config(1'000'000));
  std::uint64_t misses_one = 0;
  for (const auto& t : one_core.per_core[0].per_task) {
    misses_one += t.deadline_misses;
  }
  EXPECT_GT(misses_one, 0u);

  const auto two_cores =
      simulate_partitioned(tasks, {0, 1}, 2, config(1'000'000));
  for (const auto& core_stats : two_cores.per_core) {
    for (const auto& t : core_stats.per_task) {
      EXPECT_EQ(t.deadline_misses, 0u);
    }
  }
}

TEST(PartitionedSim, ModeSwitchScopedToOneCore) {
  // Core 0: a HI task that triggers immediately + a LO victim.
  // Core 1: a LO task only. The kill must not reach core 1.
  const std::vector<rt::HostTask> tasks = {
      task("hi", 1000, 10, CritLevel::HI, 2, 0, 0.0),
      task("victim", 500, 10),
      task("survivor", 500, 10),
  };
  const auto stats = simulate_partitioned(tasks, {0, 0, 1}, 2,
                                          config(1'000'000));
  EXPECT_EQ(stats.total_mode_switches, 1u);
  // Victim on core 0 never runs (switch at t=0 suppresses it).
  EXPECT_EQ(stats.per_core[0].per_task[1].completed, 0u);
  // Survivor on core 1 runs to the end.
  EXPECT_EQ(stats.per_core[1].per_task[0].completed, 2000u);
}

TEST(PartitionedSim, AggregatesPfhAcrossCores) {
  const std::vector<rt::HostTask> tasks = {
      task("l0", 1'000'000, 100, CritLevel::LO, 1, 1, 0.5),
      task("l1", 1'000'000, 100, CritLevel::LO, 1, 1, 0.5),
  };
  const auto stats = simulate_partitioned(tasks, {0, 1}, 2,
                                          config(kTicksPerHour));
  // Each task: 3600 jobs/hour at 50% failure -> total ~3600 failures/hr.
  EXPECT_NEAR(stats.pfh_lo, 3600.0, 200.0);
  EXPECT_DOUBLE_EQ(stats.pfh_hi, 0.0);
}

TEST(PartitionedSim, UnassignedTasksSkipped) {
  const std::vector<rt::HostTask> tasks = {task("a", 1000, 100),
                                      task("ghost", 1000, 100)};
  const auto stats =
      simulate_partitioned(tasks, {0, -1}, 1, config(10'000));
  ASSERT_EQ(stats.per_core.size(), 1u);
  ASSERT_EQ(stats.per_core[0].per_task.size(), 1u);  // only task "a"
}

TEST(PartitionedSim, EmptyCoreProducesIdleStats) {
  const std::vector<rt::HostTask> tasks = {task("a", 1000, 100)};
  const auto stats = simulate_partitioned(tasks, {0}, 3, config(10'000));
  ASSERT_EQ(stats.per_core.size(), 3u);
  EXPECT_EQ(stats.per_core[1].busy_time, 0);
  EXPECT_EQ(stats.per_core[2].busy_time, 0);
}

TEST(PartitionedSim, RejectsBadInput) {
  const std::vector<rt::HostTask> tasks = {task("a", 1000, 100)};
  EXPECT_THROW((void)simulate_partitioned(tasks, {0}, 0, config(10'000)),
               ContractViolation);
  EXPECT_THROW((void)simulate_partitioned(tasks, {}, 1, config(10'000)),
               ContractViolation);
  EXPECT_THROW((void)simulate_partitioned(tasks, {5}, 2, config(10'000)),
               ContractViolation);
}

}  // namespace
}  // namespace ftmc::sim
