#include "ftmc/sim/engine.hpp"

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

SimConfig edf_config(Tick horizon) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = horizon;
  c.trace_capacity = 100'000;
  return c;
}

TEST(SimEngine, SinglePeriodicTaskCompletesEveryJob) {
  Simulator sim({task("t", 1000, 100)}, edf_config(10'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].released, 10u);
  EXPECT_EQ(s.per_task[0].completed, 10u);
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[0].temporal_failures(), 0u);
  EXPECT_EQ(s.busy_time, 1000);
  EXPECT_NEAR(s.utilization_observed(), 0.1, 1e-12);
}

TEST(SimEngine, TwoTasksNoMissesAtModerateLoad) {
  Simulator sim({task("a", 100, 30), task("b", 150, 40)},
                edf_config(300'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[0].released, 3000u);
  EXPECT_EQ(s.per_task[1].released, 2000u);
}

TEST(SimEngine, EdfPrefersEarlierDeadline) {
  // At t=0 both release; EDF runs the shorter-deadline task first.
  Simulator sim({task("long", 1000, 100), task("short", 200, 50)},
                edf_config(1000));
  sim.run();
  const auto& trace = sim.trace();
  // First start event must be the short-deadline task (index 1).
  for (const rt::Event& ev : trace) {
    if (ev.kind == rt::EventKind::kStart) {
      EXPECT_EQ(ev.task, 1u);
      break;
    }
  }
}

TEST(SimEngine, PreemptionOccursAndIsCounted) {
  // Long job starts alone at 0, short-deadline task arrives at 500 and
  // preempts it.
  rt::HostTask long_task = task("long", 10'000, 2'000);
  rt::HostTask short_task = task("short", 700, 100);
  // Shift the short task by making its first release at 0 too — EDF will
  // still run short first then long, and the next short release at 700
  // preempts the long job.
  Simulator sim({long_task, short_task}, edf_config(10'000));
  const SimStats s = sim.run();
  EXPECT_GT(s.preemptions, 0u);
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
}

TEST(SimEngine, OverloadProducesDeadlineMisses) {
  // U = 1.5: something must miss.
  Simulator sim({task("a", 100, 80), task("b", 100, 70)},
                edf_config(100'000));
  const SimStats s = sim.run();
  EXPECT_GT(s.per_task[0].deadline_misses + s.per_task[1].deadline_misses,
            0u);
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    SimConfig c = edf_config(1'000'000);
    c.seed = 99;
    rt::HostTask t = task("x", 1000, 100, CritLevel::LO, 3, 3, 0.3);
    Simulator sim({t}, c);
    return sim.run();
  };
  const SimStats a = run_once();
  const SimStats b = run_once();
  EXPECT_EQ(a.per_task[0].faults, b.per_task[0].faults);
  EXPECT_EQ(a.per_task[0].completed, b.per_task[0].completed);
  EXPECT_EQ(a.busy_time, b.busy_time);
}

TEST(SimEngine, SeedChangesFaultPattern) {
  const auto run_with_seed = [](std::uint64_t seed) {
    SimConfig c = edf_config(10'000'000);
    c.seed = seed;
    Simulator sim({task("x", 1000, 100, CritLevel::LO, 2, 2, 0.3)}, c);
    return sim.run().per_task[0].faults;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(SimEngine, TraceCapacityRespected) {
  SimConfig c = edf_config(1'000'000);
  c.trace_capacity = 10;
  Simulator sim({task("x", 1000, 100)}, c);
  sim.run();
  EXPECT_LE(sim.trace().size(), 10u);
}

TEST(SimEngine, TraceDisabledByDefaultCapacityZero) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = 100'000;
  Simulator sim({task("x", 1000, 100)}, c);
  sim.run();
  EXPECT_TRUE(sim.trace().empty());
}

TEST(SimEngine, SporadicArrivalsReleaseFewerJobs) {
  SimConfig periodic = edf_config(10'000'000);
  SimConfig sporadic = edf_config(10'000'000);
  sporadic.sporadic_arrivals = true;
  sporadic.jitter_fraction = 0.5;
  const SimStats p = Simulator({task("x", 1000, 10)}, periodic).run();
  const SimStats s = Simulator({task("x", 1000, 10)}, sporadic).run();
  EXPECT_LT(s.per_task[0].released, p.per_task[0].released);
  EXPECT_GT(s.per_task[0].released, p.per_task[0].released / 3);
}

TEST(SimEngine, FixedPriorityHonorsPriorities) {
  // Lower priority value = more important. Give the long task the top
  // priority: the short task must miss.
  rt::HostTask hog = task("hog", 1000, 800);
  hog.priority = 0;
  rt::HostTask victim = task("victim", 500, 300);
  victim.priority = 1;
  SimConfig c;
  c.policy = PolicyKind::kFixedPriority;
  c.horizon = 100'000;
  const SimStats s = Simulator({hog, victim}, c).run();
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_GT(s.per_task[1].deadline_misses, 0u);
}

TEST(SimEngine, RunTwiceRejected) {
  Simulator sim({task("x", 1000, 100)}, edf_config(10'000));
  sim.run();
  EXPECT_THROW(sim.run(), ContractViolation);
}

TEST(SimEngine, RejectsMalformedConfig) {
  SimConfig c;
  c.horizon = 0;
  EXPECT_THROW(Simulator({task("x", 1000, 100)}, c), ContractViolation);
  EXPECT_THROW(Simulator({}, edf_config(1000)), ContractViolation);
  rt::HostTask bad = task("x", 1000, 100);
  bad.failure_prob = 1.0;
  EXPECT_THROW(Simulator({bad}, edf_config(1000)), ContractViolation);
}

TEST(SimEngine, UniformExecModelShortensBusyTime) {
  SimConfig wcet_cfg = edf_config(10'000'000);
  SimConfig uni_cfg = edf_config(10'000'000);
  uni_cfg.exec_model = ExecTimeModel::kUniform;
  uni_cfg.exec_min_fraction = 0.2;
  const SimStats w = Simulator({task("x", 1000, 500)}, wcet_cfg).run();
  const SimStats u = Simulator({task("x", 1000, 500)}, uni_cfg).run();
  EXPECT_LT(u.busy_time, w.busy_time);
  EXPECT_GT(u.busy_time, w.busy_time / 5);
}

TEST(SimEngine, EmpiricalPfhZeroWithoutFaults) {
  Simulator sim({task("x", 1000, 100)}, edf_config(sim::kTicksPerHour));
  const SimStats s = sim.run();
  EXPECT_DOUBLE_EQ(sim.empirical_pfh(s, CritLevel::LO), 0.0);
}

}  // namespace
}  // namespace ftmc::sim
