#include <gtest/gtest.h>

#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {
namespace {

rt::HostTask hi_task(Tick period, Tick wcet, int max_attempts,
                     int adapt_threshold, double f) {
  rt::HostTask t;
  t.name = "hi";
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = CritLevel::HI;
  t.max_attempts = max_attempts;
  t.adapt_threshold = adapt_threshold;
  t.failure_prob = f;
  t.virtual_deadline = period;
  return t;
}

rt::HostTask lo_task(Tick period, Tick wcet) {
  rt::HostTask t;
  t.name = "lo";
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = CritLevel::LO;
  t.max_attempts = 1;
  t.adapt_threshold = 1;
  t.failure_prob = 0.0;
  t.virtual_deadline = period;
  return t;
}

SimConfig config(AdaptationKind kind, Tick horizon,
                 double df = 1.0) {
  SimConfig c;
  c.policy = PolicyKind::kEdfVd;
  c.adaptation = kind;
  c.degradation_factor = df;
  c.horizon = horizon;
  c.trace_capacity = 1'000'000;
  return c;
}

TEST(ModeSwitch, HighFailureTriggersSwitch) {
  // f = 0.9, n' = 1: the second attempt of a HI job (prob 0.9 per job)
  // triggers the switch almost immediately.
  Simulator sim({hi_task(1000, 10, 3, 1, 0.9), lo_task(500, 10)},
                config(AdaptationKind::kKilling, 10'000'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.mode_switches, 1u);  // latched: exactly one transition
  EXPECT_LT(s.first_mode_switch, 100'000);
}

TEST(ModeSwitch, NeverTriggersWhenThresholdEqualsMaxAttempts) {
  // n' = n: a job never *starts* an (n+1)-th attempt.
  Simulator sim({hi_task(1000, 10, 3, 3, 0.9), lo_task(500, 10)},
                config(AdaptationKind::kKilling, 10'000'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.mode_switches, 0u);
  EXPECT_EQ(s.per_task[1].killed, 0u);
  EXPECT_GT(s.per_task[1].completed, 0u);
}

TEST(ModeSwitch, ThresholdZeroSwitchesAtFirstHiRelease) {
  Simulator sim({hi_task(1000, 10, 2, 0, 0.0), lo_task(500, 10)},
                config(AdaptationKind::kKilling, 1'000'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.mode_switches, 1u);
  EXPECT_EQ(s.first_mode_switch, 0);
}

TEST(ModeSwitch, ImmediateSwitchSuppressesLoTasksEntirely) {
  // Threshold 0 with the HI task releasing first at t=0: the switch fires
  // before the simultaneous LO release, so no LO job ever exists.
  Simulator sim({hi_task(1000, 10, 3, 0, 0.0), lo_task(500, 10)},
                config(AdaptationKind::kKilling, 10'000'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[1].released, 0u);
  EXPECT_EQ(s.per_task[1].completed, 0u);
  // The HI task continues unharmed.
  EXPECT_EQ(s.per_task[0].released, 10'000u);
  EXPECT_EQ(s.per_task[0].completed, 10'000u);
}

TEST(ModeSwitch, KillingDiscardsAlreadyReleasedLoJobs) {
  // Switch mid-run: the HI task (n' = 1) almost surely fails its first
  // attempt (f = 0.999) at t = 10 and kills the LO job released at t = 0
  // (whose WCET of 5000 keeps it pending).
  Simulator sim({hi_task(1000, 10, 3, 1, 0.999), lo_task(100'000, 5'000)},
                config(AdaptationKind::kKilling, 10'000'000));
  const SimStats s = sim.run();
  ASSERT_EQ(s.mode_switches, 1u);
  EXPECT_EQ(s.per_task[1].released, 1u);
  EXPECT_EQ(s.per_task[1].killed, 1u);
  EXPECT_EQ(s.per_task[1].completed, 0u);
}

TEST(ModeSwitch, DegradationStretchesLoPeriods) {
  const Tick horizon = 100'000'000;
  Simulator sim({hi_task(1000, 10, 3, 0, 0.0), lo_task(1000, 10)},
                config(AdaptationKind::kDegradation, horizon, 4.0));
  const SimStats s = sim.run();
  // Switch at t=0: LO releases at ~4000-tick spacing instead of 1000.
  const double expected = static_cast<double>(horizon) / 4000.0;
  EXPECT_NEAR(static_cast<double>(s.per_task[1].released), expected,
              expected * 0.01 + 2.0);
  // Degradation kills nothing.
  EXPECT_EQ(s.per_task[1].killed, 0u);
  EXPECT_EQ(s.per_task[1].completed, s.per_task[1].released);
}

TEST(ModeSwitch, DegradationKeepsCurrentLoJobRunning) {
  // LO job released at t=0 with a long WCET; the switch happens at t=10
  // (HI fails its first attempt, n' = 1). Under degradation (unlike
  // killing) the already-released job still completes.
  Simulator sim({hi_task(1000, 10, 3, 1, 0.999), lo_task(100'000, 5'000)},
                config(AdaptationKind::kDegradation, 50'000, 4.0));
  const SimStats s = sim.run();
  ASSERT_EQ(s.mode_switches, 1u);
  EXPECT_EQ(s.per_task[1].released, 1u);
  EXPECT_EQ(s.per_task[1].completed, 1u);
  EXPECT_EQ(s.per_task[1].killed, 0u);
}

TEST(ModeSwitch, ModeResetOnIdleReadmitsLoTasks) {
  SimConfig c = config(AdaptationKind::kKilling, 10'000'000);
  c.mode_reset_on_idle = true;
  // HI task fails its first attempt with p=0.5 and may trigger (n'=1);
  // after the burst drains, the processor idles and LO resumes.
  c.seed = 3;
  Simulator sim({hi_task(1000, 10, 3, 1, 0.5), lo_task(500, 10)}, c);
  const SimStats s = sim.run();
  ASSERT_GT(s.mode_switches, 1u);  // switched, reset, switched again ...
  EXPECT_GT(s.mode_resets, 0u);
  // LO releases resume after resets: far more than the pre-switch couple.
  EXPECT_GT(s.per_task[1].completed, 100u);
}

TEST(ModeSwitch, DegradationStretchesLoDeadlinesToo) {
  // Degraded service relaxes both the LO rate AND the LO due date: a LO
  // job in HI mode is due d_f * D after release (elastic model of [12],
  // the semantics Eq. (12) analyzes), so a job that finishes after D but
  // before d_f * D is on time, not a miss.
  // Here: switch at t = 0 (n' = 0), the LO job needs 1500 ticks of
  // service against an undegraded deadline of 1000 but a degraded one
  // of 4000 -> zero misses.
  Simulator sim({hi_task(10'000, 10, 3, 0, 0.0), lo_task(1'000, 1'500)},
                config(AdaptationKind::kDegradation, 20'000, 4.0));
  const SimStats s = sim.run();
  ASSERT_EQ(s.mode_switches, 1u);
  EXPECT_GE(s.per_task[1].completed, 1u);
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
}

TEST(ModeSwitch, LatchedModeWithoutResetOption) {
  SimConfig c = config(AdaptationKind::kKilling, 10'000'000);
  c.seed = 3;
  Simulator sim({hi_task(1000, 10, 3, 1, 0.5), lo_task(500, 10)}, c);
  const SimStats s = sim.run();
  EXPECT_EQ(s.mode_switches, 1u);
  EXPECT_EQ(s.mode_resets, 0u);
}

TEST(ModeSwitch, EdfVdUsesVirtualDeadlinesInLoMode) {
  // HI task with a tiny virtual deadline must run before a LO task whose
  // absolute deadline is earlier than the HI task's true deadline.
  rt::HostTask hi = hi_task(10'000, 100, 1, 1, 0.0);
  hi.virtual_deadline = 500;  // x ~ 0.05
  rt::HostTask lo = lo_task(2'000, 100);
  SimConfig c = config(AdaptationKind::kKilling, 10'000);
  Simulator sim({hi, lo}, c);
  sim.run();
  for (const rt::Event& ev : sim.trace()) {
    if (ev.kind == rt::EventKind::kStart) {
      EXPECT_EQ(ev.task, 0u);  // HI first despite later true deadline
      break;
    }
  }
}

TEST(ModeSwitch, TraceContainsSwitchAndKillEvents) {
  Simulator sim({hi_task(1000, 10, 3, 1, 0.999), lo_task(100'000, 5'000)},
                config(AdaptationKind::kKilling, 1'000'000));
  sim.run();
  bool saw_switch = false, saw_kill = false;
  for (const rt::Event& ev : sim.trace()) {
    saw_switch |= ev.kind == rt::EventKind::kModeSwitch;
    saw_kill |= ev.kind == rt::EventKind::kKill;
  }
  EXPECT_TRUE(saw_switch);
  EXPECT_TRUE(saw_kill);
}

}  // namespace
}  // namespace ftmc::sim
