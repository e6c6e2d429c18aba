// Unit tests of the freestanding runtime core: the host drives it
// manually, scripting execution times and fault verdicts.
#include "ftmc/rt/core.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "ftmc/common/contracts.hpp"

namespace rt = ftmc::rt;
using ftmc::CritLevel;
using ftmc::ContractViolation;
using rt::Tick;

namespace {

// A host whose answers are scripted by the test.
class ScriptedHost final : public rt::Host {
 public:
  std::vector<Tick> exec_time;          // per task: duration of any segment
  std::deque<bool> fault_script;        // global FIFO; empty => no fault
  std::vector<rt::Event> events;
  std::vector<CritLevel> mode_changes;

  Tick sample_segment_time(std::uint32_t task) override {
    return exec_time[task];
  }
  bool sample_fault(std::uint32_t, int) override {
    if (fault_script.empty()) return false;
    const bool f = fault_script.front();
    fault_script.pop_front();
    return f;
  }
  void emit(const rt::Event& event) override { events.push_back(event); }
  void on_mode_change(CritLevel mode, Tick) override {
    mode_changes.push_back(mode);
  }

  [[nodiscard]] std::vector<rt::EventKind> kinds() const {
    std::vector<rt::EventKind> out;
    out.reserve(events.size());
    for (const rt::Event& e : events) out.push_back(e.kind);
    return out;
  }
};

rt::TaskParams task(Tick period, Tick deadline, Tick wcet, Tick vd,
                    CritLevel crit, int max_attempts = 1,
                    int adapt_threshold = 1) {
  rt::TaskParams p;
  p.period = period;
  p.deadline = deadline;
  p.wcet = wcet;
  p.virtual_deadline = vd;
  p.crit = crit;
  p.max_attempts = max_attempts;
  p.adapt_threshold = adapt_threshold;
  return p;
}

}  // namespace

TEST(RtCore, EdfPicksEarliestAbsoluteDeadline) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdf;
  rt::Core core(cfg, host);
  core.add_task(task(100, 80, 10, 80, CritLevel::LO));
  core.add_task(task(100, 40, 10, 40, CritLevel::LO));
  core.start();
  host.exec_time = {10, 10};

  core.on_release(0, 0);  // deadline 80
  core.on_release(1, 0);  // deadline 40
  const std::size_t pick = core.dispatch(0);
  EXPECT_EQ(core.task(static_cast<std::uint32_t>(1)).deadline, 40);
  // The picked slot belongs to task 1 (earlier deadline): its kStart
  // event says so.
  ASSERT_EQ(host.events.back().kind, rt::EventKind::kStart);
  EXPECT_EQ(host.events.back().task, 1u);
  (void)pick;
}

TEST(RtCore, EdfVdUsesVirtualDeadlineInLoModeOnly) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdfVd;
  cfg.adaptation = ftmc::AdaptationKind::kNone;
  rt::Core core(cfg, host);
  // HI task: D=100, VD=30. LO task: D=50.
  core.add_task(task(200, 100, 10, 30, CritLevel::HI, 2, 1));
  core.add_task(task(200, 50, 10, 50, CritLevel::LO));
  core.start();
  host.exec_time = {10, 10};

  core.on_release(0, 0);
  core.on_release(1, 0);
  // LO mode: HI keyed at 30 < LO at 50 -> HI starts.
  core.dispatch(0);
  ASSERT_EQ(host.events.back().kind, rt::EventKind::kStart);
  EXPECT_EQ(host.events.back().task, 0u);

  // Fault the HI job -> mode switch; in HI mode its key is the true
  // deadline 100 > LO 50, so the LO job now wins.
  host.fault_script = {true};
  core.run_for(10);
  core.on_segment_boundary(10);
  EXPECT_EQ(core.mode(), CritLevel::HI);
  core.dispatch(10);
  ASSERT_EQ(host.events.back().kind, rt::EventKind::kStart);
  EXPECT_EQ(host.events.back().task, 1u);
}

TEST(RtCore, ReExecutionUntilBudgetExhausted) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.adaptation = ftmc::AdaptationKind::kNone;
  rt::Core core(cfg, host);
  core.add_task(task(1000, 1000, 10, 1000, CritLevel::HI, 3, 99));
  core.start();
  host.exec_time = {10};
  host.fault_script = {true, true, true};  // all three attempts fault

  core.on_release(0, 0);
  for (Tick t = 0; t < 3; ++t) {
    core.dispatch(t * 10);
    core.run_for(10);
    core.on_segment_boundary((t + 1) * 10);
  }
  const std::vector<rt::EventKind> kinds = host.kinds();
  // release, start, fail x3, job-fail — re-dispatches of the faulted job
  // are idempotent (it keeps the processor), so no extra kStart events.
  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds[5], rt::EventKind::kJobFail);
  EXPECT_EQ(core.task_counters(0).job_failures, 1u);
  EXPECT_EQ(core.task_counters(0).faults, 3u);
  EXPECT_EQ(core.task_counters(0).attempts, 3u);
  EXPECT_EQ(core.task_counters(0).completed, 0u);
  EXPECT_FALSE(core.has_ready());
}

TEST(RtCore, ThresholdZeroSwitchesAtRelease) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.adaptation = ftmc::AdaptationKind::kKilling;
  rt::Core core(cfg, host);
  core.add_task(task(1000, 1000, 10, 500, CritLevel::HI, 2, 0));
  core.add_task(task(1000, 1000, 10, 1000, CritLevel::LO));
  core.start();
  host.exec_time = {10, 10};

  core.on_release(1, 0);  // LO job first
  EXPECT_EQ(core.mode(), CritLevel::LO);
  core.on_release(0, 5);  // threshold 0: switch fires at the release
  EXPECT_EQ(core.mode(), CritLevel::HI);
  EXPECT_EQ(core.counters().first_mode_switch, 5);
  // The ready LO job was killed by the switch.
  EXPECT_EQ(core.task_counters(1).killed, 1u);
  EXPECT_FALSE(core.release_allowed(1));
  EXPECT_TRUE(core.release_allowed(0));
  ASSERT_EQ(host.mode_changes.size(), 1u);
  EXPECT_EQ(host.mode_changes[0], CritLevel::HI);
}

TEST(RtCore, DegradationStretchesDeadlinesAndPeriods) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.adaptation = ftmc::AdaptationKind::kDegradation;
  cfg.degradation_factor = 3.0;
  rt::Core core(cfg, host);
  core.add_task(task(1000, 1000, 10, 400, CritLevel::HI, 2, 1));
  core.add_task(task(600, 600, 10, 600, CritLevel::LO));
  core.start();
  host.exec_time = {10, 10};

  core.on_release(1, 0);
  EXPECT_DOUBLE_EQ(core.current_period(1), 600.0);
  core.on_release(0, 0);
  core.dispatch(0);  // HI first (vd 400 < 600)
  host.fault_script = {true};
  core.run_for(10);
  core.on_segment_boundary(10);  // fault -> switch
  EXPECT_EQ(core.mode(), CritLevel::HI);
  // Ready LO job re-anchored to release + d_f * D.
  bool saw_kill = false;
  for (const rt::Event& e : host.events) {
    saw_kill |= e.kind == rt::EventKind::kKill;
  }
  EXPECT_FALSE(saw_kill);  // degradation never kills
  EXPECT_TRUE(core.release_allowed(1));
  EXPECT_DOUBLE_EQ(core.current_period(1), 1800.0);
  // A LO job released in HI mode gets the stretched relative deadline.
  core.on_release(1, 700);
  EXPECT_EQ(host.events.back().kind, rt::EventKind::kRelease);
  EXPECT_EQ(host.events.back().abs_deadline, 700 + 1800);
}

TEST(RtCore, ModeResetOnIdleReturnsToLo) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.adaptation = ftmc::AdaptationKind::kKilling;
  cfg.mode_reset_on_idle = true;
  rt::Core core(cfg, host);
  core.add_task(task(1000, 1000, 10, 500, CritLevel::HI, 2, 1));
  core.start();
  host.exec_time = {10};

  core.on_release(0, 0);
  core.dispatch(0);
  host.fault_script = {true};
  core.run_for(10);
  core.on_segment_boundary(10);  // fault -> HI mode; re-execution pending
  EXPECT_EQ(core.mode(), CritLevel::HI);
  core.dispatch(10);
  core.run_for(10);
  core.on_segment_boundary(20);  // success -> retire
  EXPECT_FALSE(core.has_ready());
  core.on_idle(20);
  EXPECT_EQ(core.mode(), CritLevel::LO);
  EXPECT_EQ(core.counters().mode_resets, 1u);
  ASSERT_EQ(host.mode_changes.size(), 2u);
  EXPECT_EQ(host.mode_changes[1], CritLevel::LO);
}

TEST(RtCore, CompletionCountersAndResponseTimes) {
  ScriptedHost host;
  rt::Core core(rt::CoreConfig{}, host);
  core.add_task(task(1000, 1000, 40, 1000, CritLevel::LO));
  core.start();
  host.exec_time = {40};

  core.on_release(0, 0);
  core.dispatch(0);
  core.run_for(40);
  core.on_segment_boundary(40);
  core.on_release(0, 1000);
  core.dispatch(1000);
  core.run_for(40);
  core.on_segment_boundary(1060);  // simulated preemption gap
  const rt::TaskCounters& tc = core.task_counters(0);
  EXPECT_EQ(tc.released, 2u);
  EXPECT_EQ(tc.completed, 2u);
  EXPECT_EQ(tc.max_response, 60);
  EXPECT_EQ(tc.total_response, 100);
  EXPECT_EQ(tc.deadline_misses, 0u);
}

TEST(RtCore, LateCompletionCountsDeadlineMiss) {
  ScriptedHost host;
  rt::Core core(rt::CoreConfig{}, host);
  core.add_task(task(1000, 50, 10, 50, CritLevel::LO));
  core.start();
  host.exec_time = {10};

  core.on_release(0, 0);
  core.dispatch(0);
  core.run_for(10);
  core.on_segment_boundary(60);  // past the absolute deadline 50
  EXPECT_EQ(core.task_counters(0).deadline_misses, 1u);
  const std::vector<rt::EventKind> kinds = host.kinds();
  // ... miss is emitted before the completion, as in the simulator.
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[kinds.size() - 2], rt::EventKind::kDeadlineMiss);
  EXPECT_EQ(kinds.back(), rt::EventKind::kComplete);
}

TEST(RtCore, StructuralContractsThrow) {
  ScriptedHost host;
  rt::Core core(rt::CoreConfig{}, host);
  EXPECT_THROW(core.add_task(task(0, 100, 10, 100, CritLevel::LO)),
               ContractViolation);
  EXPECT_THROW(core.add_task(task(100, 100, 10, 0, CritLevel::LO)),
               ContractViolation);
  EXPECT_THROW(core.add_task(task(100, 100, 10, 200, CritLevel::LO)),
               ContractViolation);
  rt::TaskParams bad = task(100, 100, 10, 100, CritLevel::LO);
  bad.max_attempts = 0;
  EXPECT_THROW(core.add_task(bad), ContractViolation);
  EXPECT_THROW(core.start(), ContractViolation);  // no tasks
  core.add_task(task(100, 100, 10, 100, CritLevel::LO));
  core.start();
  EXPECT_THROW(core.add_task(task(100, 100, 10, 100, CritLevel::LO)),
               ContractViolation);  // after start
  EXPECT_THROW(core.start(), ContractViolation);  // twice
}

TEST(RtCore, AdmissionControlRejectsOverDensity) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.admission_control = true;
  rt::Core core(cfg, host);
  // 60% density task admitted; a second one would exceed 1.
  EXPECT_TRUE(core.add_task(task(100, 100, 60, 100, CritLevel::LO)).admitted);
  const rt::Admission second =
      core.add_task(task(100, 100, 60, 100, CritLevel::LO));
  EXPECT_FALSE(second.admitted);
  EXPECT_NE(second.reason, nullptr);
  EXPECT_EQ(core.num_tasks(), 1u);
  // The re-execution budget counts: n * C = 3 * 20 = 60 against D = 100
  // together with the existing 60% exceeds 1 as well.
  EXPECT_FALSE(
      core.add_task(task(100, 100, 20, 100, CritLevel::LO, 3)).admitted);
  // ... while a single-attempt 20% task fits.
  EXPECT_TRUE(core.add_task(task(100, 100, 20, 100, CritLevel::LO)).admitted);
}

TEST(RtCore, AdmissionControlUsesVirtualDeadlineInLoView) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.admission_control = true;
  cfg.policy = ftmc::PolicyKind::kEdfVd;
  rt::Core core(cfg, host);
  // HI task with C=60, D=100, VD=50: LO-mode density 60/50 = 1.2 > 1.
  EXPECT_FALSE(
      core.add_task(task(100, 100, 60, 50, CritLevel::HI, 1, 1)).admitted);
  // Same task with VD=100 has density 0.6 and is admitted.
  EXPECT_TRUE(
      core.add_task(task(100, 100, 60, 100, CritLevel::HI, 1, 1)).admitted);
}

TEST(RtCore, JobPoolExhaustionThrowsWithoutGrowth) {
  ScriptedHost host;
  rt::CoreConfig cfg;
  cfg.max_jobs = 2;
  cfg.allow_job_growth = false;
  rt::Core core(cfg, host);
  core.add_task(task(100, 100, 10, 100, CritLevel::LO));
  core.start();
  host.exec_time = {10};
  core.on_release(0, 0);
  core.on_release(0, 100);
  EXPECT_THROW(core.on_release(0, 200), ContractViolation);
}

TEST(RtCore, PreemptionEmitsPreemptAndCountsIt) {
  ScriptedHost host;
  rt::Core core(rt::CoreConfig{}, host);
  core.add_task(task(1000, 900, 100, 900, CritLevel::LO));
  core.add_task(task(1000, 200, 10, 200, CritLevel::LO));
  core.start();
  host.exec_time = {100, 10};

  core.on_release(0, 0);
  core.dispatch(0);
  core.run_for(50);
  core.on_release(1, 50);  // earlier deadline arrives mid-execution
  core.dispatch(50);
  EXPECT_EQ(core.counters().preemptions, 1u);
  const std::vector<rt::EventKind> kinds = host.kinds();
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[kinds.size() - 2], rt::EventKind::kPreempt);
  EXPECT_EQ(kinds.back(), rt::EventKind::kStart);
}
