/// Tests for the simulator extensions: response-time statistics, random
/// initial phasing, and CSV trace export.
#include <gtest/gtest.h>

#include <sstream>

#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {
namespace {

rt::HostTask task(const std::string& name, Tick period, Tick wcet,
                  double f = 0.0) {
  rt::HostTask t;
  t.name = name;
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = CritLevel::LO;
  t.max_attempts = 1;
  t.adapt_threshold = 1;
  t.failure_prob = f;
  t.virtual_deadline = period;
  return t;
}

SimConfig edf(Tick horizon) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = horizon;
  return c;
}

TEST(ResponseTimes, SingleTaskResponseIsWcet) {
  Simulator sim({task("t", 1000, 100)}, edf(100'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].max_response, 100);
  EXPECT_DOUBLE_EQ(s.per_task[0].avg_response(), 100.0);
}

TEST(ResponseTimes, InterferenceInflatesLowerPriorityResponse) {
  // Short task (D=200) preempts the long one at each of its releases
  // 0..600; at t=800 the short job's absolute deadline (1000) ties the
  // long job's, and EDF breaks the tie toward the earlier release — the
  // long job finishes at 900 (response 900), the t=800 short job at 1000
  // (response 200).
  Simulator sim({task("long", 1000, 500), task("short", 200, 100)},
                edf(100'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].max_response, 900);
  EXPECT_EQ(s.per_task[1].max_response, 200);
  EXPECT_GE(s.per_task[0].avg_response(), 500.0);
}

TEST(ResponseTimes, MaxResponseBoundsAvg) {
  Simulator sim({task("a", 700, 150), task("b", 1100, 250)},
                edf(10'000'000));
  const SimStats s = sim.run();
  for (const auto& t : s.per_task) {
    EXPECT_GE(static_cast<double>(t.max_response), t.avg_response());
  }
}

TEST(ResponseTimes, ZeroWhenNothingCompletes) {
  rt::TaskCounters fresh;
  EXPECT_DOUBLE_EQ(fresh.avg_response(), 0.0);
}

TEST(RandomPhasing, FirstReleasesSpreadOut) {
  SimConfig c = edf(10'000);
  c.random_phasing = true;
  c.seed = 5;
  c.trace_capacity = 100;
  Simulator sim({task("a", 5000, 10), task("b", 5000, 10),
                 task("c", 5000, 10)},
                c);
  sim.run();
  // Collect first release times; with 3 tasks and T = 5000 us the chance
  // of all three drawing 0 is (1/5000)^3 — effectively never.
  std::vector<Tick> first(3, -1);
  for (const auto& ev : sim.trace()) {
    if (ev.kind == rt::EventKind::kRelease && first[ev.task] < 0) {
      first[ev.task] = ev.time;
    }
  }
  EXPECT_TRUE(first[0] != first[1] || first[1] != first[2]);
  for (const Tick t : first) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 5000);
  }
}

TEST(RandomPhasing, DisabledMeansSynchronous) {
  SimConfig c = edf(10'000);
  c.trace_capacity = 100;
  Simulator sim({task("a", 5000, 10), task("b", 3000, 10)}, c);
  sim.run();
  for (const auto& ev : sim.trace()) {
    if (ev.kind == rt::EventKind::kRelease && ev.job == 0) {
      EXPECT_EQ(ev.time, 0);
    }
  }
}

TEST(RandomPhasing, PhasedRunStillCompletesAllJobs) {
  SimConfig c = edf(10'000'000);
  c.random_phasing = true;
  c.seed = 9;
  Simulator sim({task("a", 1000, 200), task("b", 1700, 300)}, c);
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
  EXPECT_GT(s.per_task[0].completed, 9'000u);
}

TEST(TraceCsv, WellFormedOutput) {
  SimConfig c = edf(3'000);
  c.trace_capacity = 1000;
  Simulator sim({task("alpha", 1000, 100)}, c);
  sim.run();
  std::ostringstream os;
  write_trace_csv(os, sim.trace(), {"alpha"});
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("time_us,kind,task,task_name,job,detail\n", 0), 0u);
  EXPECT_NE(text.find("release,0,alpha,0"), std::string::npos);
  EXPECT_NE(text.find("complete,0,alpha"), std::string::npos);
  // Row count = header + trace size.
  const auto rows = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(rows), sim.trace().size() + 1);
}

TEST(TraceCsv, MissingNamesLeftEmpty) {
  std::ostringstream os;
  write_trace_csv(os, {{5, rt::EventKind::kStart, 2, 7, 1}}, {});
  EXPECT_NE(os.str().find("5,start,2,,7,1"), std::string::npos);
}

}  // namespace
}  // namespace ftmc::sim
