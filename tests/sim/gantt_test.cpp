#include "ftmc/sim/gantt.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ftmc/common/contracts.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {
namespace {

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(Gantt, RendersHandcraftedTrace) {
  // Task 0 runs [0, 50), task 1 runs [50, 100).
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kStart, 0, 0, 1},
      {50, rt::EventKind::kComplete, 0, 0, 0},
      {50, rt::EventKind::kStart, 1, 0, 1},
      {100, rt::EventKind::kComplete, 1, 0, 0},
  };
  GanttOptions opt;
  opt.from = 0;
  opt.to = 100;
  opt.width = 10;
  const auto out = lines(render_gantt(trace, {"a", "b"}, opt));
  ASSERT_EQ(out.size(), 4u);  // header + 2 tasks + mode row
  EXPECT_EQ(out[1], "a    |#####.....|");
  EXPECT_EQ(out[2], "b    |.....#####|");
  EXPECT_EQ(out[3], "mode |..........|");
}

TEST(Gantt, PreemptionSplitsExecution) {
  // Task 0 runs [0,30), preempted by task 1 [30,60), resumes [60,90).
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kStart, 0, 0, 1},
      {30, rt::EventKind::kPreempt, 0, 0, 0},
      {30, rt::EventKind::kStart, 1, 0, 1},
      {60, rt::EventKind::kComplete, 1, 0, 0},
      {60, rt::EventKind::kStart, 0, 0, 1},
      {90, rt::EventKind::kComplete, 0, 0, 0},
  };
  GanttOptions opt;
  opt.from = 0;
  opt.to = 90;
  opt.width = 9;
  const auto out = lines(render_gantt(trace, {"lo", "hi"}, opt));
  EXPECT_EQ(out[1], "lo   |###...###|");
  EXPECT_EQ(out[2], "hi   |...###...|");
}

TEST(Gantt, MarksKillAndModeSwitch) {
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kStart, 0, 0, 1},
      {40, rt::EventKind::kModeSwitch, 0, 0, 0},
      {40, rt::EventKind::kKill, 1, 0, 0},
      {80, rt::EventKind::kComplete, 0, 0, 0},
  };
  GanttOptions opt;
  opt.from = 0;
  opt.to = 80;
  opt.width = 8;
  const std::string text = render_gantt(trace, {"hi", "victim"}, opt);
  EXPECT_NE(text.find("victim |....X...|"), std::string::npos);
  EXPECT_NE(text.find("mode   |....!HHH|"), std::string::npos);
}

TEST(Gantt, ModeResetClosesHiRegion) {
  const std::vector<rt::Event> trace = {
      {10, rt::EventKind::kModeSwitch, 0, 0, 0},
      {50, rt::EventKind::kModeReset, 0, 0, 0},
  };
  GanttOptions opt;
  opt.from = 0;
  opt.to = 100;
  opt.width = 10;
  const std::string text = render_gantt(trace, {"t"}, opt);
  EXPECT_NE(text.find("mode |.!HHH.....|"), std::string::npos);
}

TEST(Gantt, WindowClipsEvents) {
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kStart, 0, 0, 1},
      {1000, rt::EventKind::kComplete, 0, 0, 0},
  };
  GanttOptions opt;
  opt.from = 200;
  opt.to = 400;
  opt.width = 10;
  const auto out = lines(render_gantt(trace, {"t"}, opt));
  EXPECT_EQ(out[1], "t    |##########|");  // running across the window
}

TEST(Gantt, RealTraceFromSimulator) {
  rt::HostTask a;
  a.name = "a";
  a.period = 1000;
  a.deadline = 1000;
  a.wcet = 400;
  a.virtual_deadline = 1000;
  rt::HostTask b;
  b.name = "b";
  b.period = 500;
  b.wcet = 100;
  b.deadline = 500;
  b.virtual_deadline = 500;
  SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  cfg.horizon = 2000;
  cfg.trace_capacity = 1000;
  Simulator sim({a, b}, cfg);
  sim.run();
  GanttOptions opt;
  opt.from = 0;
  opt.to = 2000;
  opt.width = 40;
  const std::string text = render_gantt(sim.trace(), {"a", "b"}, opt);
  // Both tasks executed; total '#' columns roughly match utilization.
  const auto out = lines(text);
  const auto hashes = [](const std::string& row) {
    return std::count(row.begin(), row.end(), '#');
  };
  EXPECT_GT(hashes(out[1]), 10);  // a: 0.4 of 40 cols ~ 16
  EXPECT_GT(hashes(out[2]), 4);   // b: 0.2 of 40 cols ~ 8
}

TEST(Gantt, RejectsDegenerateWindow) {
  GanttOptions opt;
  opt.from = 10;
  opt.to = 10;
  EXPECT_THROW((void)render_gantt({}, {"t"}, opt), ContractViolation);
  opt.to = 20;
  opt.width = 1;
  EXPECT_THROW((void)render_gantt({}, {"t"}, opt), ContractViolation);
}

TEST(Gantt, EmptyTraceStillRendersRows) {
  GanttOptions opt;
  opt.from = 0;
  opt.to = 100;
  opt.width = 5;
  const auto out = lines(render_gantt({}, {"t"}, opt));
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[1], "t    |.....|");
}

}  // namespace
}  // namespace ftmc::sim
