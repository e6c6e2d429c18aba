/// Tests of the trace exporters: RFC-4180 CSV quoting (regression for
/// task names containing commas/quotes/newlines) and the Chrome
/// trace-event conversion (balanced B/E per lane, valid document).
#include "ftmc/sim/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {
namespace {

TEST(CsvEscape, PassesPlainFieldsThrough) {
  EXPECT_EQ(csv_escape("tau1"), "tau1");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("with space"), "with space");
}

TEST(CsvEscape, QuotesFieldsWithSeparatorsAndQuotes) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rreturn"), "\"cr\rreturn\"");
}

TEST(WriteTraceCsv, QuotesTaskNames) {
  // Regression: a name with a comma used to split the CSV row.
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kRelease, 0, 1, 0},
      {5, rt::EventKind::kStart, 0, 1, 1},
      {10, rt::EventKind::kComplete, 0, 1, 0},
  };
  std::ostringstream os;
  write_trace_csv(os, trace, {"nav, primary"});
  const std::string csv = os.str();

  EXPECT_NE(csv.find("\"nav, primary\""), std::string::npos);
  // Every data row still has exactly 5 commas outside quotes (6 fields).
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    int commas = 0;
    bool quoted = false;
    for (char ch : line) {
      if (ch == '"') quoted = !quoted;
      if (ch == ',' && !quoted) ++commas;
    }
    EXPECT_EQ(commas, 5) << "row: " << line;
  }
}

TEST(WriteTraceCsv, OmittedNamesStillProduceRows) {
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kRelease, 0, 1, 0}};
  std::ostringstream os;
  write_trace_csv(os, trace, {});
  EXPECT_NE(os.str().find("release"), std::string::npos);
}

/// Scans rendered Chrome events, asserting per-lane B/E balance and
/// filling `phases` with per-phase counts.
void check_balance(const std::vector<std::string>& events,
                   std::map<char, int>& phases) {
  std::map<int, int> depth;  // tid -> open spans
  for (const std::string& e : events) {
    const auto ph_pos = e.find("\"ph\":\"");
    ASSERT_NE(ph_pos, std::string::npos) << e;
    const char ph = e[ph_pos + 6];
    ++phases[ph];
    if (ph != 'B' && ph != 'E') continue;
    const auto tid_pos = e.find("\"tid\":");
    ASSERT_NE(tid_pos, std::string::npos);
    const int tid = std::stoi(e.substr(tid_pos + 6));
    int& d = depth[tid];
    d += ph == 'B' ? 1 : -1;
    ASSERT_GE(d, 0) << "E without B on tid " << tid << ": " << e;
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced lane tid " << tid;
  }
}

TEST(ChromeTraceExport, SyntheticTraceBalancesAndClosesOpenSpans) {
  const std::vector<rt::Event> trace = {
      {0, rt::EventKind::kRelease, 0, 1, 0},
      {0, rt::EventKind::kStart, 0, 1, 1},
      {3, rt::EventKind::kPreempt, 0, 1, 0},
      {3, rt::EventKind::kStart, 1, 1, 1},
      {7, rt::EventKind::kComplete, 1, 1, 0},
      {8, rt::EventKind::kModeSwitch, 0, 0, 0},
      {9, rt::EventKind::kStart, 0, 1, 2},
      // No closing event for task 0: the exporter must close it.
  };
  std::vector<std::string> events;
  append_trace_chrome_events(events, trace, {"tau1", "tau2"}, 1);

  std::map<char, int> phases;
  check_balance(events, phases);
  EXPECT_EQ(phases.at('B'), 3);
  EXPECT_EQ(phases.at('E'), 3);
  EXPECT_GT(phases.at('i'), 0);  // releases, completion, mode switch
  EXPECT_GT(phases.at('M'), 0);  // lane names
}

TEST(ChromeTraceExport, RealSimulationProducesAValidDocument) {
  // One simulated second of a two-task system with faults enabled.
  std::vector<rt::HostTask> tasks(2);
  tasks[0].name = "hi";
  tasks[0].period = 10'000;
  tasks[0].deadline = 10'000;
  tasks[0].wcet = 2'000;
  tasks[0].crit = CritLevel::HI;
  tasks[0].max_attempts = 3;
  tasks[0].adapt_threshold = 2;
  tasks[0].failure_prob = 0.05;
  tasks[0].virtual_deadline = 5'000;
  tasks[1].name = "lo";
  tasks[1].period = 20'000;
  tasks[1].deadline = 20'000;
  tasks[1].wcet = 5'000;
  tasks[1].crit = CritLevel::LO;
  tasks[1].max_attempts = 2;
  tasks[1].adapt_threshold = 2;
  tasks[1].failure_prob = 0.05;
  tasks[1].virtual_deadline = 20'000;

  SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  cfg.horizon = kTicksPerSecond;
  cfg.seed = 3;
  cfg.trace_capacity = 50'000;
  Simulator simulator(tasks, cfg);
  simulator.run();
  ASSERT_FALSE(simulator.trace().empty());

  std::vector<std::string> events;
  append_trace_chrome_events(events, simulator.trace(), {"hi", "lo"}, 1);
  std::map<char, int> phases;
  check_balance(events, phases);
  EXPECT_GT(phases['B'], 0);

  std::ostringstream os;
  write_trace_chrome_json(os, simulator.trace(), {"hi", "lo"});
  const std::string doc = os.str();
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
}

}  // namespace
}  // namespace ftmc::sim
