// Regression test of the documented ready-queue total order
// (core.hpp, Core::job_before):
//   1. job_key   — effective (virtual) deadline, the EDF-VD rule
//   2. criticality — HI before LO
//   3. task id   — table order
//   4. job id    — FIFO within a task
// Every host must replay the same schedule, so this order is part of the
// trace-replay contract and must never change silently.
#include "ftmc/rt/core.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rt = ftmc::rt;
using ftmc::CritLevel;
using rt::Tick;

namespace {

class OrderHost final : public rt::Host {
 public:
  std::vector<rt::Event> starts;

  Tick sample_segment_time(std::uint32_t) override { return 10; }
  bool sample_fault(std::uint32_t, int) override { return false; }
  void emit(const rt::Event& event) override {
    if (event.kind == rt::EventKind::kStart) starts.push_back(event);
  }
};

rt::TaskParams task(Tick deadline, CritLevel crit, int priority = 0) {
  rt::TaskParams p;
  p.period = 10'000;
  p.deadline = deadline;
  p.wcet = 10;
  p.virtual_deadline = deadline;
  p.crit = crit;
  p.max_attempts = 2;
  p.adapt_threshold = 99;  // never switch: this test is about ordering
  p.priority = priority;
  return p;
}

// Drains the ready set one completed job at a time and returns the
// (task, job) start order.
std::vector<std::pair<std::uint32_t, std::uint64_t>> drain(rt::Core& core,
                                                           OrderHost& host) {
  Tick now = 0;
  while (core.has_ready()) {
    core.dispatch(now);
    core.run_for(10);
    now += 10;
    core.on_segment_boundary(now);
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  order.reserve(host.starts.size());
  for (const rt::Event& e : host.starts) order.emplace_back(e.task, e.job);
  return order;
}

}  // namespace

TEST(RtTieBreak, EarlierKeyDominatesEverything) {
  // A LO job with the earlier deadline beats a HI job with a later one:
  // criticality is only a tie-breaker, never a priority boost.
  OrderHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdf;
  rt::Core core(cfg, host);
  core.add_task(task(500, CritLevel::HI));
  core.add_task(task(100, CritLevel::LO));
  core.start();
  core.on_release(0, 0);
  core.on_release(1, 0);
  const auto order = drain(core, host);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 1u);  // LO, deadline 100
  EXPECT_EQ(order[1].first, 0u);  // HI, deadline 500
}

TEST(RtTieBreak, EqualKeyHiBeforeLo) {
  // Equal deadlines: HI first, even though the LO task has the lower
  // task id (so this really is the criticality rule, not table order).
  OrderHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdf;
  rt::Core core(cfg, host);
  core.add_task(task(100, CritLevel::LO));
  core.add_task(task(100, CritLevel::HI));
  core.start();
  core.on_release(0, 0);
  core.on_release(1, 0);
  const auto order = drain(core, host);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 1u);  // HI
  EXPECT_EQ(order[1].first, 0u);  // LO
}

TEST(RtTieBreak, EqualKeyEqualCritLowerTaskIdFirst) {
  OrderHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdf;
  rt::Core core(cfg, host);
  core.add_task(task(100, CritLevel::LO));
  core.add_task(task(100, CritLevel::LO));
  core.add_task(task(100, CritLevel::LO));
  core.start();
  // Release in reverse table order to prove insertion order is irrelevant.
  core.on_release(2, 0);
  core.on_release(1, 0);
  core.on_release(0, 0);
  const auto order = drain(core, host);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].first, 0u);
  EXPECT_EQ(order[1].first, 1u);
  EXPECT_EQ(order[2].first, 2u);
}

TEST(RtTieBreak, SameTaskFifoByJobId) {
  // Two jobs of the same task with identical keys (fixed-priority policy
  // keys every job of a task identically): earlier job id runs first.
  OrderHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kFixedPriority;
  rt::Core core(cfg, host);
  core.add_task(task(1000, CritLevel::LO, /*priority=*/5));
  core.start();
  core.on_release(0, 0);
  core.on_release(0, 0);  // backlogged second job, same key
  const auto order = drain(core, host);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (std::pair<std::uint32_t, std::uint64_t>{0u, 0u}));
  EXPECT_EQ(order[1], (std::pair<std::uint32_t, std::uint64_t>{0u, 1u}));
}

TEST(RtTieBreak, EdfVdTieOnVirtualDeadline) {
  // EDF-VD in LO mode keys HI jobs by release + VD. A HI job whose
  // virtual deadline coincides with a LO job's true deadline ties on the
  // key and the HI job wins.
  OrderHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdfVd;
  rt::Core core(cfg, host);
  rt::TaskParams lo = task(300, CritLevel::LO);
  rt::TaskParams hi = task(600, CritLevel::HI);
  hi.virtual_deadline = 300;  // ties with the LO deadline
  core.add_task(lo);
  core.add_task(hi);
  core.start();
  core.on_release(0, 0);
  core.on_release(1, 0);
  const auto order = drain(core, host);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 1u);  // HI at its virtual deadline key
  EXPECT_EQ(order[1].first, 0u);
}

TEST(RtTieBreak, JobBeforeIsAStrictTotalOrderOnTheReadySet) {
  // Pairwise sanity over a mixed ready set: irreflexive, antisymmetric,
  // and total (exactly one of a<b / b<a for distinct jobs).
  OrderHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdf;
  rt::Core core(cfg, host);
  core.add_task(task(100, CritLevel::LO));
  core.add_task(task(100, CritLevel::HI));
  core.add_task(task(200, CritLevel::LO));
  core.start();
  core.on_release(0, 0);
  core.on_release(0, 0);
  core.on_release(1, 0);
  core.on_release(2, 0);
  // Slots 0..3 are live (fresh core, no recycling yet).
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_FALSE(core.job_before(a, a));
    for (std::size_t b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_NE(core.job_before(a, b), core.job_before(b, a))
          << "slots " << a << " and " << b;
    }
  }
}
