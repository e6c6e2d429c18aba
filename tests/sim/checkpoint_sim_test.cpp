/// Tests of checkpointed execution in the simulator, including empirical
/// validation of the core::checkpointing analysis (the negative-binomial
/// job failure probability and the worst-case budget).
#include <gtest/gtest.h>

#include "ftmc/core/checkpointing.hpp"
#include "ftmc/sim/monte_carlo.hpp"

namespace ftmc::sim {
namespace {

rt::HostTask ckpt_task(Tick period, Tick wcet, int segments, int retry_budget,
                       double f, double overhead = 0.0) {
  rt::HostTask t;
  t.name = "c";
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = CritLevel::LO;
  t.max_attempts = retry_budget + 1;  // total faults allowed = R
  t.adapt_threshold = retry_budget + 1;
  t.failure_prob = f;
  t.virtual_deadline = period;
  t.segments = segments;
  t.checkpoint_overhead = overhead;
  return t;
}

SimConfig edf(Tick horizon, std::uint64_t seed = 1) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = horizon;
  c.seed = seed;
  return c;
}

TEST(CheckpointSim, FaultFreeJobTakesFullWcetInSegments) {
  // 4 segments of 250 each, no overhead: completion at 1000 as if whole.
  Simulator sim({ckpt_task(10'000, 1'000, 4, 2, 0.0)}, edf(10'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].completed, 1u);
  EXPECT_EQ(s.per_task[0].attempts, 4u);  // four segment executions
  EXPECT_EQ(s.per_task[0].max_response, 1'000);
  EXPECT_EQ(s.busy_time, 1'000);
}

TEST(CheckpointSim, OverheadExtendsResponse) {
  // 2 segments, 10% overhead: each segment 500 + 100 -> response 1200.
  Simulator sim({ckpt_task(10'000, 1'000, 2, 1, 0.0, 0.1)}, edf(10'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].max_response, 1'200);
}

TEST(CheckpointSim, RetryRerunsOnlyOneSegment) {
  // Deterministic-ish check via busy time accounting: with k segments,
  // every fault adds exactly one segment of work.
  Simulator sim({ckpt_task(100'000, 1'000, 4, 8, 0.3)},
                edf(100'000'000, 9));
  const SimStats s = sim.run();
  const auto& t = s.per_task[0];
  // busy = attempts * segment length (250).
  EXPECT_EQ(s.busy_time, static_cast<Tick>(t.attempts) * 250);
  EXPECT_GT(t.faults, 0u);
}

TEST(CheckpointSim, SegmentFaultRateMatchesDerivedProbability) {
  // f = 0.4 over 4 segments -> q = 1 - 0.6^(1/4) ~ 0.1199. Check the
  // observed per-segment fault rate against it (4-sigma band).
  const double f = 0.4;
  const int k = 4;
  Simulator sim({ckpt_task(10'000, 1'000, k, 50, f)},
                edf(100'000'000, 3));
  const SimStats s = sim.run();
  const double q_true = core::segment_failure_prob(f, k);
  const double n = static_cast<double>(s.per_task[0].attempts);
  const double observed = static_cast<double>(s.per_task[0].faults) / n;
  const double sigma = std::sqrt(q_true * (1 - q_true) / n);
  EXPECT_NEAR(observed, q_true, 4.0 * sigma);
}

TEST(CheckpointSim, JobFailureRateMatchesNegativeBinomialBound) {
  // f = 0.5, k = 2, R = 2: analysis gives the exact failure probability;
  // the empirical rate over ~100k jobs must bracket it.
  const double f = 0.5;
  const core::CheckpointScheme scheme{2, 2, 0.0};
  const double p_true = core::checkpointed_job_failure_prob(f, scheme);

  MonteCarloOptions opt;
  opt.missions = 20;
  opt.mission_length = 50'000'000;  // 5000 jobs per mission
  SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  const MonteCarloResult r = monte_carlo_campaign(
      {ckpt_task(10'000, 100, 2, 2, f)}, cfg, opt);
  EXPECT_GE(p_true, r.job_failure_lo.wilson_lower());
  EXPECT_LE(p_true, r.job_failure_lo.wilson_upper());
  EXPECT_GT(r.job_failure_lo.successes, 100u);  // the event is not rare
}

TEST(CheckpointSim, MoreSegmentsRecoverMoreJobsAtEqualBudget) {
  // Same total fault budget R = 2, same f: splitting into segments can
  // only help (a fault costs 1/k of the work instead of all of it) —
  // here it shows as fewer deadline overruns under tight deadlines and
  // at least as many completions.
  const double f = 0.3;
  const auto run = [&](int k) {
    Simulator sim({ckpt_task(2'000, 1'000, k, 2, f)},
                  edf(100'000'000, 11));
    return sim.run().per_task[0];
  };
  const rt::TaskCounters whole = run(1);
  const rt::TaskCounters split = run(4);
  EXPECT_GE(split.completed, whole.completed);
  EXPECT_LE(split.deadline_misses, whole.deadline_misses);
}

TEST(CheckpointSim, WorstCaseBudgetNeverExceeded) {
  // No job may consume more than the checkpointed WCET of the analysis.
  const core::FtTask analysis_task{"c", 10.0, 10.0, 1.0, Dal::C, 0.3};
  const core::CheckpointScheme scheme{4, 3, 0.05};
  const Tick budget =
      millis_to_ticks(core::checkpointed_wcet(analysis_task, scheme));

  SimConfig cfg = edf(10'000'000, 21);
  Simulator sim({ckpt_task(10'000, 1'000, 4, 3, 0.3, 0.05)}, cfg);
  const SimStats s = sim.run();
  // Single task, no preemption: max response = max per-job demand.
  EXPECT_LE(s.per_task[0].max_response, budget);
  EXPECT_GT(s.per_task[0].faults, 0u);
}

TEST(CheckpointSim, RejectsMalformedSegments) {
  rt::HostTask bad = ckpt_task(10'000, 1'000, 0, 1, 0.1);
  EXPECT_THROW(Simulator({bad}, edf(1'000)), ContractViolation);
  bad = ckpt_task(10'000, 1'000, 2, 1, 0.1);
  bad.checkpoint_overhead = 1.0;
  EXPECT_THROW(Simulator({bad}, edf(1'000)), ContractViolation);
}

}  // namespace
}  // namespace ftmc::sim
