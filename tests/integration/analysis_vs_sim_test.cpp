/// Integration tests: the discrete-event simulator must respect the
/// analytical guarantees — empirical PFH below the Lemma 3.1/3.3 bounds,
/// no deadline misses for sets the schedulability analyses accept, and
/// mode-switch frequency consistent with 1 - R(N', t).
#include <gtest/gtest.h>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc {
namespace {

using core::FtTask;
using core::FtTaskSet;
using core::PerTaskProfile;

FtTask make(const std::string& name, Millis t, Millis c, Dal dal, double f) {
  return {name, t, t, c, dal, f};
}

/// A set that stays EDF-schedulable even with every job re-executed to its
/// full profile (so deadline misses cannot pollute the PFH comparison).
FtTaskSet light_set(double f) {
  return FtTaskSet({make("h", 100, 4, Dal::B, f),
                    make("l1", 80, 6, Dal::C, f),
                    make("l2", 120, 8, Dal::C, f)},
                   {Dal::B, Dal::C});
}

TEST(AnalysisVsSim, EmpiricalPfhBelowPlainBound) {
  // f = 0.01, n = 2 everywhere, no adaptation (n' = n): empirical
  // temporal-failure rate must stay below the Lemma 3.1 bound.
  const double f = 0.01;
  const FtTaskSet ts = light_set(f);
  const PerTaskProfile n = core::uniform_profile(ts, 2, 2);

  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdf;
  cfg.adaptation = AdaptationKind::kNone;
  cfg.horizon = 10 * sim::kTicksPerHour;
  cfg.seed = 17;
  sim::Simulator simulator(sim::build_sim_tasks(ts, 2, 2, 2, 1.0), cfg);
  const sim::SimStats stats = simulator.run();

  // No overload: every job must finish (successfully or by exhausting its
  // attempts) before its deadline.
  for (const auto& t : stats.per_task) {
    EXPECT_EQ(t.deadline_misses, 0u);
    EXPECT_EQ(t.killed, 0u);
  }

  const double bound_hi = core::pfh_plain(ts, n, CritLevel::HI);
  const double bound_lo = core::pfh_plain(ts, n, CritLevel::LO);
  const double emp_hi = simulator.empirical_pfh(stats, CritLevel::HI);
  const double emp_lo = simulator.empirical_pfh(stats, CritLevel::LO);
  // Bound ~ 3.6 failures/hour for HI, ~7.5 for LO at these magnitudes;
  // with 10 simulated hours the Poisson noise is well under the margin
  // built into the bound's worst-case round counting. Allow a small
  // statistical cushion on top of the bound.
  EXPECT_LE(emp_hi, bound_hi * 1.25 + 0.5);
  EXPECT_LE(emp_lo, bound_lo * 1.25 + 0.5);
  EXPECT_GT(emp_hi, 0.0);  // faults do happen at f = 1%
}

TEST(AnalysisVsSim, EdfVdScheduleHasNoMissesUnderWorstCaseFaults) {
  // Example 3.1 converted with n_HI = 3, n' = 2 passes EDF-VD; running it
  // with aggressive fault injection must produce zero deadline misses for
  // completed jobs (killed LO jobs are accounted separately).
  FtTaskSet ts({make("tau1", 60, 5, Dal::B, 0.05),
                make("tau2", 25, 4, Dal::B, 0.05),
                make("tau3", 40, 7, Dal::D, 0.05),
                make("tau4", 90, 6, Dal::D, 0.05),
                make("tau5", 70, 8, Dal::D, 0.05)},
               {Dal::B, Dal::D});
  const auto mc = core::convert_to_mc(ts, 3, 1, 2);
  const auto vd = mcs::analyze_edf_vd(mc);
  ASSERT_TRUE(vd.schedulable);

  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  cfg.adaptation = AdaptationKind::kKilling;
  cfg.horizon = sim::kTicksPerHour;
  cfg.seed = 5;
  sim::Simulator simulator(sim::build_sim_tasks(ts, 3, 1, 2, vd.x), cfg);
  const sim::SimStats stats = simulator.run();

  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(stats.per_task[i].deadline_misses, 0u)
        << "task " << ts[i].name;
  }
  // At f = 5% and n' = 2 the switch fires with probability 0.25% per HI
  // job; over ~200k HI jobs it certainly fired (and stays latched).
  EXPECT_EQ(stats.mode_switches, 1u);
}

TEST(AnalysisVsSim, ModeSwitchTimeConsistentWithSurvivalBound) {
  // P(switch within [0, t]) <= 1 - R(N', t). Pick f and n' so the switch
  // happens well inside the horizon, then check the analytical time at
  // which 1 - R reaches ~1 brackets the observed first switch.
  const double f = 0.2;
  FtTaskSet ts({make("h", 50, 2, Dal::B, f), make("l", 70, 2, Dal::D, f)},
               {Dal::B, Dal::D});
  const PerTaskProfile n_adapt = core::uniform_profile(ts, 1, 0);

  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  cfg.adaptation = AdaptationKind::kKilling;
  cfg.horizon = sim::kTicksPerHour;

  // Average the first switch time over independent seeds.
  double sum_first = 0.0;
  const int reps = 20;
  for (int rep = 0; rep < reps; ++rep) {
    cfg.seed = 100 + static_cast<std::uint64_t>(rep);
    sim::Simulator simulator(sim::build_sim_tasks(ts, 3, 1, 1, 1.0), cfg);
    const sim::SimStats stats = simulator.run();
    ASSERT_EQ(stats.mode_switches, 1u);
    sum_first += static_cast<double>(stats.first_mode_switch);
  }
  const double mean_first_ms =
      sum_first / reps / static_cast<double>(sim::kTicksPerMilli);

  // Geometric expectation: one round per 50 ms, trigger prob f = 0.2 per
  // round -> mean ~ 5 rounds ~ 250 ms. The analytical survival must agree:
  // R at the observed mean should be neither ~0 nor ~1.
  const double r_at_mean =
      core::survival_no_trigger(ts, n_adapt, mean_first_ms).linear();
  EXPECT_GT(r_at_mean, 0.05);
  EXPECT_LT(r_at_mean, 0.95);
}

TEST(AnalysisVsSim, KilledFractionBoundedByTriggerProbability) {
  // Over many short missions, the fraction of missions whose LO tasks got
  // killed must not exceed 1 - R(N', horizon) (Lemma 3.2) by more than
  // sampling noise.
  const double f = 0.05;
  FtTaskSet ts({make("h", 100, 5, Dal::B, f), make("l", 100, 5, Dal::D, f)},
               {Dal::B, Dal::D});
  const PerTaskProfile n_adapt = core::uniform_profile(ts, 2, 0);

  const Millis mission_ms = 10'000.0;  // 100 HI rounds
  const double p_bound =
      core::survival_no_trigger(ts, n_adapt, mission_ms)
          .complement()
          .linear();

  int killed_missions = 0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    sim::SimConfig cfg;
    cfg.policy = PolicyKind::kEdfVd;
    cfg.adaptation = AdaptationKind::kKilling;
    cfg.horizon = sim::millis_to_ticks(mission_ms);
    cfg.seed = 1000 + static_cast<std::uint64_t>(rep);
    sim::Simulator simulator(sim::build_sim_tasks(ts, 3, 1, 2, 1.0), cfg);
    if (simulator.run().mode_switches > 0) ++killed_missions;
  }
  const double observed = static_cast<double>(killed_missions) / reps;
  // 4-sigma cushion on the binomial sample.
  const double sigma = std::sqrt(p_bound * (1 - p_bound) / reps);
  EXPECT_LE(observed, p_bound + 4.0 * sigma + 1e-9);
  EXPECT_GT(observed, 0.0);  // the trigger does fire at these magnitudes
}

TEST(AnalysisVsSim, FtScheduleResultRunsCleanInSimulator) {
  // End-to-end: FT-S succeeds on Example 3.1 (f = 1e-5 as in the paper;
  // f = 1e-3 would push n_HI to 5 and U_HI^HI above 1) -> simulate the
  // chosen configuration under EDF-VD with worst-case execution times and
  // minimal inter-arrival times.
  FtTaskSet ts({make("tau1", 60, 5, Dal::B, 1e-5),
                make("tau2", 25, 4, Dal::B, 1e-5),
                make("tau3", 40, 7, Dal::D, 1e-5),
                make("tau4", 90, 6, Dal::D, 1e-5),
                make("tau5", 70, 8, Dal::D, 1e-5)},
               {Dal::B, Dal::D});
  core::FtsConfig fts_cfg;
  fts_cfg.adaptation.kind = AdaptationKind::kKilling;
  fts_cfg.adaptation.os_hours = 1.0;
  const core::FtsResult r = core::ft_schedule(ts, fts_cfg);
  ASSERT_TRUE(r.success) << core::to_string(r.failure);

  const auto vd = mcs::analyze_edf_vd(r.converted);
  ASSERT_TRUE(vd.schedulable);

  sim::SimConfig cfg;
  cfg.policy = PolicyKind::kEdfVd;
  cfg.adaptation = AdaptationKind::kKilling;
  cfg.horizon = sim::kTicksPerHour / 2;
  cfg.seed = 11;
  sim::Simulator simulator(
      sim::build_sim_tasks(ts, r.n_hi, r.n_lo, r.n_adapt, vd.x), cfg);
  const sim::SimStats stats = simulator.run();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(stats.per_task[i].deadline_misses, 0u)
        << "task " << ts[i].name;
  }
}

}  // namespace
}  // namespace ftmc
