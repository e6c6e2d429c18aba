/// Randomized end-to-end cross-validation of the *schedulability* claims:
/// whatever configuration FT-S accepts must run without deadline misses in
/// the discrete-event simulator under worst-case conditions (synchronous
/// releases, full-WCET attempts, adversarial fault injection). This is the
/// strongest check in the suite — an unsound schedulability test or a
/// scheduler bug in the simulator shows up here as a concrete miss.
#include <gtest/gtest.h>

#include <algorithm>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc {
namespace {

struct Scenario {
  double utilization;
  AdaptationKind kind;
  std::uint64_t seed;
};

class AcceptedSystems : public ::testing::TestWithParam<Scenario> {};

TEST_P(AcceptedSystems, NoMissesUnderWorstCaseFaultInjection) {
  const Scenario scenario = GetParam();
  taskgen::GeneratorParams params;
  params.target_utilization = scenario.utilization;
  // Inflate f so that re-executions and mode switches actually occur in
  // a short horizon; keep LO at level D so FT-S accepts with killing.
  params.failure_prob = 0.02;
  params.mapping = {Dal::B, Dal::D};
  taskgen::Rng rng(scenario.seed);

  int simulated = 0;
  for (int attempt = 0; attempt < 60 && simulated < 4; ++attempt) {
    const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
    core::FtsConfig cfg;
    cfg.adaptation.kind = scenario.kind;
    cfg.adaptation.degradation_factor = 6.0;
    cfg.adaptation.os_hours = 1.0;
    const core::FtsResult plan = core::ft_schedule(ts, cfg);
    if (!plan.success) continue;
    ++simulated;

    double x = 1.0;
    if (plan.n_adapt < plan.n_hi) {
      const auto vd = mcs::analyze_edf_vd(plan.converted);
      ASSERT_TRUE(vd.schedulable);
      // n' = 0 yields x = 0 (no LO-mode HI budget at all); the simulator
      // needs a positive virtual deadline, and with the switch firing at
      // the first HI release its exact value is immaterial.
      x = std::clamp(vd.x, 0.001, 1.0);
    }
    sim::SimConfig sim_cfg;
    sim_cfg.policy = PolicyKind::kEdfVd;
    sim_cfg.adaptation = scenario.kind;
    sim_cfg.degradation_factor = 6.0;
    sim_cfg.horizon = sim::kTicksPerHour / 20;  // 3 simulated minutes
    sim_cfg.seed = scenario.seed + static_cast<std::uint64_t>(attempt);
    sim::Simulator simulator(
        sim::build_sim_tasks(ts, plan.n_hi, plan.n_lo, plan.n_adapt, x),
        sim_cfg);
    const sim::SimStats stats = simulator.run();

    for (std::size_t i = 0; i < ts.size(); ++i) {
      // HI tasks must never miss. LO tasks: under killing they are
      // killed, not late; under degradation the accepted analysis covers
      // their stretched arrivals too.
      EXPECT_EQ(stats.per_task[i].deadline_misses, 0u)
          << "task " << ts[i].name << " (U = " << scenario.utilization
          << ", kind = " << static_cast<int>(scenario.kind) << ")";
    }
  }
  // The scenarios are tuned so acceptance happens at these utilizations.
  EXPECT_GT(simulated, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AcceptedSystems,
    ::testing::Values(
        Scenario{0.3, AdaptationKind::kKilling, 101},
        Scenario{0.5, AdaptationKind::kKilling, 202},
        Scenario{0.7, AdaptationKind::kKilling, 303},
        Scenario{0.3, AdaptationKind::kDegradation, 404},
        Scenario{0.5, AdaptationKind::kDegradation, 505},
        Scenario{0.7, AdaptationKind::kDegradation, 606}));

}  // namespace
}  // namespace ftmc
