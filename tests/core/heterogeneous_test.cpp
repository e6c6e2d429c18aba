#include "ftmc/core/heterogeneous.hpp"

#include <gtest/gtest.h>

#include "ftmc/common/contracts.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"

namespace ftmc::core {
namespace {

FtTask make(const std::string& name, Millis t, Millis c, Dal dal,
            double f = 1e-5) {
  return {name, t, t, c, dal, f};
}

FtTaskSet example31() {
  return FtTaskSet({make("tau1", 60, 5, Dal::B), make("tau2", 25, 4, Dal::B),
                    make("tau3", 40, 7, Dal::D), make("tau4", 90, 6, Dal::D),
                    make("tau5", 70, 8, Dal::D)},
                   {Dal::B, Dal::D});
}

AdaptationModel killing(double os = 1.0) {
  AdaptationModel m;
  m.kind = AdaptationKind::kKilling;
  m.os_hours = os;
  return m;
}

TEST(AdaptationBudget, KillingClosedForm) {
  // u_lo_lo = 0.4, u_hi_hi = 0.7: budget = min(0.6, 0.3*0.6/0.4) = 0.45.
  EXPECT_NEAR(
      adaptation_budget(0.4, 0.7, AdaptationKind::kKilling, 1.0), 0.45,
      1e-12);
}

TEST(AdaptationBudget, KillingNoLoTasksBudgetIsLoBranch) {
  EXPECT_NEAR(
      adaptation_budget(0.0, 0.7, AdaptationKind::kKilling, 1.0), 1.0,
      1e-12);
}

TEST(AdaptationBudget, DegradationClosedForm) {
  // u_lo_lo = 0.4, u_hi_hi = 0.5, df = 6: residual = 1 - 0.08 = 0.92;
  // lambda_max = 1 - 0.5/0.92; budget = min(0.6, lambda_max * 0.6).
  const double lambda_max = 1.0 - 0.5 / 0.92;
  EXPECT_NEAR(adaptation_budget(0.4, 0.5,
                                AdaptationKind::kDegradation, 6.0),
              lambda_max * 0.6, 1e-12);
}

TEST(AdaptationBudget, InfeasibleCasesNegative) {
  EXPECT_LT(adaptation_budget(1.1, 0.1, AdaptationKind::kKilling, 1.0),
            0.0);
  EXPECT_LT(adaptation_budget(0.4, 1.2, AdaptationKind::kKilling, 1.0),
            0.0);
  // df so small the degraded LO load alone saturates: 0.9/(1.5-1) = 1.8.
  EXPECT_LT(adaptation_budget(0.9, 0.1,
                              AdaptationKind::kDegradation, 1.5),
            0.0);
}

TEST(AdaptationBudget, RejectsNoneKind) {
  EXPECT_THROW(
      (void)adaptation_budget(0.4, 0.5, AdaptationKind::kNone, 1.0),
      ContractViolation);
}

TEST(AdaptationBudget, BudgetMatchesUmcBoundary) {
  // Consuming exactly the budget lands U_MC at 1 (up to rounding); a hair
  // more exceeds it.
  const double u_lo_lo = 0.36, u_hi_hi = 0.6;
  const double budget =
      adaptation_budget(u_lo_lo, u_hi_hi, AdaptationKind::kKilling, 1.0);
  EXPECT_LE(mcs::edf_vd_umc(u_lo_lo, budget, u_hi_hi), 1.0 + 1e-9);
  EXPECT_GT(mcs::edf_vd_umc(u_lo_lo, budget + 1e-6, u_hi_hi), 1.0);
}

TEST(Heterogeneous, Example31AllocationIsSchedulable) {
  const FtTaskSet ts = example31();
  const auto r = optimize_adaptation_profiles(
      ts, 3, 1, killing(), SafetyRequirements::do178b());
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.budget_used, r.budget + 1e-9);
  // The converted set with the heterogeneous profiles passes EDF-VD.
  const PerTaskProfile n = uniform_profile(ts, 3, 1);
  const auto mc = convert_to_mc(ts, n, r.n_adapt);
  EXPECT_TRUE(mcs::EdfVdTest{}.schedulable(mc));
}

TEST(Heterogeneous, ProfilesRespectCaps) {
  const FtTaskSet ts = example31();
  const auto r = optimize_adaptation_profiles(
      ts, 3, 1, killing(), SafetyRequirements::do178b());
  ASSERT_TRUE(r.feasible);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) == CritLevel::HI) {
      EXPECT_GE(r.n_adapt[i], 0);
      EXPECT_LE(r.n_adapt[i], 3);
    } else {
      EXPECT_EQ(r.n_adapt[i], 0);
    }
  }
}

TEST(Heterogeneous, DominatesBestUniformProfile) {
  // The greedy result must be at least as safe as any uniform profile
  // n' whose budget fits (the uniform allocation is a reachable point).
  const FtTaskSet ts = example31();
  const AdaptationModel model = killing();
  const auto r = optimize_adaptation_profiles(ts, 3, 1, model,
                                              SafetyRequirements::do178b());
  ASSERT_TRUE(r.feasible);
  const double u_hi = ts.utilization(CritLevel::HI);
  for (int uniform = 0; uniform <= 3; ++uniform) {
    if (uniform * u_hi > r.budget + 1e-12) continue;  // not admissible
    const double uniform_pfh =
        pfh_lo_under_adaptation(ts, 3, 1, uniform, model);
    EXPECT_LE(r.pfh_lo, uniform_pfh * (1.0 + 1e-9))
        << "uniform n' = " << uniform;
  }
}

TEST(Heterogeneous, FmsDegradationStaysSafe) {
  const FtTaskSet fms = fms::canonical_fms_instance();
  AdaptationModel model;
  model.kind = AdaptationKind::kDegradation;
  model.degradation_factor = fms::kFmsDegradationFactor;
  model.os_hours = fms::kFmsOperationHours;
  const auto r = optimize_adaptation_profiles(
      fms, 3, 2, model, SafetyRequirements::do178b());
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.safe);
  EXPECT_LT(r.pfh_lo, 1e-5);
  // Schedulable under the degradation test with the implied U_HI^LO.
  const PerTaskProfile n = uniform_profile(fms, 3, 2);
  const auto mc = convert_to_mc(fms, n, r.n_adapt);
  EXPECT_TRUE(mcs::EdfVdDegradationTest{fms::kFmsDegradationFactor}
                  .schedulable(mc));
}

TEST(Heterogeneous, InfeasibleLoadReported) {
  FtTaskSet ts({make("h", 10, 6, Dal::B), make("l", 10, 6, Dal::D)},
               {Dal::B, Dal::D});
  const auto r = optimize_adaptation_profiles(
      ts, 2, 1, killing(), SafetyRequirements::do178b());
  EXPECT_FALSE(r.feasible);  // u_hi_hi = 1.2 alone exceeds the processor
}

TEST(Heterogeneous, BudgetUsedNeverExceedsBudget) {
  const FtTaskSet fms = fms::canonical_fms_instance();
  const auto r = optimize_adaptation_profiles(
      fms, 3, 2, killing(fms::kFmsOperationHours),
      SafetyRequirements::do178b());
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.budget_used, r.budget + 1e-9);
  EXPECT_GE(r.steps, 0);
}

}  // namespace
}  // namespace ftmc::core
