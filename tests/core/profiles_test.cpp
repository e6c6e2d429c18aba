#include "ftmc/core/profiles.hpp"

#include <gtest/gtest.h>

#include "ftmc/common/contracts.hpp"

namespace ftmc::core {
namespace {

FtTask make(const std::string& name, Millis t, Millis c, Dal dal, double f) {
  return {name, t, t, c, dal, f};
}

FtTaskSet example31(Dal lo = Dal::D) {
  return FtTaskSet({make("tau1", 60, 5, Dal::B, 1e-5),
                    make("tau2", 25, 4, Dal::B, 1e-5),
                    make("tau3", 40, 7, lo, 1e-5),
                    make("tau4", 90, 6, lo, 1e-5),
                    make("tau5", 70, 8, lo, 1e-5)},
                   {Dal::B, lo});
}

TEST(MinReexecProfile, Example31NeedsThreeExecutions) {
  // Paper Sec. 3.2: "for the HI criticality tasks, we can derive according
  // to (2) their minimal re-execution profiles: n1 = n2 = 3".
  const auto reqs = SafetyRequirements::do178b();
  const auto n = min_reexec_profile(example31(), CritLevel::HI, reqs);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 3);
}

TEST(MinReexecProfile, UnconstrainedLoLevelNeedsOneExecution) {
  // Level D tasks are not safety-related: n3 = n4 = n5 = 1.
  const auto reqs = SafetyRequirements::do178b();
  const auto n = min_reexec_profile(example31(Dal::D), CritLevel::LO, reqs);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1);
}

TEST(MinReexecProfile, LevelCLoTasksNeedReexecution) {
  // With LO = C the requirement pfh < 1e-5 forces n_LO >= 2:
  // ~181k rounds/hour at f = 1e-5 gives 1.8 at n=1, 1.8e-5 at n=2... so 3.
  const auto reqs = SafetyRequirements::do178b();
  const auto n = min_reexec_profile(example31(Dal::C), CritLevel::LO, reqs);
  ASSERT_TRUE(n.has_value());
  EXPECT_GT(*n, 1);
  // Verify minimality: the profile below fails, this one passes.
  const FtTaskSet ts = example31(Dal::C);
  EXPECT_FALSE(reqs.satisfied(
      Dal::C, pfh_plain(ts, PerTaskProfile(ts.size(), *n - 1),
                        CritLevel::LO)));
  EXPECT_TRUE(reqs.satisfied(
      Dal::C,
      pfh_plain(ts, PerTaskProfile(ts.size(), *n), CritLevel::LO)));
}

TEST(MinReexecProfile, StricterStandardNeedsLargerProfile) {
  const FtTaskSet ts = example31(Dal::C);
  const auto do178b =
      min_reexec_profile(ts, CritLevel::LO, SafetyRequirements::do178b());
  const auto iec =
      min_reexec_profile(ts, CritLevel::LO, SafetyRequirements::iec61508());
  ASSERT_TRUE(do178b.has_value());
  ASSERT_TRUE(iec.has_value());
  EXPECT_GE(*iec, *do178b);  // IEC 61508 level C bound is 10x tighter
}

TEST(MinReexecProfile, CertainFailureIsInfeasible) {
  // f extremely close to 1: no profile within the cap can meet 1e-9.
  FtTaskSet ts({make("h", 100, 10, Dal::A, 0.99)}, {Dal::A, Dal::E});
  const auto n =
      min_reexec_profile(ts, CritLevel::HI, SafetyRequirements::do178b());
  EXPECT_FALSE(n.has_value());
}

TEST(MinReexecProfile, EmptyLevelIsTrivial) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-5)}, {Dal::B, Dal::C});
  const auto n =
      min_reexec_profile(ts, CritLevel::LO, SafetyRequirements::do178b());
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1);
}

TEST(MinAdaptationProfile, UnconstrainedLoAllowsImmediateKilling) {
  // LO in {D, E}: "they can be killed without jeopardizing the system
  // safety" -> n' = 0 is admissible.
  AdaptationModel model;
  model.kind = AdaptationKind::kKilling;
  model.os_hours = 1.0;
  const auto n1 = min_adaptation_profile(
      example31(Dal::D), 3, 1, SafetyRequirements::do178b(), model);
  ASSERT_TRUE(n1.has_value());
  EXPECT_EQ(*n1, 0);
}

TEST(MinAdaptationProfile, KillingInfeasibleForLevelCLoTasks) {
  // With LO = C, any kill within n' < n_HI leaves pfh(LO) >> 1e-5 at this
  // scale (the Fig. 1 situation): no admissible killing profile exists.
  AdaptationModel model;
  model.kind = AdaptationKind::kKilling;
  model.os_hours = 10.0;
  const FtTaskSet ts = example31(Dal::C);
  const auto n1 = min_adaptation_profile(ts, 3, 3,
                                         SafetyRequirements::do178b(), model);
  EXPECT_FALSE(n1.has_value());
}

TEST(MinAdaptationProfile, DegradationFeasibleForLevelCLoTasks) {
  // Same configuration, degradation instead of killing: feasible (the
  // Fig. 2 situation).
  AdaptationModel model;
  model.kind = AdaptationKind::kDegradation;
  model.degradation_factor = 6.0;
  model.os_hours = 10.0;
  const FtTaskSet ts = example31(Dal::C);
  const auto n1 = min_adaptation_profile(ts, 3, 3,
                                         SafetyRequirements::do178b(), model);
  ASSERT_TRUE(n1.has_value());
  EXPECT_LT(*n1, 3);
}

TEST(MinAdaptationProfile, ResultIsMinimal) {
  AdaptationModel model;
  model.kind = AdaptationKind::kDegradation;
  model.degradation_factor = 6.0;
  model.os_hours = 10.0;
  const FtTaskSet ts = example31(Dal::C);
  const auto reqs = SafetyRequirements::do178b();
  const auto n1 = min_adaptation_profile(ts, 3, 3, reqs, model);
  ASSERT_TRUE(n1.has_value());
  const double req = *reqs.requirement(Dal::C);
  EXPECT_LT(pfh_lo_under_adaptation(ts, 3, 3, *n1, model), req);
  if (*n1 > 0) {
    EXPECT_GE(pfh_lo_under_adaptation(ts, 3, 3, *n1 - 1, model), req);
  }
}

TEST(MinAdaptationProfile, RejectsNonPositiveProfiles) {
  AdaptationModel model;
  EXPECT_THROW((void)min_adaptation_profile(example31(), 0, 1,
                                      SafetyRequirements::do178b(), model),
               ContractViolation);
}

TEST(PfhLoUnderAdaptation, DispatchesAllThreeKinds) {
  const FtTaskSet ts = example31(Dal::C);
  AdaptationModel none;
  none.kind = AdaptationKind::kNone;
  AdaptationModel kill;
  kill.kind = AdaptationKind::kKilling;
  kill.os_hours = 1.0;
  AdaptationModel degrade;
  degrade.kind = AdaptationKind::kDegradation;
  degrade.degradation_factor = 6.0;
  degrade.os_hours = 1.0;

  const double p_none = pfh_lo_under_adaptation(ts, 3, 2, 2, none);
  const double p_kill = pfh_lo_under_adaptation(ts, 3, 2, 2, kill);
  const double p_degrade = pfh_lo_under_adaptation(ts, 3, 2, 2, degrade);
  EXPECT_DOUBLE_EQ(p_none, pfh_plain(ts, uniform_profile(ts, 3, 2),
                                     CritLevel::LO));
  // Killing >= plain >= degradation at identical profiles.
  EXPECT_GE(p_kill, p_none);
  EXPECT_LE(p_degrade, p_none);
}

}  // namespace
}  // namespace ftmc::core
