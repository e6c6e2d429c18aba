#include "ftmc/fms/fms.hpp"

#include <gtest/gtest.h>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/profiles.hpp"

namespace ftmc::fms {
namespace {

using core::SafetyRequirements;

TEST(FmsTemplate, MatchesTable4) {
  const auto& tmpl = fms_template();
  ASSERT_EQ(tmpl.size(), 11u);
  // Periods of Table 4.
  EXPECT_DOUBLE_EQ(tmpl[0].period, 5000.0);
  EXPECT_DOUBLE_EQ(tmpl[1].period, 200.0);
  EXPECT_DOUBLE_EQ(tmpl[2].period, 1000.0);
  EXPECT_DOUBLE_EQ(tmpl[3].period, 1600.0);
  EXPECT_DOUBLE_EQ(tmpl[4].period, 100.0);
  for (std::size_t i = 5; i < 11; ++i) {
    EXPECT_DOUBLE_EQ(tmpl[i].period, 1000.0);
  }
  // Seven level B tasks with C <= 20, four level C tasks with C <= 200.
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(tmpl[i].dal, Dal::B);
    EXPECT_DOUBLE_EQ(tmpl[i].wcet_max, 20.0);
  }
  for (std::size_t i = 7; i < 11; ++i) {
    EXPECT_EQ(tmpl[i].dal, Dal::C);
    EXPECT_DOUBLE_EQ(tmpl[i].wcet_max, 200.0);
  }
}

TEST(FmsRandomInstance, ConformsToTemplate) {
  std::mt19937_64 rng(42);
  for (int rep = 0; rep < 20; ++rep) {
    const core::FtTaskSet ts = random_fms_instance(rng);
    ASSERT_EQ(ts.size(), 11u);
    const auto& tmpl = fms_template();
    for (std::size_t i = 0; i < 11; ++i) {
      EXPECT_DOUBLE_EQ(ts[i].period, tmpl[i].period);
      EXPECT_GT(ts[i].wcet, 0.0);
      EXPECT_LE(ts[i].wcet, tmpl[i].wcet_max);
      EXPECT_EQ(ts[i].dal, tmpl[i].dal);
      EXPECT_DOUBLE_EQ(ts[i].failure_prob, kFmsFailureProb);
      EXPECT_TRUE(ts[i].implicit_deadline());
    }
    EXPECT_EQ(ts.mapping().hi, Dal::B);
    EXPECT_EQ(ts.mapping().lo, Dal::C);
  }
}

TEST(FmsRandomInstance, Deterministic) {
  std::mt19937_64 a(7), b(7);
  const auto ts_a = random_fms_instance(a);
  const auto ts_b = random_fms_instance(b);
  for (std::size_t i = 0; i < ts_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts_a[i].wcet, ts_b[i].wcet);
  }
}

TEST(FmsCanonical, BaseUtilizations) {
  const core::FtTaskSet ts = canonical_fms_instance();
  EXPECT_NEAR(ts.utilization(CritLevel::HI), 0.091, 1e-9);
  EXPECT_NEAR(ts.utilization(CritLevel::LO), 0.365, 1e-9);
}

TEST(FmsCanonical, MinimalProfilesMatchPaper) {
  // Sec. 5.1: "the re-execution profiles are set as the minimal profiles
  // (n_HI = 3, n_LO = 2)".
  const core::FtTaskSet ts = canonical_fms_instance();
  const auto reqs = SafetyRequirements::do178b();
  const auto n_hi = core::min_reexec_profile(ts, CritLevel::HI, reqs);
  const auto n_lo = core::min_reexec_profile(ts, CritLevel::LO, reqs);
  ASSERT_TRUE(n_hi.has_value());
  ASSERT_TRUE(n_lo.has_value());
  EXPECT_EQ(*n_hi, 3);
  EXPECT_EQ(*n_lo, 2);
}

TEST(FmsCanonical, NotSchedulableWithoutAdaptation) {
  // "The FMS application is not schedulable with the task re-execution
  // profiles" (without killing/degradation): 3*0.091 + 2*0.365 = 1.003.
  const core::FtTaskSet ts = canonical_fms_instance();
  const double worst_case =
      3.0 * ts.utilization(CritLevel::HI) + 2.0 * ts.utilization(CritLevel::LO);
  EXPECT_GT(worst_case, 1.0);
}

TEST(FmsCanonical, UmcCrossesOneBetween2And3ForKilling) {
  // Fig. 1: schedulable region is n' <= 2.
  const core::FtTaskSet ts = canonical_fms_instance();
  core::AdaptationModel model;
  model.kind = AdaptationKind::kKilling;
  model.os_hours = kFmsOperationHours;
  const auto pts = core::sweep_adaptation(ts, 3, 2, model,
                                          SafetyRequirements::do178b(), 4);
  EXPECT_TRUE(pts[0].schedulable);
  EXPECT_TRUE(pts[1].schedulable);
  EXPECT_TRUE(pts[2].schedulable);
  EXPECT_FALSE(pts[3].schedulable);
  EXPECT_FALSE(pts[4].schedulable);
}

TEST(FmsCanonical, UmcCrossesOneBetween2And3ForDegradation) {
  // Fig. 2: same schedulable region under degradation with d_f = 6.
  const core::FtTaskSet ts = canonical_fms_instance();
  core::AdaptationModel model;
  model.kind = AdaptationKind::kDegradation;
  model.degradation_factor = kFmsDegradationFactor;
  model.os_hours = kFmsOperationHours;
  const auto pts = core::sweep_adaptation(ts, 3, 2, model,
                                          SafetyRequirements::do178b(), 4);
  EXPECT_TRUE(pts[2].schedulable);
  EXPECT_FALSE(pts[3].schedulable);
}

TEST(FmsCanonical, KillingOrdersOfMagnitudeMatchPaper) {
  // Sec. 5.1: "when n'_HI = 2, if task killing is adopted, then the order
  // of magnitude of pfh(LO) is 1e-1, compared to ~1e-10/1e-11 when service
  // degradation is adopted".
  const core::FtTaskSet ts = canonical_fms_instance();
  core::AdaptationModel kill;
  kill.kind = AdaptationKind::kKilling;
  kill.os_hours = kFmsOperationHours;
  const double pfh_kill = core::pfh_lo_under_adaptation(ts, 3, 2, 2, kill);
  EXPECT_GT(pfh_kill, 1e-2);
  EXPECT_LT(pfh_kill, 1.0);

  core::AdaptationModel degrade;
  degrade.kind = AdaptationKind::kDegradation;
  degrade.degradation_factor = kFmsDegradationFactor;
  degrade.os_hours = kFmsOperationHours;
  const double pfh_deg = core::pfh_lo_under_adaptation(ts, 3, 2, 2, degrade);
  EXPECT_LT(pfh_deg, 1e-9);
  EXPECT_GT(pfh_deg, 1e-12);
}

TEST(FmsCanonical, KillingUnsafeDegradationSafeInSchedulableRegion) {
  // The headline conclusion: within the schedulable region (n' <= 2),
  // killing violates the level C requirement while degradation meets it.
  const core::FtTaskSet ts = canonical_fms_instance();
  const auto reqs = SafetyRequirements::do178b();
  core::AdaptationModel kill;
  kill.kind = AdaptationKind::kKilling;
  kill.os_hours = kFmsOperationHours;
  core::AdaptationModel degrade;
  degrade.kind = AdaptationKind::kDegradation;
  degrade.degradation_factor = kFmsDegradationFactor;
  degrade.os_hours = kFmsOperationHours;

  const auto kill_pts =
      core::sweep_adaptation(ts, 3, 2, kill, reqs, 2);
  const auto deg_pts =
      core::sweep_adaptation(ts, 3, 2, degrade, reqs, 2);
  for (const auto& p : kill_pts) {
    EXPECT_FALSE(p.safe) << "killing n' = " << p.n_adapt;
  }
  for (const auto& p : deg_pts) {
    EXPECT_TRUE(p.safe) << "degradation n' = " << p.n_adapt;
  }
}

TEST(FmsCanonical, FtScheduleEndToEnd) {
  // FT-S with killing must FAIL (safety), with degradation must SUCCEED.
  const core::FtTaskSet ts = canonical_fms_instance();
  core::FtsConfig kill;
  kill.adaptation.kind = AdaptationKind::kKilling;
  kill.adaptation.os_hours = kFmsOperationHours;
  const auto r_kill = core::ft_schedule(ts, kill);
  EXPECT_FALSE(r_kill.success);

  core::FtsConfig degrade;
  degrade.adaptation.kind = AdaptationKind::kDegradation;
  degrade.adaptation.degradation_factor = kFmsDegradationFactor;
  degrade.adaptation.os_hours = kFmsOperationHours;
  const auto r_deg = core::ft_schedule(ts, degrade);
  ASSERT_TRUE(r_deg.success) << to_string(r_deg.failure);
  EXPECT_EQ(r_deg.n_hi, 3);
  EXPECT_EQ(r_deg.n_lo, 2);
  EXPECT_EQ(r_deg.n_adapt, 2);
}

}  // namespace
}  // namespace ftmc::fms
