/// Tests for footnote 1 of the paper: when execution attempts may finish
/// earlier than C_i, the busy term n*C_i must be dropped from the round
/// counts of Eqs. (1), (4), (6) — yielding more rounds, i.e. a larger
/// (still safe) bound. Verifies the kZero assumption is threaded through
/// every analysis entry point.
#include <gtest/gtest.h>

#include "ftmc/core/ft_scheduler.hpp"

namespace ftmc::core {
namespace {

FtTask make(const std::string& name, Millis t, Millis c, Dal dal,
            double f = 1e-3) {
  return {name, t, t, c, dal, f};
}

/// WCETs comparable to periods so the busy term actually matters.
FtTaskSet chunky() {
  return FtTaskSet({make("h", 100, 40, Dal::B), make("l", 150, 50, Dal::C)},
                   {Dal::B, Dal::C});
}

TEST(ExecAssumption, PlainBoundNeverSmallerUnderZero) {
  const FtTaskSet ts = chunky();
  for (int n = 1; n <= 4; ++n) {
    const PerTaskProfile p = uniform_profile(ts, n, n);
    for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
      EXPECT_GE(pfh_plain(ts, p, level, ExecAssumption::kZero),
                pfh_plain(ts, p, level, ExecAssumption::kFullWcet))
          << "n = " << n;
    }
  }
}

TEST(ExecAssumption, ZeroAssumptionChangesRoundCountAtBoundary) {
  // t chosen between the two round thresholds: full-WCET counts 1 round,
  // zero-assumption counts 2.
  const FtTask t = make("x", 100, 40, Dal::B);
  // Rounds under full WCET with n=2: floor((t - 80)/100)+1; at t = 150:
  // floor(0.7)+1 = 1. Under kZero: floor(1.5)+1 = 2.
  EXPECT_DOUBLE_EQ(rounds(t, 2, 150.0, ExecAssumption::kFullWcet), 1.0);
  EXPECT_DOUBLE_EQ(rounds(t, 2, 150.0, ExecAssumption::kZero), 2.0);
}

TEST(ExecAssumption, SurvivalNeverLargerUnderZero) {
  // More rounds -> more trigger opportunities -> smaller R.
  const FtTaskSet ts = chunky();
  const PerTaskProfile na = uniform_profile(ts, 1, 0);
  for (double t = 50.0; t <= 1000.0; t += 130.0) {
    EXPECT_LE(
        survival_no_trigger(ts, na, t, ExecAssumption::kZero).linear(),
        survival_no_trigger(ts, na, t, ExecAssumption::kFullWcet).linear()
            + 1e-15)
        << "t = " << t;
  }
}

TEST(ExecAssumption, KillingBoundNeverSmallerUnderZero) {
  const FtTaskSet ts = chunky();
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  const PerTaskProfile na = uniform_profile(ts, 1, 0);
  KillingBoundOptions full;
  full.os_hours = 0.003;
  KillingBoundOptions zero = full;
  zero.exec = ExecAssumption::kZero;
  EXPECT_GE(pfh_lo_killing(ts, n, na, zero),
            pfh_lo_killing(ts, n, na, full) * (1.0 - 1e-9));
}

TEST(ExecAssumption, DegradationBoundNeverSmallerUnderZero) {
  const FtTaskSet ts = chunky();
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  const PerTaskProfile na = uniform_profile(ts, 1, 0);
  EXPECT_GE(
      pfh_lo_degradation(ts, n, na, 0.003, ExecAssumption::kZero),
      pfh_lo_degradation(ts, n, na, 0.003, ExecAssumption::kFullWcet) *
          (1.0 - 1e-9));
}

TEST(ExecAssumption, MinProfilesCanGrowUnderZero) {
  // The larger zero-assumption bound can demand one more re-execution;
  // it must never demand fewer.
  const FtTaskSet ts = chunky();
  const auto reqs = SafetyRequirements::do178b();
  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const auto full =
        min_reexec_profile(ts, level, reqs, ExecAssumption::kFullWcet);
    const auto zero =
        min_reexec_profile(ts, level, reqs, ExecAssumption::kZero);
    ASSERT_TRUE(full.has_value());
    ASSERT_TRUE(zero.has_value());
    EXPECT_GE(*zero, *full);
  }
}

TEST(ExecAssumption, FtScheduleHonorsExecConfig) {
  // End-to-end: the config flag reaches both the profile search and the
  // reported bounds.
  const FtTaskSet ts = chunky();
  FtsConfig full;
  full.adaptation.kind = AdaptationKind::kDegradation;
  full.adaptation.degradation_factor = 6.0;
  full.adaptation.os_hours = 1.0;
  FtsConfig zero = full;
  zero.exec = ExecAssumption::kZero;
  const FtsResult rf = ft_schedule(ts, full);
  const FtsResult rz = ft_schedule(ts, zero);
  if (rf.success && rz.success) {
    EXPECT_GE(rz.pfh_hi, rf.pfh_hi * (1.0 - 1e-9));
  }
  // The zero assumption can only lose schedulability, never gain it
  // (same conversion, same or stricter profiles).
  if (!rf.success) {
    EXPECT_FALSE(rz.success && rz.n_hi < rf.n_hi);
  }
}

}  // namespace
}  // namespace ftmc::core
