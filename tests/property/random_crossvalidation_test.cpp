/// Randomized cross-validation: generate hundreds of task sets with the
/// paper's Appendix C generator and check structural invariants that tie
/// the analysis, conversion, scheduling, and I/O layers together. These
/// properties must hold on EVERY draw, not just on curated examples.
#include <gtest/gtest.h>

#include <cmath>

#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/heterogeneous.hpp"
#include "ftmc/io/taskset_io.hpp"
#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc {
namespace {

using core::FtTaskSet;
using core::PerTaskProfile;

/// One generator configuration per test-suite instantiation.
struct Scenario {
  double utilization;
  double failure_prob;
  Dal lo_dal;
};

class RandomSets : public ::testing::TestWithParam<Scenario> {
 protected:
  std::vector<FtTaskSet> draw(int count) const {
    taskgen::GeneratorParams params;
    params.target_utilization = GetParam().utilization;
    params.failure_prob = GetParam().failure_prob;
    params.mapping = {Dal::B, GetParam().lo_dal};
    taskgen::Rng rng(0xF7u ^ static_cast<std::uint64_t>(
                                 GetParam().utilization * 1000));
    std::vector<FtTaskSet> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      out.push_back(taskgen::generate_task_set(params, rng));
    }
    return out;
  }
};

TEST_P(RandomSets, ConversionPreservesUtilizationIdentities) {
  for (const FtTaskSet& ts : draw(50)) {
    const auto mc = core::convert_to_mc(ts, 3, 2, 1);
    EXPECT_NEAR(mc.utilization(CritLevel::HI, CritLevel::HI),
                3.0 * ts.utilization(CritLevel::HI), 1e-9);
    EXPECT_NEAR(mc.utilization(CritLevel::HI, CritLevel::LO),
                1.0 * ts.utilization(CritLevel::HI), 1e-9);
    EXPECT_NEAR(mc.utilization(CritLevel::LO, CritLevel::LO),
                2.0 * ts.utilization(CritLevel::LO), 1e-9);
  }
}

TEST_P(RandomSets, ClosedFormUmcMatchesDirectAnalysis) {
  // Algorithm 2's closed form and analyze_edf_vd on the materialized
  // conversion must agree on every draw and every profile.
  for (const FtTaskSet& ts : draw(30)) {
    for (int n_adapt = 0; n_adapt <= 3; ++n_adapt) {
      const double closed = core::umc_closed_form(
          ts.utilization(CritLevel::HI), ts.utilization(CritLevel::LO), 3,
          2, n_adapt, AdaptationKind::kKilling, 1.0);
      const auto direct =
          mcs::analyze_edf_vd(core::convert_to_mc(ts, 3, 2, n_adapt));
      if (std::isinf(closed) || std::isinf(direct.u_mc)) {
        // Both paths must agree that the set saturates (U_LO^LO >= 1).
        EXPECT_EQ(std::isinf(closed), std::isinf(direct.u_mc));
      } else {
        EXPECT_NEAR(closed, direct.u_mc, 1e-9);
      }
    }
  }
}

TEST_P(RandomSets, FtsSuccessImpliesAllGuarantees) {
  // Theorem 4.1: on success, both PFH requirements hold at the chosen
  // profiles and the converted set passes the schedulability test.
  const auto reqs = core::SafetyRequirements::do178b();
  int successes = 0;
  for (const FtTaskSet& ts : draw(60)) {
    core::FtsConfig cfg;
    cfg.adaptation.kind = AdaptationKind::kKilling;
    cfg.adaptation.os_hours = 1.0;
    const auto r = core::ft_schedule(ts, cfg);
    if (!r.success) continue;
    ++successes;
    EXPECT_TRUE(reqs.satisfied(ts.mapping().hi, r.pfh_hi));
    EXPECT_TRUE(reqs.satisfied(ts.mapping().lo, r.pfh_lo));
    if (r.n_adapt < r.n_hi) {
      EXPECT_TRUE(mcs::EdfVdTest{}.schedulable(r.converted));
    } else {
      EXPECT_TRUE(mcs::EdfWorstCaseTest{}.schedulable(r.converted));
    }
    // Chosen profiles respect the algorithm's bracket.
    ASSERT_TRUE(r.n1_hi.has_value());
    ASSERT_TRUE(r.n2_hi.has_value());
    EXPECT_LE(*r.n1_hi, r.n_adapt);
    EXPECT_EQ(*r.n2_hi, r.n_adapt);
  }
  // The scenarios are chosen so that some sets are schedulable; an
  // all-failure run would make the assertions above vacuous. Exception:
  // killing with LO = C is *expected* to fail almost always (the paper's
  // Fig. 3b result), so no success quota applies there.
  if (GetParam().utilization <= 0.5 && GetParam().lo_dal == Dal::D) {
    EXPECT_GT(successes, 0);
  }
}

TEST_P(RandomSets, KillingBoundDominatesDegradationAndPlain) {
  // Ordering of the three LO-level bounds at identical profiles:
  // degradation (Eq. 7) <= plain (Eq. 2) <= killing (Eq. 5).
  for (const FtTaskSet& ts : draw(20)) {
    const PerTaskProfile n = core::uniform_profile(ts, 3, 2);
    const PerTaskProfile na = core::uniform_profile(ts, 2, 0);
    const double plain = core::pfh_plain(ts, n, CritLevel::LO);
    core::KillingBoundOptions opt;
    opt.os_hours = 0.01;  // keep the Eq. (5) sum cheap
    const double killing = core::pfh_lo_killing(ts, n, na, opt);
    const double degradation = core::pfh_lo_degradation(ts, n, na, 0.01);
    EXPECT_LE(degradation, plain * (1.0 + 1e-9));
    EXPECT_GE(killing, plain * (1.0 - 1e-9));
  }
}

TEST_P(RandomSets, SurvivalMonotoneInProfileAndTime) {
  for (const FtTaskSet& ts : draw(20)) {
    // In n': larger profiles -> harder to trigger -> larger R.
    double prev = -1.0;
    for (int na = 0; na <= 3; ++na) {
      const double r = core::survival_no_trigger(
                           ts, core::uniform_profile(ts, na, 0), 60'000.0)
                           .linear();
      EXPECT_GE(r, prev);
      prev = r;
    }
    // In t: longer windows -> more rounds -> smaller R.
    const auto na = core::uniform_profile(ts, 1, 0);
    double prev_t = 2.0;
    for (double t = 0.0; t <= 300'000.0; t += 60'000.0) {
      const double r = core::survival_no_trigger(ts, na, t).linear();
      EXPECT_LE(r, prev_t);
      prev_t = r;
    }
  }
}

TEST_P(RandomSets, IoRoundTripIsLossless) {
  for (const FtTaskSet& ts : draw(20)) {
    const auto back = io::parse_task_set_string(io::task_set_to_string(ts));
    ASSERT_EQ(back.size(), ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(back[i].name, ts[i].name);
      EXPECT_DOUBLE_EQ(back[i].period, ts[i].period);
      EXPECT_DOUBLE_EQ(back[i].deadline, ts[i].deadline);
      EXPECT_DOUBLE_EQ(back[i].wcet, ts[i].wcet);
      EXPECT_EQ(back[i].dal, ts[i].dal);
      EXPECT_DOUBLE_EQ(back[i].failure_prob, ts[i].failure_prob);
    }
  }
}

TEST_P(RandomSets, HeterogeneousAllocationStaysWithinBudget) {
  core::AdaptationModel model;
  model.kind = AdaptationKind::kKilling;
  model.os_hours = 0.01;
  const auto reqs = core::SafetyRequirements::do178b();
  for (const FtTaskSet& ts : draw(10)) {
    const auto r =
        core::optimize_adaptation_profiles(ts, 3, 2, model, reqs);
    if (!r.feasible) continue;
    EXPECT_LE(r.budget_used, r.budget + 1e-9);
    double recomputed = 0.0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts.crit_of(i) == CritLevel::HI) {
        EXPECT_LE(r.n_adapt[i], 3);
        recomputed += r.n_adapt[i] * ts[i].utilization();
      } else {
        EXPECT_EQ(r.n_adapt[i], 0);
      }
    }
    EXPECT_NEAR(recomputed, r.budget_used, 1e-9);
  }
}

TEST_P(RandomSets, McDbfAgreesWithEdfVdOnPlainFeasibleSets) {
  // When worst-case reservations fit, every killing-mode test must
  // accept (the mode switch only ever removes load).
  for (const FtTaskSet& ts : draw(30)) {
    const auto mc = core::convert_to_mc(ts, 3, 2, 2);
    if (mcs::EdfWorstCaseTest{}.schedulable(mc)) {
      EXPECT_TRUE(mcs::EdfVdTest{}.schedulable(mc));
      EXPECT_TRUE(mcs::McDbfTest{}.schedulable(mc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, RandomSets,
    ::testing::Values(Scenario{0.3, 1e-5, Dal::D},
                      Scenario{0.5, 1e-5, Dal::D},
                      Scenario{0.5, 1e-5, Dal::C},
                      Scenario{0.8, 1e-5, Dal::D},
                      Scenario{0.5, 1e-3, Dal::D},
                      Scenario{0.9, 1e-4, Dal::C}));

}  // namespace
}  // namespace ftmc
