#include "ftmc/core/design_space.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ftmc/common/contracts.hpp"
#include "ftmc/fms/fms.hpp"

namespace ftmc::core {
namespace {

/// Accepts everything; stands in for a technique that handles
/// constrained deadlines so the checkpointed pipeline can succeed on a
/// non-implicit-deadline set (where umc_of cannot price U_MC).
class AcceptAllTest final : public mcs::SchedulabilityTest {
 public:
  [[nodiscard]] bool schedulable(const mcs::McTaskSet&) const override {
    return true;
  }
  [[nodiscard]] std::string name() const override { return "accept-all"; }
  [[nodiscard]] AdaptationKind adaptation() const override {
    return AdaptationKind::kKilling;
  }
};

FtTask make(const std::string& name, Millis t, Millis c, Dal dal,
            double f = 1e-5) {
  return {name, t, t, c, dal, f};
}

FtTaskSet example31(Dal lo = Dal::D) {
  return FtTaskSet({make("tau1", 60, 5, Dal::B), make("tau2", 25, 4, Dal::B),
                    make("tau3", 40, 7, lo), make("tau4", 90, 6, lo),
                    make("tau5", 70, 8, lo)},
                   {Dal::B, lo});
}

TEST(DesignSpace, EnumeratesGrid) {
  DesignSpaceOptions opt;
  opt.degradation_factors = {2.0, 6.0};
  opt.segment_counts = {1, 4};
  const auto points = explore_design_space(example31(), opt);
  // Per segment count: 1 killing + 2 degradation = 3; two counts = 6.
  ASSERT_EQ(points.size(), 6u);
  int killing = 0, degradation = 0;
  for (const auto& p : points) {
    if (p.kind == AdaptationKind::kKilling) ++killing;
    if (p.kind == AdaptationKind::kDegradation) ++degradation;
  }
  EXPECT_EQ(killing, 2);
  EXPECT_EQ(degradation, 4);
}

TEST(DesignSpace, Example31KillingCertifiable) {
  DesignSpaceOptions opt;
  opt.segment_counts = {1};
  const auto points = explore_design_space(example31(), opt);
  bool found = false;
  for (const auto& p : points) {
    if (p.kind == AdaptationKind::kKilling && p.segments == 1) {
      EXPECT_TRUE(p.certifiable);
      EXPECT_EQ(p.n_adapt, 2);
      EXPECT_DOUBLE_EQ(p.service_quality, 0.0);
      // LO = D is unconstrained: infinite safety margin.
      EXPECT_TRUE(std::isinf(p.safety_margin_orders));
      EXPECT_GT(p.schedulability_margin, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DesignSpace, FmsParetoPrefersDegradation) {
  // On the FMS (LO = C, O_S = 10 h) killing is never certifiable; every
  // Pareto point must be a degradation configuration.
  DesignSpaceOptions opt;
  opt.os_hours = fms::kFmsOperationHours;
  opt.degradation_factors = {3.0, 6.0, 12.0};
  opt.segment_counts = {1};
  const auto points =
      explore_design_space(fms::canonical_fms_instance(), opt);
  const auto front = pareto_front(points);
  ASSERT_FALSE(front.empty());
  for (const std::size_t i : front) {
    EXPECT_EQ(points[i].kind, AdaptationKind::kDegradation);
    EXPECT_TRUE(points[i].certifiable);
  }
}

TEST(DesignSpace, ParetoExcludesDominatedPoints) {
  // Construct three synthetic points: b dominates c, a incomparable.
  DesignPoint a;
  a.certifiable = true;
  a.service_quality = 0.5;
  a.safety_margin_orders = 1.0;
  a.schedulability_margin = 0.1;
  DesignPoint b = a;
  b.service_quality = 0.2;
  b.safety_margin_orders = 5.0;
  DesignPoint c = b;
  c.safety_margin_orders = 4.0;  // dominated by b
  DesignPoint failed;            // never on the front
  failed.certifiable = false;
  failed.service_quality = 9.0;

  const auto front = pareto_front({a, b, c, failed});
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(DesignSpace, ServiceQualityDecreasesWithDf) {
  DesignSpaceOptions opt;
  opt.degradation_factors = {2.0, 12.0};
  opt.segment_counts = {1};
  opt.include_killing = false;
  const auto points = explore_design_space(example31(), opt);
  ASSERT_EQ(points.size(), 2u);
  if (points[0].certifiable && points[1].certifiable) {
    EXPECT_GT(points[0].service_quality, points[1].service_quality);
  }
}

TEST(DesignSpace, CheckpointedPointsEvaluated) {
  DesignSpaceOptions opt;
  opt.segment_counts = {4};
  opt.degradation_factors = {6.0};
  const auto points = explore_design_space(example31(), opt);
  for (const auto& p : points) {
    EXPECT_EQ(p.segments, 4);
    if (p.certifiable) {
      EXPECT_GE(p.u_mc, 0.0);
      EXPECT_LE(p.u_mc, 1.0);
    }
  }
}

TEST(DesignSpace, NanUmcIsDemotedToNonCertifiable) {
  // tau_hi has a constrained deadline (60 < 100), which the converted
  // set inherits; umc_of then has no implicit-deadline U_MC and returns
  // NaN. Such a point must come back non-certifiable instead of carrying
  // NaN scores into domination checks.
  const FtTaskSet ts({FtTask{"tau_hi", 100, 60, 8, Dal::B, 1e-9},
                      FtTask{"tau_lo", 100, 100, 8, Dal::D, 1e-9}},
                     DualCriticalityMapping{Dal::B, Dal::D});
  DesignSpaceOptions opt;
  opt.segment_counts = {2};
  opt.degradation_factors = {};
  opt.test = std::make_shared<const AcceptAllTest>();
  const auto points = explore_design_space(ts, opt);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_FALSE(points[0].certifiable);
  EXPECT_FALSE(std::isnan(points[0].service_quality));
  EXPECT_FALSE(std::isnan(points[0].safety_margin_orders));
  EXPECT_FALSE(std::isnan(points[0].schedulability_margin));
  EXPECT_TRUE(pareto_front(points).empty());
}

TEST(DesignSpace, ParetoExcludesNanScoredPoints) {
  // Even if a NaN-scored point claims to be certifiable, it must not
  // survive the front by incomparability (NaN compares false against
  // everything, so nothing can dominate it).
  DesignPoint good;
  good.certifiable = true;
  good.service_quality = 0.5;
  good.safety_margin_orders = 1.0;
  good.schedulability_margin = 0.1;
  DesignPoint poisoned = good;
  poisoned.service_quality = 9.0;
  poisoned.schedulability_margin =
      std::numeric_limits<double>::quiet_NaN();
  const auto front = pareto_front({good, poisoned});
  EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(DesignSpace, ParallelExplorationMatchesSerial) {
  DesignSpaceOptions serial_opt;
  serial_opt.threads = 1;
  DesignSpaceOptions parallel_opt;
  parallel_opt.threads = 3;
  const auto a = explore_design_space(example31(), serial_opt);
  const auto b = explore_design_space(example31(), parallel_opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].certifiable, b[i].certifiable);
    EXPECT_EQ(a[i].u_mc, b[i].u_mc);
    EXPECT_EQ(a[i].pfh_lo, b[i].pfh_lo);
    EXPECT_EQ(a[i].service_quality, b[i].service_quality);
  }
}

TEST(DesignSpace, RejectsBadGrid) {
  DesignSpaceOptions opt;
  opt.segment_counts = {};
  EXPECT_THROW((void)explore_design_space(example31(), opt),
               ContractViolation);
  opt = DesignSpaceOptions{};
  opt.degradation_factors = {0.5};
  EXPECT_THROW((void)explore_design_space(example31(), opt),
               ContractViolation);
}

}  // namespace
}  // namespace ftmc::core
