#include "ftmc/core/partitioned.hpp"

#include <gtest/gtest.h>

#include "ftmc/common/contracts.hpp"

namespace ftmc::core {
namespace {

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

PartitionedConfig config(int cores,
                         AdaptationKind kind =
                             AdaptationKind::kKilling) {
  PartitionedConfig c;
  c.cores = cores;
  c.fts.adaptation.kind = kind;
  c.fts.adaptation.os_hours = 1.0;
  c.fts.adaptation.degradation_factor = 6.0;
  return c;
}

TEST(MakeSubset, ExtractsTasksAndMapping) {
  const FtTaskSet ts = example31();
  const FtTaskSet sub = make_subset(ts, {0, 3});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].name, "tau1");
  EXPECT_EQ(sub[1].name, "tau4");
  EXPECT_EQ(sub.mapping().hi, ts.mapping().hi);
  EXPECT_THROW((void)make_subset(ts, {99}), ContractViolation);
}

TEST(Partitioned, SingleCoreMatchesUniprocessorVerdict) {
  const FtTaskSet ts = example31();
  const PartitionedResult p = ft_schedule_partitioned(ts, config(1));
  const FtsResult u = ft_schedule(ts, config(1).fts);
  EXPECT_EQ(p.success, u.success);
  EXPECT_EQ(p.n_hi, u.n_hi);
  EXPECT_EQ(p.n_lo, u.n_lo);
  ASSERT_EQ(p.per_core.size(), 1u);
  EXPECT_EQ(p.per_core[0].n_adapt, u.n_adapt);
}

TEST(Partitioned, TwoCoresScheduleDoubleLoad) {
  // Two copies of Example 3.1's workload: hopeless on one core (worst
  // case 2.17), fine on two.
  FtTaskSet ts = example31();
  FtTaskSet doubled = example31();
  for (const FtTask& t : ts.tasks()) {
    FtTask copy = t;
    copy.name += "_b";
    doubled.add(copy);
  }
  EXPECT_FALSE(ft_schedule_partitioned(doubled, config(1)).success);
  const PartitionedResult p = ft_schedule_partitioned(doubled, config(2));
  ASSERT_TRUE(p.success) << to_string(p.failure);
  // Every task got a core in range.
  for (const int c : p.assignment) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 2);
  }
  // Both cores nontrivially loaded.
  EXPECT_GT(p.per_core[0].converted.size() , 0u);
  EXPECT_GT(p.per_core[1].converted.size() , 0u);
}

TEST(Partitioned, SystemPfhSumsPerCoreContributions) {
  const FtTaskSet base = example31();
  FtTaskSet doubled = base;
  for (const FtTask& t : base.tasks()) {
    FtTask copy = t;
    copy.name += "_b";
    doubled.add(copy);
  }
  const PartitionedResult p = ft_schedule_partitioned(doubled, config(2));
  ASSERT_TRUE(p.success);
  double sum = 0.0;
  for (const auto& core : p.per_core) sum += core.pfh_lo;
  EXPECT_NEAR(p.pfh_lo, sum, 1e-15);
  EXPECT_GT(p.pfh_hi, 0.0);
}

TEST(Partitioned, GlobalProfilesNotWeakenedByPartitioning) {
  // The per-level PFH requirement is global: the partitioned run must
  // use the same n_HI as the uniprocessor analysis even though each
  // core's subset alone would need less.
  const FtTaskSet base = example31();
  FtTaskSet doubled = base;
  for (const FtTask& t : base.tasks()) {
    FtTask copy = t;
    copy.name += "_b";
    doubled.add(copy);
  }
  const PartitionedResult p = ft_schedule_partitioned(doubled, config(2));
  ASSERT_TRUE(p.success);
  const auto n_global = min_reexec_profile(doubled, CritLevel::HI,
                                           SafetyRequirements::do178b());
  ASSERT_TRUE(n_global.has_value());
  EXPECT_EQ(p.n_hi, *n_global);
  // pfh(HI) of the whole system still meets level B.
  EXPECT_LT(p.pfh_hi, 1e-7);
}

TEST(Partitioned, LevelCKillingStillUnsafeOnManyCores) {
  // Extra cores buy schedulability, never safety: killing level C tasks
  // violates their PFH regardless of the core count.
  FtTaskSet ts = example31(Dal::C);
  PartitionedConfig cfg = config(4);
  cfg.fts.adaptation.os_hours = 10.0;
  const PartitionedResult p = ft_schedule_partitioned(ts, cfg);
  EXPECT_FALSE(p.success);
  EXPECT_EQ(p.failure, FtsFailure::kAdaptationUnsafe);
}

TEST(Partitioned, DegradationOnTwoCores) {
  const FtTaskSet base = example31(Dal::C);
  FtTaskSet doubled = base;
  for (const FtTask& t : base.tasks()) {
    FtTask copy = t;
    copy.name += "_b";
    doubled.add(copy);
  }
  PartitionedConfig cfg = config(4, AdaptationKind::kDegradation);
  const PartitionedResult p = ft_schedule_partitioned(doubled, cfg);
  // n_HI = n_LO = 3 at level C: the doubled worst-case load is ~3.6, so
  // four cores carry what one (or three) cannot.
  EXPECT_TRUE(p.success) << to_string(p.failure);
  EXPECT_LT(p.pfh_lo, 1e-5);
}

TEST(Partitioned, EmptyCoresAreBenign) {
  const FtTaskSet ts = example31();
  const PartitionedResult p = ft_schedule_partitioned(ts, config(8));
  ASSERT_TRUE(p.success);
  EXPECT_EQ(p.per_core.size(), 8u);
  // Unused cores contribute nothing.
  double used = 0.0;
  for (const auto& core : p.per_core) {
    used += core.converted.size();
    EXPECT_TRUE(core.success);
  }
  EXPECT_EQ(static_cast<std::size_t>(used), ts.size());
}

TEST(Partitioned, RejectsZeroCores) {
  EXPECT_THROW((void)ft_schedule_partitioned(example31(), config(0)),
               ContractViolation);
}

TEST(Partitioned, ImpossibleSafetyFailsEarly) {
  FtTaskSet ts({make("h", 100, 10, Dal::A, 0.9), make("l", 100, 1, Dal::E)},
               {Dal::A, Dal::E});
  const PartitionedResult p = ft_schedule_partitioned(ts, config(4));
  EXPECT_FALSE(p.success);
  EXPECT_EQ(p.failure, FtsFailure::kHiSafetyInfeasible);
}

}  // namespace
}  // namespace ftmc::core
