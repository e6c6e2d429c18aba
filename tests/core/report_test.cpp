#include "ftmc/core/report.hpp"

#include <gtest/gtest.h>

namespace ftmc::core {
namespace {

FtTask make(const std::string& name, Millis t, Millis c, Dal dal) {
  return {name, t, t, c, dal, 1e-5};
}

FtTaskSet example31(Dal lo = Dal::D) {
  return FtTaskSet({make("tau1", 60, 5, Dal::B), make("tau2", 25, 4, Dal::B),
                    make("tau3", 40, 7, lo), make("tau4", 90, 6, lo),
                    make("tau5", 70, 8, lo)},
                   {Dal::B, lo});
}

FtsConfig killing_config(double os = 1.0) {
  FtsConfig cfg;
  cfg.adaptation.kind = AdaptationKind::kKilling;
  cfg.adaptation.os_hours = os;
  return cfg;
}

TEST(Report, SuccessfulRunContainsVerdictAndProfiles) {
  const std::string report =
      certification_report(example31(), killing_config());
  EXPECT_NE(report.find("VERDICT: CERTIFIABLE"), std::string::npos);
  EXPECT_NE(report.find("n_HI = 3"), std::string::npos);
  EXPECT_NE(report.find("n'_HI = 2"), std::string::npos);
  EXPECT_NE(report.find("EDF-VD"), std::string::npos);
  EXPECT_NE(report.find("DO-178B"), std::string::npos);
  EXPECT_NE(report.find("pfh(HI) = 2.040e-10"), std::string::npos);
}

TEST(Report, ListsEveryTask) {
  const std::string report =
      certification_report(example31(), killing_config());
  for (const char* name : {"tau1", "tau2", "tau3", "tau4", "tau5"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(Report, FailureNamesTheReason) {
  const std::string report =
      certification_report(example31(Dal::C), killing_config(10.0));
  EXPECT_NE(report.find("VERDICT: REJECTED"), std::string::npos);
  EXPECT_TRUE(report.find("adaptation-unsafe") != std::string::npos ||
              report.find("unschedulable") != std::string::npos);
}

TEST(Report, ConvertedSetSection) {
  const std::string report =
      certification_report(example31(), killing_config());
  EXPECT_NE(report.find("converted mixed-criticality task set"),
            std::string::npos);
  EXPECT_NE(report.find("C(HI)"), std::string::npos);
}

TEST(Report, SectionsCanBeDisabled) {
  ReportOptions opts;
  opts.include_adaptation_sweep = false;
  opts.include_converted_set = false;
  const std::string report =
      certification_report(example31(), killing_config(), opts);
  EXPECT_EQ(report.find("adaptation sweep"), std::string::npos);
  EXPECT_EQ(report.find("converted mixed-criticality"), std::string::npos);
  EXPECT_NE(report.find("VERDICT"), std::string::npos);
}

TEST(Report, SweepMarksSchedulabilityAndSafety) {
  const std::string report =
      certification_report(example31(), killing_config());
  EXPECT_NE(report.find("adaptation sweep"), std::string::npos);
  EXPECT_NE(report.find("(schedulable)"), std::string::npos);
}

TEST(Report, Deterministic) {
  const std::string a = certification_report(example31(), killing_config());
  const std::string b = certification_report(example31(), killing_config());
  EXPECT_EQ(a, b);
}

TEST(Report, DegradationMentionsFactor) {
  FtsConfig cfg;
  cfg.adaptation.kind = AdaptationKind::kDegradation;
  cfg.adaptation.degradation_factor = 6.0;
  cfg.adaptation.os_hours = 1.0;
  const std::string report = certification_report(example31(), cfg);
  EXPECT_NE(report.find("service degradation"), std::string::npos);
  EXPECT_NE(report.find("d_f = 6"), std::string::npos);
}

}  // namespace
}  // namespace ftmc::core
