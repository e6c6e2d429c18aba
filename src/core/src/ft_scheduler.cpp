#include "ftmc/core/ft_scheduler.hpp"

#include <memory>

#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"

namespace ftmc::core {

std::string_view to_string(FtsFailure failure) {
  switch (failure) {
    case FtsFailure::kNone: return "none";
    case FtsFailure::kHiSafetyInfeasible: return "HI-safety-infeasible";
    case FtsFailure::kLoSafetyInfeasible: return "LO-safety-infeasible";
    case FtsFailure::kAdaptationUnsafe: return "adaptation-unsafe";
    case FtsFailure::kUnschedulable: return "unschedulable";
  }
  return "?";
}

double umc_closed_form(double u_hi_base, double u_lo_base, int n_hi,
                       int n_lo, int n_adapt, AdaptationKind kind,
                       double df) {
  FTMC_EXPECTS(u_hi_base >= 0.0 && u_lo_base >= 0.0,
               "utilizations must be non-negative");
  FTMC_EXPECTS(n_hi >= 1 && n_lo >= 1 && n_adapt >= 0,
               "profiles must be positive (adaptation: non-negative)");
  const double u_lo_lo = n_lo * u_lo_base;   // U_LO^LO
  const double u_hi_lo = n_adapt * u_hi_base;  // U_HI^LO = n * U_HI
  const double u_hi_hi = n_hi * u_hi_base;   // U_HI^HI
  switch (kind) {
    case AdaptationKind::kNone:
      return u_hi_hi + u_lo_lo;  // worst-case EDF utilization
    case AdaptationKind::kKilling:
      return mcs::edf_vd_umc(u_lo_lo, u_hi_lo, u_hi_hi);
    case AdaptationKind::kDegradation:
      return mcs::edf_vd_degradation_umc(u_lo_lo, u_hi_lo, u_hi_hi, df);
  }
  FTMC_ENSURES(false, "unreachable adaptation kind");
  return 0.0;
}

namespace {

mcs::SchedulabilityTestPtr default_test(const AdaptationModel& model) {
  switch (model.kind) {
    case AdaptationKind::kNone:
      return std::make_shared<const mcs::EdfWorstCaseTest>();
    case AdaptationKind::kKilling:
      return std::make_shared<const mcs::EdfVdTest>();
    case AdaptationKind::kDegradation:
      return std::make_shared<const mcs::EdfVdDegradationTest>(
          model.degradation_factor);
  }
  FTMC_ENSURES(false, "unreachable adaptation kind");
  return nullptr;
}

/// Line 8 of Algorithm 1: n2_HI = sup{ n in [0, n_hi] : Gamma(n_hi, n_lo,
/// n) schedulable by S }. n == n_hi encodes "no mode switch ever"; values
/// beyond n_hi are pointless (the trigger cannot fire). Schedulability is
/// monotone non-increasing in n (Theorem 4.1 proof), so scan from the top.
std::optional<int> max_schedulable_adaptation(
    const FtTaskSet& ts, int n_hi, int n_lo, const FtsConfig& cfg,
    const mcs::SchedulabilityTest& test) {
  const bool closed_form = cfg.use_closed_form_umc &&
                           ts.all_implicit_deadlines() &&
                           cfg.adaptation.kind != AdaptationKind::kNone;
  const double u_hi_base = ts.utilization(CritLevel::HI);
  const double u_lo_base = ts.utilization(CritLevel::LO);
  for (int n = n_hi; n >= 0; --n) {
    bool ok;
    if (closed_form) {
      ok = umc_closed_form(u_hi_base, u_lo_base, n_hi, n_lo, n,
                           cfg.adaptation.kind,
                           cfg.adaptation.degradation_factor) <= 1.0;
    } else {
      ok = test.schedulable(convert_to_mc(ts, n_hi, n_lo, n));
    }
    if (ok) return n;
  }
  return std::nullopt;
}

}  // namespace

FtsResult ft_schedule(const FtTaskSet& ts, const FtsConfig& cfg) {
  ts.validate();
  FtsResult result;

  const mcs::SchedulabilityTestPtr test =
      cfg.test ? cfg.test : default_test(cfg.adaptation);
  result.scheduler_name = test->name();

  // --- Algorithm 1, line 1-3: minimal re-execution profiles per level.
  const auto n_hi_opt =
      min_reexec_profile(ts, CritLevel::HI, cfg.requirements, cfg.exec);
  if (!n_hi_opt) {
    result.failure = FtsFailure::kHiSafetyInfeasible;
    return result;
  }
  const auto n_lo_opt =
      min_reexec_profile(ts, CritLevel::LO, cfg.requirements, cfg.exec);
  if (!n_lo_opt) {
    result.failure = FtsFailure::kLoSafetyInfeasible;
    return result;
  }
  result.n_hi = *n_hi_opt;
  result.n_lo = *n_lo_opt;
  const PerTaskProfile n_profile =
      uniform_profile(ts, result.n_hi, result.n_lo);
  result.pfh_hi = pfh_plain(ts, n_profile, CritLevel::HI, cfg.exec);

  // Optional shortcut (paper Appendix C): keep everything un-adapted if
  // plain worst-case EDF already fits Gamma(n_HI, n_LO, n_HI).
  {
    const mcs::EdfWorstCaseTest worst_case;
    result.feasible_without_adaptation = worst_case.schedulable(
        convert_to_mc(ts, result.n_hi, result.n_lo, result.n_hi));
  }
  if (cfg.prefer_no_adaptation && result.feasible_without_adaptation) {
    result.success = true;
    result.n_adapt = result.n_hi;  // the mode switch can never fire
    result.pfh_lo = pfh_plain(ts, n_profile, CritLevel::LO, cfg.exec);
    result.u_mc = umc_closed_form(ts.utilization(CritLevel::HI),
                                  ts.utilization(CritLevel::LO), result.n_hi,
                                  result.n_lo, result.n_hi,
                                  AdaptationKind::kNone,
                                  cfg.adaptation.degradation_factor);
    result.converted =
        convert_to_mc(ts, result.n_hi, result.n_lo, result.n_hi);
    result.scheduler_name = "EDF(worst-case)";
    return result;
  }

  // --- Line 4-7: minimal adaptation profile keeping the LO level safe.
  result.n1_hi = min_adaptation_profile(ts, result.n_hi, result.n_lo,
                                        cfg.requirements, cfg.adaptation,
                                        cfg.exec);
  if (!result.n1_hi) {
    result.failure = FtsFailure::kAdaptationUnsafe;
    return result;
  }

  // --- Line 8: maximal schedulable adaptation profile.
  result.n2_hi = max_schedulable_adaptation(ts, result.n_hi, result.n_lo,
                                            cfg, *test);
  if (!result.n2_hi || *result.n1_hi > *result.n2_hi) {
    result.failure = FtsFailure::kUnschedulable;
    return result;
  }

  // --- Line 9-12: success; choose the safest schedulable profile.
  result.success = true;
  result.n_adapt = *result.n2_hi;
  result.converted =
      convert_to_mc(ts, result.n_hi, result.n_lo, result.n_adapt);
  result.pfh_lo = pfh_lo_under_adaptation(ts, result.n_hi, result.n_lo,
                                          result.n_adapt, cfg.adaptation,
                                          cfg.exec);
  result.u_mc = umc_closed_form(ts.utilization(CritLevel::HI),
                                ts.utilization(CritLevel::LO), result.n_hi,
                                result.n_lo, result.n_adapt,
                                cfg.adaptation.kind,
                                cfg.adaptation.degradation_factor);
  return result;
}

std::vector<AdaptationSweepPoint> sweep_adaptation(
    const FtTaskSet& ts, int n_hi, int n_lo, const AdaptationModel& model,
    const SafetyRequirements& reqs, int n_adapt_max, ExecAssumption exec) {
  ts.validate();
  FTMC_EXPECTS(n_adapt_max >= 0, "sweep bound must be non-negative");
  const double u_hi_base = ts.utilization(CritLevel::HI);
  const double u_lo_base = ts.utilization(CritLevel::LO);
  const Dal lo_dal = ts.mapping().lo;

  std::vector<AdaptationSweepPoint> points;
  points.reserve(static_cast<std::size_t>(n_adapt_max) + 1);
  for (int n = 0; n <= n_adapt_max; ++n) {
    AdaptationSweepPoint p;
    p.n_adapt = n;
    p.u_mc = umc_closed_form(u_hi_base, u_lo_base, n_hi, n_lo, n, model.kind,
                             model.degradation_factor);
    p.pfh_lo = pfh_lo_under_adaptation(ts, n_hi, n_lo, n, model, exec);
    p.schedulable = p.u_mc <= 1.0;
    p.safe = reqs.satisfied(lo_dal, p.pfh_lo);
    points.push_back(p);
  }
  return points;
}

}  // namespace ftmc::core
