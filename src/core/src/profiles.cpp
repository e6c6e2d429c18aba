#include "ftmc/core/profiles.hpp"

#include <algorithm>

namespace ftmc::core {

std::optional<int> min_reexec_profile(const FtTaskSet& ts, CritLevel level,
                                      const SafetyRequirements& reqs,
                                      ExecAssumption exec) {
  ts.validate();
  const Dal dal = ts.mapping().dal_of(level);
  if (!reqs.constrains(dal)) return 1;
  if (ts.count(level) == 0) return 1;

  // Uniform per-level profile; the other level's entries are ignored by
  // pfh_plain, so any placeholder (here: the same n) is fine. One buffer
  // for the whole scan — refilled, not reallocated, per candidate.
  PerTaskProfile profile(ts.size(), 0);
  for (int n = 1; n <= kMaxProfile; ++n) {
    std::fill(profile.begin(), profile.end(), n);
    if (reqs.satisfied(dal, pfh_plain(ts, profile, level, exec))) return n;
  }
  return std::nullopt;
}

double pfh_lo_under_adaptation(const FtTaskSet& ts, int n_hi, int n_lo,
                               int n_adapt_hi, const AdaptationModel& model,
                               ExecAssumption exec, double early_exit_above) {
  FTMC_EXPECTS(n_hi >= 0 && n_lo >= 0 && n_adapt_hi >= 0,
               "profiles must be non-negative");
  // Hot inside min_adaptation_profile's n' scan (once per candidate per
  // task set in every fig3 cell); the two profile buffers are reused
  // across calls instead of allocated fresh.
  thread_local PerTaskProfile n;
  thread_local PerTaskProfile n_adapt;
  n.assign(ts.size(), 0);
  n_adapt.assign(ts.size(), 0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const bool hi = ts.crit_of(i) == CritLevel::HI;
    n[i] = hi ? n_hi : n_lo;
    n_adapt[i] = hi ? n_adapt_hi : 0;
  }
  switch (model.kind) {
    case AdaptationKind::kNone:
      return pfh_plain(ts, n, CritLevel::LO, exec);
    case AdaptationKind::kKilling: {
      KillingBoundOptions opt;
      opt.os_hours = model.os_hours;
      opt.exec = exec;
      opt.early_exit_above = early_exit_above;
      return pfh_lo_killing(ts, n, n_adapt, opt);
    }
    case AdaptationKind::kDegradation:
      return pfh_lo_degradation(ts, n, n_adapt, model.os_hours, exec);
  }
  FTMC_ENSURES(false, "unreachable adaptation kind");
  return 0.0;
}

std::optional<int> min_adaptation_profile(const FtTaskSet& ts, int n_hi,
                                          int n_lo,
                                          const SafetyRequirements& reqs,
                                          const AdaptationModel& model,
                                          ExecAssumption exec) {
  ts.validate();
  FTMC_EXPECTS(n_hi >= 1 && n_lo >= 1, "re-execution profiles must be >= 1");
  const Dal lo_dal = ts.mapping().lo;
  if (!reqs.constrains(lo_dal)) return 0;
  if (ts.count(CritLevel::LO) == 0) return 0;
  const double requirement = *reqs.requirement(lo_dal);

  // pfh(LO) under both Eq. (5) and Eq. (7) is non-increasing in n'
  // (Sec. 3.3/3.4 discussion), so scan upward for the infimum. n' is
  // bounded by n_HI - 1 (a profile of n_HI or more can never trigger).
  for (int n_adapt = 0; n_adapt < n_hi; ++n_adapt) {
    const double pfh = pfh_lo_under_adaptation(ts, n_hi, n_lo, n_adapt,
                                               model, exec, requirement);
    if (pfh < requirement) return n_adapt;
  }
  return std::nullopt;
}

}  // namespace ftmc::core
