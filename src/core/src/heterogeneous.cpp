#include "ftmc/core/heterogeneous.hpp"

#include <algorithm>
#include <limits>

namespace ftmc::core {

double adaptation_budget(double u_lo_lo, double u_hi_hi,
                         AdaptationKind kind, double df) {
  FTMC_EXPECTS(u_lo_lo >= 0.0 && u_hi_hi >= 0.0,
               "utilizations must be non-negative");
  FTMC_EXPECTS(kind != AdaptationKind::kNone,
               "no adaptation budget without a mode switch");
  if (u_lo_lo >= 1.0) return -1.0;
  const double lo_branch = 1.0 - u_lo_lo;  // from U_HI^LO + U_LO^LO <= 1

  double hi_branch = 0.0;
  switch (kind) {
    case AdaptationKind::kKilling:
      // U_HI^HI + U_HI^LO/(1-U_LO^LO) * U_LO^LO <= 1.
      hi_branch = (u_lo_lo == 0.0)
                      ? std::numeric_limits<double>::infinity()
                      : (1.0 - u_hi_hi) * (1.0 - u_lo_lo) / u_lo_lo;
      break;
    case AdaptationKind::kDegradation: {
      // U_HI^HI / (1 - lambda) + U_LO^LO/(df-1) <= 1, lambda =
      // U_HI^LO / (1 - U_LO^LO).
      FTMC_EXPECTS(df > 1.0, "degradation factor must exceed 1");
      const double residual = 1.0 - u_lo_lo / (df - 1.0);
      if (residual <= 0.0) return -1.0;
      const double lambda_max = 1.0 - u_hi_hi / residual;
      hi_branch = lambda_max * (1.0 - u_lo_lo);
      break;
    }
    case AdaptationKind::kNone:
      break;  // excluded by the precondition
  }
  return std::min(lo_branch, hi_branch);
}

HeterogeneousResult optimize_adaptation_profiles(
    const FtTaskSet& ts, int n_hi, int n_lo, const AdaptationModel& model,
    const SafetyRequirements& reqs, ExecAssumption exec) {
  ts.validate();
  FTMC_EXPECTS(n_hi >= 1 && n_lo >= 1, "re-execution profiles must be >= 1");

  HeterogeneousResult result;
  result.n_adapt.assign(ts.size(), 0);

  const double u_lo_lo = n_lo * ts.utilization(CritLevel::LO);
  const double u_hi_hi = n_hi * ts.utilization(CritLevel::HI);
  result.budget = adaptation_budget(u_lo_lo, u_hi_hi, model.kind,
                                    model.degradation_factor);
  if (result.budget < 0.0) return result;  // infeasible even at n' = 0
  result.feasible = true;

  const PerTaskProfile n = uniform_profile(ts, n_hi, n_lo);
  const auto evaluate = [&](const PerTaskProfile& n_adapt) {
    switch (model.kind) {
      case AdaptationKind::kKilling: {
        KillingBoundOptions opt;
        opt.os_hours = model.os_hours;
        opt.exec = exec;
        return pfh_lo_killing(ts, n, n_adapt, opt);
      }
      case AdaptationKind::kDegradation:
        return pfh_lo_degradation(ts, n, n_adapt, model.os_hours, exec);
      case AdaptationKind::kNone:
        return pfh_plain(ts, n, CritLevel::LO, exec);
    }
    FTMC_ENSURES(false, "unreachable adaptation kind");
    return 0.0;
  };

  const auto hi_indices = ts.indices_at(CritLevel::HI);

  // Start from the largest admissible *uniform* profile (what Algorithm 1
  // line 8 would choose). This guarantees the heterogeneous result
  // dominates every admissible uniform allocation, and avoids the greedy
  // plateau where raising a single task gains nothing while another HI
  // task still triggers at its first attempt.
  const double u_hi_total = ts.utilization(CritLevel::HI);
  int n_start = 0;
  while (n_start < n_hi &&
         (n_start + 1) * u_hi_total <= result.budget + 1e-12) {
    ++n_start;
  }
  for (const std::size_t i : hi_indices) result.n_adapt[i] = n_start;
  result.budget_used = n_start * u_hi_total;

  double current_pfh = evaluate(result.n_adapt);

  // Greedy marginal-gain allocation of the residual budget: each step
  // raises the profile whose increment buys the most PFH reduction per
  // unit of utilization. Raising never hurts (the bounds are non-
  // increasing in every n'_i), so zero-gain plateau steps are taken too,
  // cheapest task first, as long as budget remains.
  for (;;) {
    std::size_t best = ts.size();
    double best_ratio = -1.0;
    double best_pfh = current_pfh;
    for (const std::size_t i : hi_indices) {
      if (result.n_adapt[i] >= n_hi) continue;  // profile capped at n_HI
      const double cost = ts[i].utilization();
      if (result.budget_used + cost > result.budget + 1e-12) continue;
      PerTaskProfile candidate = result.n_adapt;
      ++candidate[i];
      const double pfh = evaluate(candidate);
      const double ratio = (current_pfh - pfh) / cost;
      if (best == ts.size() || ratio > best_ratio ||
          (ratio == best_ratio && cost < ts[best].utilization())) {
        best = i;
        best_ratio = ratio;
        best_pfh = pfh;
      }
    }
    if (best == ts.size()) break;  // budget or caps exhausted
    ++result.n_adapt[best];
    result.budget_used += ts[best].utilization();
    current_pfh = best_pfh;
    ++result.steps;
  }

  result.pfh_lo = current_pfh;
  result.safe = reqs.satisfied(ts.mapping().lo, result.pfh_lo);
  return result;
}

}  // namespace ftmc::core
