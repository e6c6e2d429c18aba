/// \file heterogeneous.hpp
/// \brief Extension: per-task (heterogeneous) adaptation profiles.
///
/// The paper restricts all HI tasks to one adaptation profile "in order to
/// simplify the problem" (Sec. 4.2) — but Lemma 3.3/3.4 and the conversion
/// (Lemma 4.1) are stated per-task. This module implements the general
/// form: allocate each HI task its own n'_i, maximizing LO-level safety
/// subject to EDF-VD(-degradation) schedulability of the converted set.
///
/// The schedulability constraint collapses to a budget on
/// U_HI^LO = sum_i n'_i * u_i (the only quantity through which the n'_i
/// enter Eq. (10)/(12)), so the search is a greedy marginal-gain
/// allocation: repeatedly raise the n'_i with the best safety improvement
/// per unit of budget until the budget or the profiles cap out.
#pragma once

#include "ftmc/core/profiles.hpp"

namespace ftmc::core {

/// Outcome of the heterogeneous allocation.
struct HeterogeneousResult {
  /// False iff no allocation fits (even all-zero profiles overload).
  bool feasible = false;
  /// Chosen per-task adaptation profiles (entries of LO tasks are 0).
  PerTaskProfile n_adapt;
  /// LO-level PFH bound achieved by the chosen profiles.
  double pfh_lo = 0.0;
  /// Whether pfh_lo meets the LO requirement of the given standard.
  bool safe = false;
  /// Maximum admissible U_HI^LO under the schedulability test (Eq. 10/12
  /// solved for U_HI^LO).
  double budget = 0.0;
  /// U_HI^LO actually consumed by the chosen profiles.
  double budget_used = 0.0;
  /// Greedy increments performed.
  int steps = 0;
};

/// Closed-form U_HI^LO budget for the EDF-VD family: the largest
/// U_HI^LO such that the converted set passes Eq. (10) (killing) or
/// Eq. (12) (degradation), given fixed U_LO^LO and U_HI^HI. Returns a
/// negative value when no budget exists (U_LO^LO or U_HI^HI too large).
[[nodiscard]] double adaptation_budget(double u_lo_lo, double u_hi_hi,
                                       AdaptationKind kind, double df);

/// Greedy per-task allocation. Re-execution profiles are the uniform
/// (n_hi, n_lo) pair from Algorithm 1 line 1-3; the result dominates (is
/// never less safe than) the best uniform profile n' <= n2_HI, because
/// every uniform allocation is reachable by the greedy moves.
[[nodiscard]] HeterogeneousResult optimize_adaptation_profiles(
    const FtTaskSet& ts, int n_hi, int n_lo, const AdaptationModel& model,
    const SafetyRequirements& reqs,
    ExecAssumption exec = ExecAssumption::kFullWcet);

}  // namespace ftmc::core
