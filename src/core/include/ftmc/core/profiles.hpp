/// \file profiles.hpp
/// \brief Search for re-execution and adaptation profiles.
///
/// Implements the infimum/supremum searches of Algorithm 1:
///  - line 2: minimal per-level re-execution profiles meeting plain safety,
///  - line 4: minimal adaptation profile n1_HI keeping the LO level safe
///    under killing (Eq. 5) or degradation (Eq. 7).
/// Both searched quantities are monotone (PFH bounds strictly improve with
/// larger profiles), so a linear scan from below yields the infimum.
#pragma once

#include <optional>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/safety.hpp"
#include "ftmc/mcs/schedulability.hpp"

namespace ftmc::core {

/// Upper bound for profile searches; a profile beyond this means the task
/// set cannot be made safe with any practical amount of re-execution
/// (f^64 underflows everything measurable long before this).
inline constexpr int kMaxProfile = 64;

/// Minimal uniform re-execution profile for the tasks at `level` such that
/// the plain PFH bound (Eq. 2) meets the level's requirement:
///   n_level = inf{ n : pfh(level) satisfied }.
/// Returns nullopt if no n <= kMaxProfile suffices (e.g. a single job
/// already arrives more often than the PFH budget allows even with f = 0
/// impossible — in practice: f too large / requirement too strict).
/// Unconstrained levels (DO-178B D/E) yield 1: a single execution, no
/// re-execution needed.
[[nodiscard]] std::optional<int> min_reexec_profile(
    const FtTaskSet& ts, CritLevel level, const SafetyRequirements& reqs,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Which adaptation mechanism the LO bound should be computed for.
struct AdaptationModel {
  AdaptationKind kind = AdaptationKind::kKilling;
  double degradation_factor = 2.0;  ///< d_f; only used for kDegradation
  double os_hours = 1.0;            ///< operation duration O_S
};

/// Minimal adaptation profile n1_HI (Algorithm 1, line 4):
///   n1_HI = inf{ n' in [0, n_HI - 1] : pfh(LO) < PFH_LO }
/// under killing (Eq. 5) or degradation (Eq. 7). Returns:
///  - 0 immediately if the LO level is unconstrained (killing a level D/E
///    task "does not jeopardize the system safety", Example 3.1);
///  - nullopt if even n' = n_HI - 1 violates the LO requirement, i.e. the
///    FAILURE branch of Algorithm 1 line 5-7.
[[nodiscard]] std::optional<int> min_adaptation_profile(
    const FtTaskSet& ts, int n_hi, int n_lo, const SafetyRequirements& reqs,
    const AdaptationModel& model,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Evaluates the LO-level PFH bound for a given uniform adaptation profile
/// under the model (dispatches Eq. 5 vs Eq. 7). kNone returns the plain
/// bound (Eq. 2). Exposed for the Fig. 1/2 sweeps.
[[nodiscard]] double pfh_lo_under_adaptation(
    const FtTaskSet& ts, int n_hi, int n_lo, int n_adapt_hi,
    const AdaptationModel& model,
    ExecAssumption exec = ExecAssumption::kFullWcet,
    double early_exit_above = 0.0);

}  // namespace ftmc::core
