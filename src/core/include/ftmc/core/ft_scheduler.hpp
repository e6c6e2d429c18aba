/// \file ft_scheduler.hpp
/// \brief The FT-S scheduling algorithm (paper Algorithm 1) and its EDF-VD
///        instantiations (Algorithm 2 and the Eq. (11) degradation variant).
///
/// FT-S unifies safety and schedulability:
///  1. choose minimal re-execution profiles n_HI, n_LO meeting the plain
///     PFH bounds (line 1-3);
///  2. compute the minimal adaptation profile n1_HI that keeps the LO level
///     safe under killing/degradation (line 4); FAILURE if none exists;
///  3. compute the maximal adaptation profile n2_HI that keeps the
///     converted task set Gamma(n_HI, n_LO, n) schedulable under S (line 8);
///  4. succeed iff n1_HI <= n2_HI, choosing n'_HI = n2_HI (the safest
///     schedulable choice, line 9-12).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ftmc/core/conversion.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/mcs/schedulability.hpp"

namespace ftmc::core {

/// Why FT-S signalled FAILURE (kNone on success).
enum class FtsFailure {
  kNone,
  /// No re-execution profile <= kMaxProfile meets the HI plain-PFH bound.
  kHiSafetyInfeasible,
  /// No re-execution profile <= kMaxProfile meets the LO plain-PFH bound.
  kLoSafetyInfeasible,
  /// Algorithm 1 line 5-7: even the largest admissible adaptation profile
  /// leaves the LO level unsafe (n1_HI does not exist / n1_HI > n_HI).
  kAdaptationUnsafe,
  /// No adaptation profile makes the converted set schedulable, or the
  /// safe ones (>= n1_HI) are all unschedulable (n1_HI > n2_HI).
  kUnschedulable,
};

[[nodiscard]] std::string_view to_string(FtsFailure failure);

/// Configuration of one FT-S run.
struct FtsConfig {
  SafetyRequirements requirements = SafetyRequirements::do178b();
  AdaptationModel adaptation;  ///< kind (kill/degrade), d_f, O_S
  /// The mixed-criticality technique S. If null, EDF-VD is used for
  /// killing and the Eq. (12) variant for degradation — the instantiations
  /// of Appendix B.
  mcs::SchedulabilityTestPtr test;
  /// When true and the technique is (an) EDF-VD (variant) on an implicit-
  /// deadline set, n2_HI is computed from the closed-form U_MC(n) of
  /// Algorithm 2 line 11 / Eq. (11) instead of materializing converted
  /// task sets. Results are identical; the closed form is what the paper's
  /// Fig. 1/2 plot.
  bool use_closed_form_umc = true;
  /// When true (paper Appendix C: adaptation "is only adopted if the
  /// system is not feasible otherwise"), FT-S first tries plain worst-case
  /// EDF with no mode switch and reports success without adaptation.
  bool prefer_no_adaptation = false;
  ExecAssumption exec = ExecAssumption::kFullWcet;
};

/// Outcome of FT-S.
struct FtsResult {
  bool success = false;
  FtsFailure failure = FtsFailure::kNone;

  int n_hi = 0;  ///< chosen HI re-execution profile
  int n_lo = 0;  ///< chosen LO re-execution profile
  /// Minimal safe adaptation profile (line 4); absent if step 2 failed.
  std::optional<int> n1_hi;
  /// Maximal schedulable adaptation profile (line 8); absent if none.
  std::optional<int> n2_hi;
  /// Chosen adaptation profile n'_HI (= n2_HI on success). Equal to n_hi
  /// means "the mode switch can never fire" (no adaptation needed).
  int n_adapt = 0;

  /// Achieved PFH bounds at the chosen profiles.
  double pfh_hi = 0.0;
  double pfh_lo = 0.0;

  /// U_MC of the chosen configuration (meaningful for the EDF-VD family).
  double u_mc = 0.0;
  /// True iff plain worst-case EDF already fits (no mode switch needed).
  bool feasible_without_adaptation = false;
  /// The converted task set Gamma(n_HI, n_LO, n'_HI) actually scheduled.
  mcs::McTaskSet converted;
  std::string scheduler_name;
};

/// Runs FT-S (Theorem 4.1: if success, both safety and schedulability are
/// guaranteed).
[[nodiscard]] FtsResult ft_schedule(const FtTaskSet& ts,
                                    const FtsConfig& config);

/// Closed-form U_MC(n) over the adaptation profile for the EDF-VD family
/// (Algorithm 2 line 11 for killing; Eq. (11) for degradation), given the
/// base (single-execution) utilizations of the two levels.
[[nodiscard]] double umc_closed_form(double u_hi_base, double u_lo_base,
                                     int n_hi, int n_lo, int n_adapt,
                                     AdaptationKind kind, double df);

/// One point of the Fig. 1 / Fig. 2 sweep.
struct AdaptationSweepPoint {
  int n_adapt = 0;      ///< x-axis: n'_HI
  double u_mc = 0.0;    ///< left axis: mixed-criticality utilization
  double pfh_lo = 0.0;  ///< right axis (log10-ed by the benches)
  bool schedulable = false;  ///< u_mc <= 1
  bool safe = false;         ///< pfh_lo meets the LO requirement
};

/// Evaluates U_MC and pfh(LO) for n'_HI = 0..n_adapt_max — the data behind
/// Fig. 1 (killing) and Fig. 2 (degradation).
[[nodiscard]] std::vector<AdaptationSweepPoint> sweep_adaptation(
    const FtTaskSet& ts, int n_hi, int n_lo, const AdaptationModel& model,
    const SafetyRequirements& reqs, int n_adapt_max,
    ExecAssumption exec = ExecAssumption::kFullWcet);

}  // namespace ftmc::core
