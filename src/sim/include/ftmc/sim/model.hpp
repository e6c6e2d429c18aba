/// \file model.hpp
/// \brief Runtime task model of the discrete-event simulator.
///
/// Tasks are `rt::HostTask`s, the type every host of the runtime core
/// shares; this header builds them from the analysis-level model. The
/// simulator executes the *fault-tolerant* system directly: attempts,
/// sanity checks, re-execution, and the kill/degrade trigger on the
/// (n'+1)-th execution of a HI job. It is used to validate that the
/// analytical PFH bounds (Lemmas 3.1-3.4) and the EDF-VD schedulability
/// claims hold on concrete executions.
#pragma once

#include <vector>

#include "ftmc/common/criticality.hpp"
#include "ftmc/common/time.hpp"
#include "ftmc/core/ft_task.hpp"
#include "ftmc/rt/host.hpp"

namespace ftmc::sim {

// Second name of ftmc::PolicyKind, kept because perfbench/ spells it.
using ftmc::PolicyKind;
// Second name of rt::HostTask, kept because perfbench/ spells it.
using SimTask = rt::HostTask;

/// How long one execution attempt takes at runtime.
enum class ExecTimeModel {
  kAlwaysWcet,  ///< every attempt takes exactly C_i (paper footnote 1)
  kUniform,     ///< uniform in [exec_min_fraction * C_i, C_i]
};

/// Builds the simulator task list from the analysis-level model:
/// re-execution profiles n, adaptation profiles n', and (for kEdfVd) the
/// virtual-deadline factor x obtained from analyze_edf_vd on the converted
/// set. Priorities are assigned deadline-monotonically.
[[nodiscard]] std::vector<rt::HostTask> build_sim_tasks(
    const core::FtTaskSet& ts, const core::PerTaskProfile& n,
    const core::PerTaskProfile& n_adapt, double virtual_deadline_factor);

/// Convenience overload for uniform per-level profiles.
[[nodiscard]] std::vector<rt::HostTask> build_sim_tasks(
    const core::FtTaskSet& ts, int n_hi, int n_lo, int n_adapt_hi,
    double virtual_deadline_factor);

}  // namespace ftmc::sim
