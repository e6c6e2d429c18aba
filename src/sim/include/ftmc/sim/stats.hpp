/// \file stats.hpp
/// \brief Aggregated statistics of a simulation run.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/common/criticality.hpp"
#include "ftmc/common/time.hpp"
#include "ftmc/rt/types.hpp"

namespace ftmc::sim {

// Second name of rt::TaskCounters, kept because perfbench/ spells it.
using TaskStats = rt::TaskCounters;

/// Whole-run statistics.
struct SimStats {
  std::vector<rt::TaskCounters> per_task;
  std::uint64_t preemptions = 0;
  std::uint64_t mode_switches = 0;  ///< LO -> HI transitions
  std::uint64_t mode_resets = 0;    ///< HI -> LO transitions (if enabled)
  Tick first_mode_switch = kNever;
  Tick busy_time = 0;  ///< processor non-idle time
  Tick horizon = 0;    ///< simulated duration

  [[nodiscard]] double utilization_observed() const {
    return horizon > 0 ? static_cast<double>(busy_time) /
                             static_cast<double>(horizon)
                       : 0.0;
  }
  [[nodiscard]] double simulated_hours() const {
    return static_cast<double>(horizon) / static_cast<double>(kTicksPerHour);
  }
};

}  // namespace ftmc::sim
