/// \file partitioned_sim.hpp
/// \brief Simulation of a partitioned multiprocessor deployment.
///
/// Composes one uniprocessor Simulator per core (partitioned scheduling
/// shares nothing at runtime: each core has its own ready queue, mode
/// state, and kill/degrade scope), runs them over the same horizon, and
/// aggregates the statistics. Used to validate the partitioned extension
/// of the analysis (ftmc::core::ft_schedule_partitioned).
#pragma once

#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {

/// Per-core and aggregate statistics of a partitioned run.
struct PartitionedSimStats {
  std::vector<SimStats> per_core;
  /// Sum of per-core mode switches (each core latches independently).
  std::uint64_t total_mode_switches = 0;
  /// Temporal-domain failures per hour per level, across all cores.
  double pfh_hi = 0.0;
  double pfh_lo = 0.0;
};

/// Runs each core's task subset through its own Simulator. `assignment`
/// maps each task to a core in [0, cores); tasks mapped to -1 are
/// skipped (unassigned). Core c uses seed config.seed + c.
[[nodiscard]] PartitionedSimStats simulate_partitioned(
    const std::vector<rt::HostTask>& tasks, const std::vector<int>& assignment,
    int cores, const SimConfig& config);

}  // namespace ftmc::sim
