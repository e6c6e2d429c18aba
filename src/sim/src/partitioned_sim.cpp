#include "ftmc/sim/partitioned_sim.hpp"

#include "ftmc/common/contracts.hpp"

namespace ftmc::sim {

PartitionedSimStats simulate_partitioned(
    const std::vector<rt::HostTask>& tasks, const std::vector<int>& assignment,
    int cores, const SimConfig& config) {
  FTMC_EXPECTS(cores >= 1, "need at least one core");
  FTMC_EXPECTS(assignment.size() == tasks.size(),
               "one core assignment per task required");

  PartitionedSimStats out;
  out.per_core.reserve(static_cast<std::size_t>(cores));

  std::uint64_t failures_hi = 0;
  std::uint64_t failures_lo = 0;
  double hours = 0.0;
  for (int c = 0; c < cores; ++c) {
    std::vector<rt::HostTask> core_tasks;
    std::vector<std::size_t> origin;  // core-local -> global index
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      FTMC_EXPECTS(assignment[i] < cores,
                   "core assignment out of range");
      if (assignment[i] == c) {
        core_tasks.push_back(tasks[i]);
        origin.push_back(i);
      }
    }
    if (core_tasks.empty()) {
      SimStats idle;
      idle.horizon = config.horizon;
      out.per_core.push_back(idle);
      continue;
    }
    SimConfig core_config = config;
    core_config.seed = config.seed + static_cast<std::uint64_t>(c);
    Simulator sim(core_tasks, core_config);
    SimStats stats = sim.run();
    out.total_mode_switches += stats.mode_switches;
    for (std::size_t local = 0; local < core_tasks.size(); ++local) {
      const rt::TaskCounters& t = stats.per_task[local];
      (core_tasks[local].crit == CritLevel::HI ? failures_hi
                                               : failures_lo) +=
          t.temporal_failures();
    }
    out.per_core.push_back(std::move(stats));
  }
  hours = static_cast<double>(config.horizon) /
          static_cast<double>(kTicksPerHour);
  if (hours > 0.0) {
    out.pfh_hi = static_cast<double>(failures_hi) / hours;
    out.pfh_lo = static_cast<double>(failures_lo) / hours;
  }
  return out;
}

}  // namespace ftmc::sim
