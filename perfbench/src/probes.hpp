/// \file probes.hpp
/// \brief Per-layer timing probes shared by the workloads' traced runs.
#pragma once

#include <cstddef>

#include "ftmc/core/ft_scheduler.hpp"
#include "harness.hpp"

namespace perfbench {

/// Times the core layer's pieces of FT-S on one set: the profile search
/// of Algorithm 1 (min_reexec_profile for both levels plus
/// min_adaptation_profile) and, when FT-S accepts, the LO PFH bound at
/// the adaptation profile it chose. `known` is FT-S's result on the set
/// when the caller has it; otherwise the probe runs FT-S (untimed).
struct CoreProbe {
  double search_us = 0.0;
  double pfh_us = 0.0;
  std::size_t sets = 0;
  std::size_t pfh_sets = 0;

  void run(const ftmc::core::FtTaskSet& ts, const ftmc::core::FtsConfig& cfg,
           const ftmc::core::FtsResult* known = nullptr);
  /// Sets core.profile_search.us_per_set and core.pfh_bound.us_per_set.
  void report_to(Report& report) const;
};

}  // namespace perfbench
