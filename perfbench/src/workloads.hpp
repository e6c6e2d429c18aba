/// \file workloads.hpp
/// \brief The four benchmark workloads. Each runs its set-up, warm-up
///        and timed window(s), checks its outputs, and returns the
///        metrics of the run: end-to-end ones on an untraced run, the
///        per-layer ones it reaches on a traced run (run.py reports the
///        others as 0).
#pragma once

#include "harness.hpp"

namespace perfbench {

[[nodiscard]] Report run_fig3_sweep(const Args& args);
[[nodiscard]] Report run_dbf_headroom(const Args& args);
[[nodiscard]] Report run_sim_faults(const Args& args);
[[nodiscard]] Report run_serve_warm(const Args& args);

}  // namespace perfbench
