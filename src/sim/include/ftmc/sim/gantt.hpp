/// \file gantt.hpp
/// \brief ASCII Gantt rendering of a simulator trace.
///
/// Turns the event trace into a per-task timeline for terminals and docs:
///
///   tau2   |##..##|....|######........|
///   tau3   |..##..|####|....XX........|
///   mode   |......|....|..........!HHH|
///
/// '#' = executing, '.' = not executing, 'X' = killed, '!' = mode switch
/// instant, 'H' = HI mode. Execution ownership is reconstructed from the
/// kStart/kComplete/kJobFail events (the engine emits kStart at every
/// change of processor ownership, so the reconstruction is exact up to
/// column quantization).
#pragma once

#include <string>
#include <vector>

#include "ftmc/sim/trace.hpp"

namespace ftmc::sim {

/// Rendering options.
struct GanttOptions {
  Tick from = 0;       ///< window start
  Tick to = 0;         ///< window end (must exceed `from`)
  int width = 72;      ///< timeline columns
  bool show_mode_row = true;
};

/// Renders the trace restricted to [from, to). `task_names` indexes the
/// simulator task list; unnamed tasks print as "task<i>".
[[nodiscard]] std::string render_gantt(
    const std::vector<rt::Event>& trace,
    const std::vector<std::string>& task_names, const GanttOptions& options);

}  // namespace ftmc::sim
